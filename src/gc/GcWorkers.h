//===- gc/GcWorkers.h - GC worker pool and mark work list -------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel collection engine's scheduling layer: a fixed-size pool of
/// persistent GC worker threads and a work-stealing mark list with bounded
/// per-worker deques.
///
/// Design constraints, in order:
///  1. Determinism of *results*, not of schedules. The collector's phases
///     are constructed so that any interleaving of workers produces the
///     same final heap state; the pool therefore needs no deterministic
///     scheduling, only a barrier between phases.
///  2. Bounded memory. The old serial `Heap::MarkStack` grew in
///     proportion to the trace frontier (a single wide array could push
///     tens of thousands of entries). Here each worker keeps a small
///     private buffer plus at most MaxDequeChunks published chunks;
///     anything beyond that spills to a global overflow list that is
///     drained before the phase can end - deep or wide object graphs
///     can no longer grow any single deque without bound.
///  3. No dependencies upward: this header is self-contained so the heap
///     layer can consume parallel-for callbacks without linking the gc
///     library (see GcParallelFor in HeapConfig.h).
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_GC_GCWORKERS_H
#define WEARMEM_GC_GCWORKERS_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wearmem {

/// A fixed-size pool of persistent worker threads. The constructing
/// thread participates as worker 0, so a pool of N workers owns N-1
/// threads; a pool of 1 runs everything inline with no threads at all.
/// Jobs are dispatched with runOnAll (every worker runs the same
/// function, distinguished by worker id) and the call returns only after
/// every worker has finished - the caller gets a full barrier, which is
/// what publishes each phase's writes to the next phase.
class GcWorkerPool {
public:
  explicit GcWorkerPool(unsigned Workers);
  ~GcWorkerPool();

  GcWorkerPool(const GcWorkerPool &) = delete;
  GcWorkerPool &operator=(const GcWorkerPool &) = delete;

  unsigned workers() const { return NumWorkers; }

  /// Runs Fn(WorkerId) on every worker (the caller doubles as worker 0)
  /// and returns once all have finished.
  void runOnAll(const std::function<void(unsigned)> &Fn);

  /// Dynamic-partition parallel for: invokes Fn(I) exactly once for each
  /// I in [0, Count), with workers claiming indices from a shared atomic
  /// cursor. The assignment of indices to workers is schedule-dependent;
  /// callers must only use this for work whose result is independent of
  /// that assignment (e.g. per-block sweep computation written to a
  /// per-index result slot).
  void parallelChunks(size_t Count, const std::function<void(size_t)> &Fn);

private:
  void threadMain(unsigned Id);

  unsigned NumWorkers;
  std::vector<std::thread> Threads;
  std::mutex Mu;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  const std::function<void(unsigned)> *Job = nullptr;
  uint64_t JobGeneration = 0;
  unsigned Outstanding = 0;
  bool Stopping = false;
};

/// Work-stealing list of objects awaiting scanning during a mark phase.
///
/// Each worker owns a small private Local buffer (fast push/pop, no
/// synchronization). When Local exceeds 2*ChunkItems entries the oldest
/// ChunkItems are carved into a chunk and published to the worker's
/// deque - owners pop from the back, thieves steal from the front, so
/// thieves receive the shallow end of the frontier and owners keep
/// depth-first locality. A deque holds at most MaxDequeChunks chunks;
/// beyond that chunks spill to the global Overflow list, which any
/// worker drains when its other sources run dry. That bound is the fix
/// for the serial MarkStack's unbounded growth: per-worker memory is
/// O(ChunkItems * MaxDequeChunks) regardless of graph shape, and the
/// overflow list is drained before the phase can terminate.
///
/// Termination: a worker that finds no work anywhere goes idle
/// (increments NumIdle) and spins politely. Only non-idle workers can
/// publish work, and a worker always drains its own deque plus the
/// overflow list before going idle, so "all idle" implies the phase is
/// complete; the first worker to observe that sets Done.
class MarkWorkList {
public:
  using Item = uint8_t *;

  MarkWorkList(unsigned NumWorkers, size_t ChunkItems,
               size_t MaxDequeChunks);

  /// Pre-phase seeding from the coordinating thread (no workers running
  /// yet): appends directly to \p Worker's deque. Seed chunks may exceed
  /// MaxDequeChunks for giant root sets; the bound governs growth during
  /// the trace itself.
  void seed(unsigned Worker, Item Obj);

  void push(unsigned Worker, Item Obj);

  /// Pops the next item for \p Worker, refilling from its own deque, a
  /// victim's deque, or the overflow list; blocks (spinning) while other
  /// workers might still publish work. Returns false when the whole
  /// phase is complete - or, with an armed quota, when the step's pop
  /// budget is spent.
  bool pop(unsigned Worker, Item &Out);

  /// Non-blocking pop for the concurrent marker: takes from \p Worker's
  /// local buffer, else makes exactly one refill attempt (own deque,
  /// then a steal sweep, then the overflow list) and returns false if
  /// all come up empty - never spins, never touches the quota or the
  /// idle/termination protocol. The marker runs this single-threaded
  /// against slot \p Worker while mutators are off-safepoint; an empty
  /// return means "no work *visible now*", not phase termination (the
  /// closing pause's drain-to-convergence decides that).
  bool tryPop(unsigned Worker, Item &Out);

  /// \name Budgeted (incremental) draining
  /// An incremental mark step arms a quota of successful pops; once it
  /// is spent every pop returns false while the remaining frontier stays
  /// queued for the next increment. Pops debit the quota up front and
  /// refund on failure, except when the quota reads spent at refund time:
  /// then the debit is dropped, because reviving a quota that other
  /// workers already exited on would strand the remaining idle spinners
  /// (see pop()). Debit and refund only ever move a positive quota, so a
  /// spent quota stays at 0 until the next increment rearms it and is
  /// never mistaken for the Unlimited sentinel. An increment therefore
  /// scans *at most* quota objects - possibly a few under, with the
  /// shortfall left queued - and the final marked set is independent of
  /// budget and worker schedule either way.
  /// reopen() rearms the list between increments: it clears the sticky
  /// termination state a drained step leaves behind and must only be
  /// called at a barrier (no worker inside pop).
  /// @{
  void setQuota(int64_t Limit) {
    Quota.store(Limit, std::memory_order_relaxed);
  }
  void reopen() {
    Done.store(false, std::memory_order_relaxed);
    NumIdle.store(0, std::memory_order_relaxed);
    Quota.store(Unlimited, std::memory_order_relaxed);
  }
  /// Barrier-only emptiness probe across every queue - private Local
  /// buffers included, since a spent quota strands items there. Decides
  /// between increments whether the frontier has converged; must not
  /// race pop().
  bool quiesced() const {
    for (const auto &S : W)
      if (!S->Local.empty() ||
          S->ChunkCount.load(std::memory_order_acquire) != 0)
        return false;
    return OverflowCount.load(std::memory_order_acquire) == 0;
  }
  /// @}

  /// \name Instrumentation
  /// Peak chunk counts observed during the phase, for the bounded-growth
  /// tests. Read only after the phase barrier.
  /// @{
  size_t dequePeakChunks() const;
  size_t overflowPeakChunks() const { return OverflowPeak; }
  /// @}

private:
  struct WorkerState {
    std::vector<Item> Local;
    std::mutex Mu;
    std::deque<std::vector<Item>> Chunks;
    /// Mirror of Chunks.size() readable without the lock (work-presence
    /// hints for stealing/termination; the lock confirms).
    std::atomic<size_t> ChunkCount{0};
    size_t PeakChunks = 0;
    unsigned NextVictim = 0;
  };

  bool refill(unsigned Worker);
  /// Takes one unit of a positive quota; false once it is spent.
  bool debitQuota();
  /// Returns a debit, unless the quota is already spent.
  void refundQuota();
  bool takeOwn(unsigned Worker, std::vector<Item> &Out);
  bool takeStolen(unsigned Worker, std::vector<Item> &Out);
  bool takeOverflow(std::vector<Item> &Out);
  void publish(unsigned Worker, std::vector<Item> Chunk);
  bool anyWorkVisible() const;

  unsigned NumWorkers;
  size_t ChunkItems;
  size_t MaxDequeChunks;
  std::vector<std::unique_ptr<WorkerState>> W;
  std::mutex OverflowMu;
  std::vector<std::vector<Item>> Overflow;
  std::atomic<size_t> OverflowCount{0};
  size_t OverflowPeak = 0;
  std::atomic<unsigned> NumIdle{0};
  std::atomic<bool> Done{false};
  /// Remaining successful pops this increment, or Unlimited (the
  /// stop-the-world phases never arm it).
  static constexpr int64_t Unlimited = -1;
  std::atomic<int64_t> Quota{Unlimited};
};

} // namespace wearmem

#endif // WEARMEM_GC_GCWORKERS_H
