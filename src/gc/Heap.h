//===- gc/Heap.h - Collectors over the failure-aware heap -------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The garbage-collected heap engine. One class implements the four
/// collectors of Figure 3 over the spaces in src/heap:
///
///  * MarkSweep / StickyMarkSweep - segregated free-list space;
///  * Immix / StickyImmix - mark-region space with opportunistic copying.
///
/// Failure awareness (Section 4) threads through all of it: static
/// failure maps arrive with each OS page grant and become Failed lines;
/// the allocators skip them; dynamic failures retire lines at run time,
/// force the containing block into the next defragmenting collection, and
/// the affected objects are evacuated with the same machinery Immix uses
/// to defragment.
///
/// The two Immix invariants the paper relies on are preserved verbatim:
/// the allocator only ever allocates into free lines, and only unpinned
/// objects move.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_GC_HEAP_H
#define WEARMEM_GC_HEAP_H

#include "gc/FailureLedger.h"
#include "gc/GcWorkers.h"
#include "gc/Safepoint.h"
#include "gc/SatbLog.h"
#include "heap/FreeListSpace.h"
#include "heap/HeapConfig.h"
#include "heap/ImmixSpace.h"
#include "heap/LargeObjectSpace.h"
#include "heap/Object.h"
#include "os/MetadataJournal.h"
#include "os/Os.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace wearmem {

class ConcurrentMarker;
class HeapAuditor;

/// Which collection to run.
enum class CollectionKind { Nursery, Full };

/// The collected heap.
class Heap {
public:
  explicit Heap(const HeapConfig &Config);
  /// Joins the concurrent marker thread (if one was ever started).
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  //===--------------------------------------------------------------===//
  // Mutator interface
  //===--------------------------------------------------------------===//

  /// Allocates an object with \p NumRefs reference slots and
  /// \p PayloadBytes of raw payload. Runs collections as needed; returns
  /// nullptr only when the heap is exhausted (the run should be treated
  /// as did-not-finish, like the truncated curves in the paper).
  ObjRef allocate(uint32_t PayloadBytes, uint16_t NumRefs,
                  bool Pinned = false);

  /// Reference store with the sticky collectors' object-remembering write
  /// barrier.
  void writeRef(ObjRef Src, unsigned Slot, ObjRef Dst);

  static ObjRef readRef(ObjRef Src, unsigned Slot) {
    return *refSlot(Src, Slot);
  }

  //===--------------------------------------------------------------===//
  // Roots
  //===--------------------------------------------------------------===//

  /// Registers a root slot; the collector updates it when objects move.
  unsigned createRoot(ObjRef Initial);
  void releaseRoot(unsigned Idx);
  ObjRef root(unsigned Idx) const { return Roots[Idx]; }
  /// Root store. Root slots are reference slots too: while an
  /// incremental mark cycle is open, the overwritten root joins the SATB
  /// deletion log exactly like an overwritten object field.
  void setRoot(unsigned Idx, ObjRef Obj);

  //===--------------------------------------------------------------===//
  // Collection
  //===--------------------------------------------------------------===//

  /// Runs a collection explicitly. Returns the freed fraction estimate.
  double collect(CollectionKind Kind);

  /// True while a collection is running (mutator-visible safepoint
  /// query; fault campaigns use it to hold their triggers).
  bool inCollection() const { return InCollection; }

  //===--------------------------------------------------------------===//
  // Incremental SATB marking (bounded pauses)
  //===--------------------------------------------------------------===//

  /// The full mark phase can instead run as a sequence of short,
  /// fixed-budget increments interleaved with mutation:
  ///
  ///  * beginIncrementalMarkCycle() opens a cycle in an O(roots) pause:
  ///    it bumps the epoch, selects defragmentation candidates, and seeds
  ///    the trace from the root set. While the cycle is open, writeRef
  ///    logs every overwritten reference into the SATB deletion log and
  ///    new objects are allocated black, so the set the cycle eventually
  ///    marks is exactly what was reachable at the snapshot (plus
  ///    in-cycle births) - independent of mutation order, worker count,
  ///    and budget. Dynamic-failure batches arriving mid-cycle park in
  ///    the deferred queue (InMarkPhase stays true for the whole cycle)
  ///    and drain after the close, exactly like batches landing inside a
  ///    stop-the-world mark phase.
  ///  * incrementalMarkStep() drains the deletion log and traces at most
  ///    Config.MarkBudget objects (0 = unbounded); anything over budget
  ///    stays queued for the next step. Returns true while frontier work
  ///    remains. The final marked set is independent of the budget, the
  ///    step schedule, and the worker count.
  ///  * finishIncrementalMarkCycle() is the short closing pause: rescan
  ///    roots, drain the log, finish the trace, then run the normal
  ///    evacuate / fixup / sweep tail. The closing counts as the cycle's
  ///    full defragmenting collection - final heap state is bit-identical
  ///    to a stop-the-world full collection at the same point in the
  ///    mutation history, provided the in-cycle mutation was reference
  ///    stores only (in-cycle allocation survives as floating newborns a
  ///    stop-the-world run would not retain).
  ///
  /// collect() with a cycle open simply closes it: the trigger that
  /// would have forced a collection gets the closing pause instead.
  ///
  /// Requires an SATB Config.Pacing and an Immix heap; returns false
  /// (and does nothing) otherwise, or when a cycle is already open.
  bool beginIncrementalMarkCycle();
  /// Runs one bounded mark increment; returns true while work remains.
  bool incrementalMarkStep();
  /// Closes the open cycle with the final short pause + collection tail.
  void finishIncrementalMarkCycle();
  bool incrementalCycleOpen() const { return IncCycle != nullptr; }
  /// Entries currently parked in the SATB deletion log (tests/tools).
  size_t satbLogDepth() const { return Satb.size(); }

  //===--------------------------------------------------------------===//
  // Mostly-concurrent marking (MarkPacing::Concurrent)
  //===--------------------------------------------------------------===//

  /// With MarkPacing::Concurrent, an open cycle is drained by a dedicated
  /// marker thread (gc/ConcurrentMarker.h) instead of incremental steps:
  /// beginIncrementalMarkCycle arms the marker after seeding, drivers
  /// issue satbFlushHandshake() ticks instead of incrementalMarkStep(),
  /// and finishIncrementalMarkCycle quiesces the marker before its usual
  /// closing drain-to-convergence - which is what keeps the final heap
  /// state bit-identical to stop-the-world and interleaved marking.

  /// Flush-only handshake: parks registered peer threads just long
  /// enough to seal every lane's partial SATB buffer into the shared
  /// sealed-segment queue, then wakes the marker. Unlike a collection
  /// stop this never bumps Stats.SafepointStops (it is a sub-pause;
  /// Timing metrics only). No-op without an open cycle. Must be called
  /// from a mutator at a turn boundary, never from inside a collection.
  void satbFlushHandshake();

  /// One bounded marker slice: drains sealed SATB segments into the
  /// frontier, then scans up to Config.MarkBudget objects (0 = a default
  /// quota, so quiescence stays prompt). Returns true if work remained
  /// when the budget ran out. Called only by the ConcurrentMarker
  /// thread, only between cycleOpened() and quiesce().
  bool concurrentMarkSlice();

  /// Marker slice quota when Config.MarkBudget is 0 ("unbounded"): the
  /// marker still bounds each slice so quiesce() latency stays prompt.
  static constexpr uint64_t DefaultMarkerSliceQuota = 4096;

  //===--------------------------------------------------------------===//
  // Parallel collection engine
  //===--------------------------------------------------------------===//

  /// Collections run in three phases so the post-collection heap state
  /// is bit-identical under any worker count:
  ///  1. parallel mark - workers race to CAS-claim object mark bytes
  ///     and mark lines atomically (both order-independent), while
  ///     copying decisions are only *recorded*;
  ///  2. serial evacuation - candidates are merged, sorted by (block
  ///     creation ordinal, in-block offset), and copied in that
  ///     canonical order, so forwarding addresses depend neither on
  ///     trace order nor on where the host placed the blocks;
  ///  3. parallel fixup - each worker rewrites the reference slots of
  ///     the objects it scanned (disjoint sets), then roots serially.

  /// Reconfigures the GC worker pool; 1 collects inline with no
  /// threads. Must not be called during a collection.
  void setGcThreads(unsigned Threads);
  unsigned gcThreads() const { return Config.GcThreads; }

  /// Test hook: invoked once per collection, by worker 0, at the start
  /// of the mark phase (other workers may already be tracing).
  void setMarkPhaseHook(std::function<void()> Hook) {
    MarkPhaseHook = std::move(Hook);
  }

  //===--------------------------------------------------------------===//
  // Multi-threaded mutators: lanes, safepoints, interrupt routing
  //===--------------------------------------------------------------===//

  /// Mutator work is organized into logical *lanes*: each lane owns a
  /// private TLAB (an ImmixAllocator) whose blocks are tagged with the
  /// lane, plus a failure mailbox. OS threads execute lane steps; the
  /// heap's evolution depends only on the lane schedule, never on the
  /// thread count, which is what keeps post-collection digests
  /// bit-identical across (mutator threads x GC workers).

  /// Configures \p Lanes mutator lanes (>= 1). Lane 0 is the default
  /// allocator every legacy single-mutator path already uses. Must not
  /// be called during a collection.
  void setMutatorLanes(unsigned Lanes);
  unsigned mutatorLanes() const { return MutatorLanes; }

  /// Selects the lane subsequent allocations bump from. Callers (the
  /// mutator pool's turnstile) guarantee exclusive heap access while a
  /// lane is active.
  void setActiveLane(unsigned Lane);
  unsigned activeLane() const { return ActiveLane; }

  /// The block lane \p Lane's small-object TLAB currently bumps into
  /// (nullptr between refills). Thread-targeted fault shapes aim here.
  Block *mutatorTlabBlock(unsigned Lane) const;

  /// The stop-the-world handshake coordinator. Mutator threads register
  /// themselves; collections stop registered peers before tracing.
  SafepointCoordinator &safepoints() { return Safepoints; }

  /// Routes a dynamic-failure batch by block ownership: addresses in
  /// blocks owned by the active lane are injected immediately, addresses
  /// owned by another lane land in that lane's mailbox (drained at its
  /// next turn), and orphaned addresses fall back to the deferred queue
  /// drained at the next end-of-collection safepoint. With a single lane
  /// this is exactly injectDynamicFailureBatch(Addrs, true).
  void routeDynamicFailureBatch(const std::vector<uint8_t *> &Addrs);

  /// Injects every address parked in \p Lane's mailbox. Must run at the
  /// start of the lane's turn. Returns the number of addresses injected.
  size_t drainLaneMailbox(unsigned Lane);
  size_t laneMailboxDepth(unsigned Lane) const;

  /// Mark-frontier bounds for the work-list chunking (see
  /// MarkWorkList): per-worker deques never exceed MarkMaxDequeChunks
  /// published chunks of MarkChunkItems objects; the excess spills to
  /// the drained-before-termination overflow list.
  static constexpr size_t MarkChunkItems = 128;
  static constexpr size_t MarkMaxDequeChunks = 64;

  /// Peak work-list occupancy of the most recent collection (the
  /// bounded-growth regression tests read these).
  struct MarkPhaseDebug {
    size_t DequePeakChunks = 0;
    size_t OverflowPeakChunks = 0;
  };
  const MarkPhaseDebug &lastMarkPhaseDebug() const { return MarkDebug; }

  //===--------------------------------------------------------------===//
  // Dynamic failures (Sections 3.2.2, 4.2)
  //===--------------------------------------------------------------===//

  /// Retires the Immix line containing \p Addr as a dynamic failure and
  /// runs the paper's recovery: mark the block for evacuation and invoke
  /// a full defragmenting collection. For a free-list heap this instead
  /// models the failure-unaware OS page copy.
  void injectDynamicFailureAt(uint8_t *Addr);

  /// Retires the PCM lines containing \p Addrs as one correlated failure
  /// event (a storm burst or a region wearing out together). With
  /// \p DeferRecovery, recovery follows the paper's "the hardware and OS
  /// handle these failures until the collector is ready": the lines are
  /// fenced off immediately, but the defragmenting collection is deferred
  /// to the next allocation slow path - unless the batch crosses the
  /// emergency-defragmentation threshold, which collects right away.
  void injectDynamicFailureBatch(const std::vector<uint8_t *> &Addrs,
                                 bool DeferRecovery = true);

  /// True while dynamically failed lines await their defragmenting
  /// collection (objects may still sit on failed lines until then).
  bool pendingFailureRecovery() const { return PendingFailureRecovery; }

  /// Relocates a large object hit by a dynamic failure, then fixes
  /// references with a full collection.
  void injectDynamicFailureOnLarge(ObjRef Obj);

  /// Binds the crash-consistency journal: dynamic failures, emergency
  /// page remaps, and pool transitions are write-ahead logged in budget
  /// (page, line) coordinates, and the failure paths gain kill points.
  void attachJournal(MetadataJournal *J) {
    Journal = J;
    Os_.attachJournal(J);
  }
  MetadataJournal *journal() const { return Journal; }

  //===--------------------------------------------------------------===//
  // Degradation ladder
  //===--------------------------------------------------------------===//

  /// The current degradation mode. Recomputed at collection boundaries,
  /// dynamic-failure batches and the fail-stop site - never per
  /// allocation - so it is a pure function of the deterministic heap
  /// evolution.
  DegradationMode degradationMode() const { return Degradation; }

  /// Recomputes the mode from live heap state (the cached mode may lag
  /// until the next refresh point; the auditor checks consistency rules
  /// rather than strict equality for exactly that reason).
  DegradationMode computeDegradationMode() const;

  /// Why the most recent allocate() returned nullptr without declaring
  /// the heap exhausted; AllocRefusal::None after a success or a genuine
  /// out-of-memory. Emergency-mode callers shed load on a refusal
  /// instead of treating it as a did-not-finish.
  AllocRefusal lastRefusal() const { return LastRefusal; }

  /// Bounded in-memory transition log (the journal holds the durable
  /// copy); Dropped counts transitions past the capacity.
  const std::vector<DegradationTransition> &degradationLog() const {
    return DegradationLog;
  }
  uint64_t degradationLogDropped() const { return DegradationLogDropped; }

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  bool outOfMemory() const { return OutOfMemory; }
  /// Why the heap gave up; None while it is still healthy.
  DnfReason dnfReason() const { return Dnf; }
  const HeapConfig &config() const { return Config; }
  const HeapStats &stats() const { return Stats; }
  const OsStats &osStats() const { return Os_.stats(); }
  const FailureAwareOs &os() const { return Os_; }
  const FailureLedger &failureLedger() const { return Ledger; }
  size_t pagesHeld() const;
  uint8_t epoch() const { return Epoch; }

  /// Wall-clock pause histories. These are *Timing-domain* quantities:
  /// they vary run to run with the host scheduler, so they must never
  /// feed deterministic stats, digests, or Deterministic-domain metrics.
  /// The obs mirror lives in the Timing domain ("gc.pause_full_us_total"
  /// / "gc.pause_nursery_us_total"), alongside HeapStats which stays
  /// purely deterministic.
  const std::vector<double> &fullGcPausesMs() const {
    return FullPausesMs;
  }
  const std::vector<double> &nurseryGcPausesMs() const {
    return NurseryPausesMs;
  }

  ImmixSpace *immixSpace() { return Immix.get(); }
  const ImmixSpace *immixSpace() const { return Immix.get(); }
  LargeObjectSpace &largeObjectSpace() { return Los; }
  const LargeObjectSpace &largeObjectSpace() const { return Los; }

  /// Verifies heap invariants via the cross-layer HeapAuditor and aborts
  /// with a diagnostic on the first violation (test-only; O(live set)).
  void verifyIntegrity() const;

private:
  friend class HeapAuditor;

  /// Per-worker mark-phase scratch: private counters plus the scanned /
  /// evacuation-candidate / pinned-remap-candidate lists, merged (in
  /// worker order) or processed (address-sorted) after the phase.
  struct MarkWorker {
    std::vector<ObjRef> Scanned;
    std::vector<ObjRef> EvacCandidates;
    std::vector<ObjRef> RemapCandidates;
    /// Concurrent mode: non-candidate claims whose line marking is
    /// deferred to the closing pause. Mid-cycle line marks would race
    /// the mutator allocators' lazily rebuilt availability caches;
    /// deferring is equivalence-preserving because the lane allocators
    /// honor the (Prev, Epoch) hole rule all cycle, exactly as if no
    /// mid-cycle marks existed (the stop-the-world baseline).
    std::vector<ObjRef> DeferredLineMarks;
    uint64_t ObjectsMarked = 0;
    uint64_t BytesTraced = 0;
#ifdef WEARMEM_EXPENSIVE_CHECKS
    std::vector<ObjRef> Claimed;
#endif
  };

  template <typename AllocFn>
  uint8_t *allocWithGcRetry(AllocFn Fn, bool WantPerfect = false);
  DnfReason classifyExhaustion(bool WantedPerfect) const;
  void updateDegradationMode();
  void runCollection(CollectionKind Kind);
  void markPhase(CollectionKind Kind);
  void evacuatePhase();
  void fixupPhase();
  void sweepPhase();
  /// Claims \p Target for the trace (chasing forwarding, CAS-marking,
  /// recording evacuation/remap candidacy) and queues it for scanning.
  /// Shared by the stop-the-world mark phase and the incremental steps.
  void claimEdge(ObjRef Target, unsigned Wk, bool Full,
                 MarkWorkList &WorkList);
  /// Scans a claimed object's reference slots through claimEdge.
  void scanMarked(ObjRef Obj, unsigned Wk, bool Full,
                  MarkWorkList &WorkList);
  void drainDeferredFailures();
#ifdef WEARMEM_EXPENSIVE_CHECKS
  void verifyMarkOracle(const std::vector<ObjRef> &LoggedSeeds);
#endif
  void markObjectLines(ObjRef Obj, size_t Size);
  bool overlapsFailedLine(Block *B, const uint8_t *Obj,
                          size_t Size) const;
  void emergencyPageRemap(Block *B, const uint8_t *Obj);
  void remapMarksOnWrap(uint8_t Prev);

  HeapConfig Config;
  HeapStats Stats;
  FailureAwareOs Os_;
  MetadataJournal *Journal = nullptr;

  /// The lane allocator for \p Lane (lane 0 is *Allocator).
  ImmixAllocator &laneAllocator(unsigned Lane);
  /// Applies \p Fn to every mutator-lane allocator.
  void forEachLaneAllocator(const std::function<void(ImmixAllocator &)> &Fn);

  std::unique_ptr<ImmixSpace> Immix;
  std::unique_ptr<ImmixAllocator> Allocator;
  /// TLAB allocators for lanes 1..MutatorLanes-1 (lane 0 = Allocator).
  std::vector<std::unique_ptr<ImmixAllocator>> ExtraLaneAllocators;
  std::unique_ptr<ImmixAllocator> EvacAllocator;
  std::unique_ptr<FreeListSpace> FreeList;
  LargeObjectSpace Los;

  std::vector<ObjRef> Roots;
  std::vector<unsigned> FreeRootSlots;

  /// Sticky write-barrier log: old objects whose fields were mutated.
  std::vector<ObjRef> ModBuf;

  /// State of the open incremental mark cycle (null = no cycle open).
  struct IncrementalCycle {
    /// The cycle-long work list; survives across increments so a spent
    /// budget just leaves the frontier queued.
    std::unique_ptr<MarkWorkList> WorkList;
    /// Objects allocated black during the cycle: never scanned (their
    /// fields were written through the barrier), but routed through the
    /// closing fixup so evacuations rewrite their slots.
    std::vector<ObjRef> NewObjects;
  };
  std::unique_ptr<IncrementalCycle> IncCycle;
  /// SATB deletion log, fed by writeRef/setRoot while IncCycle is open
  /// (per-lane buffers; the active lane's thread is the only pusher).
  SatbLog Satb;
  /// The dedicated marker thread (MarkPacing::Concurrent; created lazily
  /// on the first concurrent cycle, joined by ~Heap).
  std::unique_ptr<ConcurrentMarker> Marker;
  /// True between arming the marker at a cycle open and quiescing it at
  /// the close: claimEdge defers line marking onto DeferredLineMarks.
  /// Written by the open/close code with the marker parked on both
  /// sides of each transition, so the marker's reads never race.
  bool MarkerDeferLines = false;
  /// SATB entries the marker drained this cycle; merged into
  /// Stats.SatbDrained at the close, after the quiesce (the marker must
  /// not write Stats fields the mutator reads mid-run).
  uint64_t MarkerSatbDrained = 0;
  /// Retires up to Budget entries from the per-worker DeferredLineMarks
  /// lists (all of them by default). Caller must own the mark state:
  /// the marker is quiesced (or never ran) and the world is stopped or
  /// single-threaded. The flush handshakes call this with
  /// FlushLineMarkBudget to amortize the O(live) line-mark bill across
  /// the cycle without letting any single handshake balloon; the
  /// closing pause drains whatever remains.
  void applyDeferredLineMarks(size_t Budget = SIZE_MAX);
  /// Per-handshake cap on deferred line marks applied: ~8k marks is a
  /// few hundred microseconds, well under the incremental pause bound,
  /// while a storm's worth of handshakes retires the whole live set.
  static constexpr size_t FlushLineMarkBudget = 8192;

  /// The GC worker pool (absent when GcThreads <= 1: phases run inline).
  std::unique_ptr<GcWorkerPool> Workers;
  std::vector<MarkWorker> MarkWorkers;
  MarkPhaseDebug MarkDebug;
  std::function<void()> MarkPhaseHook;

  /// Mark-phase safepoint deferral for dynamic-failure interrupts:
  /// failing a line while workers trace would race the atomic line
  /// marking (and could unfence pages mid-phase), so batches arriving
  /// while InMarkPhase are parked here and drained - never lost - when
  /// the collection reaches its end-of-cycle safepoint.
  std::atomic<bool> InMarkPhase{false};
  std::mutex DeferredFailureMu;
  std::vector<uint8_t *> DeferredFailures;

  FailureLedger Ledger;

  /// Stop-the-world handshake state for registered mutator threads.
  SafepointCoordinator Safepoints;
  unsigned MutatorLanes = 1;
  unsigned ActiveLane = 0;
  /// Per-lane parked failure addresses, delivered at the owning lane's
  /// next turn. Guarded by MailboxMu (the fault campaign fires from
  /// whichever thread holds the turn; the drain runs on another).
  mutable std::mutex MailboxMu;
  std::vector<std::vector<uint8_t *>> LaneMailboxes;

  uint8_t Epoch = 1;
  unsigned NurseryGcsSinceFull = 0;
  /// Dynamically failed lines since the last collection (emergency
  /// defragmentation trigger).
  unsigned DynamicFailedSinceGc = 0;
  bool OutOfMemory = false;
  DnfReason Dnf = DnfReason::None;
  /// Degradation-ladder state (see degradationMode()).
  static constexpr size_t DegradationLogCapacity = 64;
  DegradationMode Degradation = DegradationMode::Normal;
  AllocRefusal LastRefusal = AllocRefusal::None;
  std::vector<DegradationTransition> DegradationLog;
  uint64_t DegradationLogDropped = 0;
  bool PendingFailureRecovery = false;
  bool InCollection = false;
  /// Nursery survivors are opportunistically copied (Sticky Immix).
  bool CopyNurserySurvivors = true;
  double LastYield = 1.0;

  std::vector<double> FullPausesMs;
  std::vector<double> NurseryPausesMs;
  std::vector<std::pair<uintptr_t, size_t>> DebugCopies;
};

} // namespace wearmem

#endif // WEARMEM_GC_HEAP_H
