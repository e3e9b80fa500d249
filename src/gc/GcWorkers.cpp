//===- gc/GcWorkers.cpp - GC worker pool and mark work list ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "gc/GcWorkers.h"

#include "obs/Hooks.h"

#include <algorithm>
#include <cassert>

using namespace wearmem;

//===----------------------------------------------------------------------===//
// GcWorkerPool
//===----------------------------------------------------------------------===//

GcWorkerPool::GcWorkerPool(unsigned Workers)
    : NumWorkers(std::max(1u, Workers)) {
  Threads.reserve(NumWorkers - 1);
  for (unsigned Id = 1; Id < NumWorkers; ++Id)
    Threads.emplace_back([this, Id] { threadMain(Id); });
}

GcWorkerPool::~GcWorkerPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void GcWorkerPool::runOnAll(const std::function<void(unsigned)> &Fn) {
  if (NumWorkers <= 1) {
    Fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Outstanding == 0 && "overlapping runOnAll calls");
    Job = &Fn;
    ++JobGeneration;
    Outstanding = NumWorkers - 1;
  }
  WorkCv.notify_all();
  Fn(0);
  {
    std::unique_lock<std::mutex> Lock(Mu);
    DoneCv.wait(Lock, [this] { return Outstanding == 0; });
    Job = nullptr;
  }
}

void GcWorkerPool::parallelChunks(size_t Count,
                                  const std::function<void(size_t)> &Fn) {
  if (NumWorkers <= 1 || Count <= 1) {
    for (size_t I = 0; I != Count; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Cursor{0};
  std::function<void(unsigned)> Worker = [&](unsigned) {
    for (size_t I = Cursor.fetch_add(1, std::memory_order_relaxed);
         I < Count; I = Cursor.fetch_add(1, std::memory_order_relaxed))
      Fn(I);
  };
  runOnAll(Worker);
}

void GcWorkerPool::threadMain(unsigned Id) {
  uint64_t SeenGeneration = 0;
  for (;;) {
    const std::function<void(unsigned)> *MyJob;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WorkCv.wait(Lock, [&] {
        return Stopping || JobGeneration != SeenGeneration;
      });
      if (Stopping)
        return;
      SeenGeneration = JobGeneration;
      MyJob = Job;
    }
    (*MyJob)(Id);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (--Outstanding == 0)
        DoneCv.notify_all();
    }
  }
}

//===----------------------------------------------------------------------===//
// MarkWorkList
//===----------------------------------------------------------------------===//

MarkWorkList::MarkWorkList(unsigned NumWorkers, size_t ChunkItems,
                           size_t MaxDequeChunks)
    : NumWorkers(std::max(1u, NumWorkers)), ChunkItems(ChunkItems),
      MaxDequeChunks(MaxDequeChunks) {
  W.reserve(this->NumWorkers);
  for (unsigned I = 0; I != this->NumWorkers; ++I) {
    W.push_back(std::make_unique<WorkerState>());
    W.back()->Local.reserve(2 * ChunkItems);
    // Stagger steal order so thieves don't all hammer worker 0 first.
    W.back()->NextVictim = (I + 1) % this->NumWorkers;
  }
}

void MarkWorkList::seed(unsigned Worker, Item Obj) {
  WorkerState &S = *W[Worker];
  if (S.Chunks.empty() || S.Chunks.back().size() >= ChunkItems) {
    S.Chunks.emplace_back();
    S.Chunks.back().reserve(ChunkItems);
  }
  S.Chunks.back().push_back(Obj);
  S.ChunkCount.store(S.Chunks.size(), std::memory_order_relaxed);
  S.PeakChunks = std::max(S.PeakChunks, S.Chunks.size());
}

void MarkWorkList::push(unsigned Worker, Item Obj) {
  WorkerState &S = *W[Worker];
  S.Local.push_back(Obj);
  if (S.Local.size() >= 2 * ChunkItems) {
    // Carve the *oldest* half into a published chunk: thieves get the
    // shallow (wide) end of the frontier, the owner keeps depth-first
    // locality on the recent end.
    std::vector<Item> Chunk(S.Local.begin(), S.Local.begin() + ChunkItems);
    S.Local.erase(S.Local.begin(), S.Local.begin() + ChunkItems);
    publish(Worker, std::move(Chunk));
  }
}

void MarkWorkList::publish(unsigned Worker, std::vector<Item> Chunk) {
  WorkerState &S = *W[Worker];
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.Chunks.size() < MaxDequeChunks) {
      S.Chunks.push_back(std::move(Chunk));
      S.ChunkCount.store(S.Chunks.size(), std::memory_order_relaxed);
      S.PeakChunks = std::max(S.PeakChunks, S.Chunks.size());
      return;
    }
  }
  std::lock_guard<std::mutex> Lock(OverflowMu);
  Overflow.push_back(std::move(Chunk));
  OverflowCount.store(Overflow.size(), std::memory_order_relaxed);
  OverflowPeak = std::max(OverflowPeak, Overflow.size());
  // Which chunks spill depends on thread scheduling: Timing domain only.
  WEARMEM_COUNT_TIMING("gc.mark.overflow_spills");
}

bool MarkWorkList::debitQuota() {
  int64_t Q = Quota.load(std::memory_order_acquire);
  while (Q > 0)
    if (Quota.compare_exchange_weak(Q, Q - 1, std::memory_order_acq_rel))
      return true;
  return false;
}

void MarkWorkList::refundQuota() {
  int64_t Q = Quota.load(std::memory_order_acquire);
  while (Q > 0)
    if (Quota.compare_exchange_weak(Q, Q + 1, std::memory_order_acq_rel))
      return;
}

bool MarkWorkList::pop(unsigned Worker, Item &Out) {
  // Budgeted increments debit the quota up front and refund on failure,
  // so successful pops match debits exactly: an increment scans
  // min(quota, available work) under any worker schedule. Unbudgeted
  // phases never arm the quota and pay one relaxed load.
  bool Debited = Quota.load(std::memory_order_relaxed) != Unlimited;
  if (Debited && !debitQuota())
    return false;
  WorkerState &S = *W[Worker];
  if (!S.Local.empty()) {
    Out = S.Local.back();
    S.Local.pop_back();
    return true;
  }
  if (!refill(Worker)) {
    // Refund the held debit - unless the quota reads spent, in which
    // case refill bailed on the quota escape and the refund would
    // revive a quota that other workers already observed as spent and
    // exited on (debit-failed workers never count toward NumIdle, so
    // the all-idle termination path is closed; a revived quota would
    // strand the remaining spinners). The dropped debit only means
    // this increment scans slightly under budget; the shortfall stays
    // queued for the next one.
    if (Debited)
      refundQuota();
    return false;
  }
  Out = S.Local.back();
  S.Local.pop_back();
  return true;
}

bool MarkWorkList::tryPop(unsigned Worker, Item &Out) {
  WorkerState &S = *W[Worker];
  if (S.Local.empty()) {
    std::vector<Item> Chunk;
    if (!takeOwn(Worker, Chunk) && !takeStolen(Worker, Chunk) &&
        !takeOverflow(Chunk))
      return false;
    S.Local = std::move(Chunk);
  }
  Out = S.Local.back();
  S.Local.pop_back();
  return true;
}

bool MarkWorkList::takeOwn(unsigned Worker, std::vector<Item> &Out) {
  WorkerState &S = *W[Worker];
  if (S.ChunkCount.load(std::memory_order_relaxed) == 0)
    return false;
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Chunks.empty())
    return false;
  Out = std::move(S.Chunks.back());
  S.Chunks.pop_back();
  S.ChunkCount.store(S.Chunks.size(), std::memory_order_relaxed);
  return true;
}

bool MarkWorkList::takeStolen(unsigned Worker, std::vector<Item> &Out) {
  WorkerState &S = *W[Worker];
  for (unsigned Tried = 0; Tried != NumWorkers; ++Tried) {
    unsigned Victim = S.NextVictim;
    S.NextVictim = (S.NextVictim + 1) % NumWorkers;
    if (Victim == Worker)
      continue;
    WorkerState &V = *W[Victim];
    if (V.ChunkCount.load(std::memory_order_relaxed) == 0)
      continue;
    std::lock_guard<std::mutex> Lock(V.Mu);
    if (V.Chunks.empty())
      continue;
    // Steal from the front (the victim pops its own back).
    Out = std::move(V.Chunks.front());
    V.Chunks.pop_front();
    V.ChunkCount.store(V.Chunks.size(), std::memory_order_relaxed);
    // Steal counts vary run to run with scheduling: Timing domain only.
    WEARMEM_COUNT_TIMING("gc.mark.steals");
    return true;
  }
  return false;
}

bool MarkWorkList::takeOverflow(std::vector<Item> &Out) {
  if (OverflowCount.load(std::memory_order_relaxed) == 0)
    return false;
  std::lock_guard<std::mutex> Lock(OverflowMu);
  if (Overflow.empty())
    return false;
  Out = std::move(Overflow.back());
  Overflow.pop_back();
  OverflowCount.store(Overflow.size(), std::memory_order_relaxed);
  return true;
}

bool MarkWorkList::anyWorkVisible() const {
  for (const auto &S : W)
    if (S->ChunkCount.load(std::memory_order_acquire) != 0)
      return true;
  return OverflowCount.load(std::memory_order_acquire) != 0;
}

bool MarkWorkList::refill(unsigned Worker) {
  WorkerState &S = *W[Worker];
  for (;;) {
    std::vector<Item> Chunk;
    if (takeOwn(Worker, Chunk) || takeStolen(Worker, Chunk) ||
        takeOverflow(Chunk)) {
      S.Local = std::move(Chunk);
      return true;
    }
    if (Done.load(std::memory_order_acquire))
      return false;
    // Nothing anywhere: go idle. A worker reaches this point only with
    // an empty Local and after failing to take from every deque and the
    // overflow list - and since a worker drains its own publications
    // before idling and idle workers never publish, "everyone idle and
    // nothing visible" is a stable termination condition.
    NumIdle.fetch_add(1, std::memory_order_acq_rel);
    for (;;) {
      if (Done.load(std::memory_order_acquire))
        return false;
      // A spent quota ends the increment for spinners too: the workers
      // holding the last debits drain their own publications before
      // idling, so leaving here never strands work. (NumIdle stays
      // incremented; reopen() resets it between increments.)
      if (Quota.load(std::memory_order_acquire) == 0)
        return false;
      if (anyWorkVisible()) {
        NumIdle.fetch_sub(1, std::memory_order_acq_rel);
        break; // Back to taking.
      }
      if (NumIdle.load(std::memory_order_acquire) == NumWorkers &&
          !anyWorkVisible()) {
        Done.store(true, std::memory_order_release);
        return false;
      }
      std::this_thread::yield();
    }
  }
}

size_t MarkWorkList::dequePeakChunks() const {
  size_t Peak = 0;
  for (const auto &S : W)
    Peak = std::max(Peak, S->PeakChunks);
  return Peak;
}
