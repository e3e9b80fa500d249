//===- workload/Storm.cpp - Shared SATB write-storm workload --------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "workload/Storm.h"

#include "gc/HeapAuditor.h"

using namespace wearmem;

HeapConfig wearmem::stormConfig(MarkPacing Pacing, unsigned GcThreads,
                                unsigned MarkBudget) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (32 * MiB) / PcmPageSize;
  Config.GcThreads = GcThreads;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = 7;
  Config.DefragFreeFraction = 0.35;
  Config.Pacing = Pacing;
  Config.MarkBudget = MarkBudget;
  return Config;
}

HeapConfig wearmem::stormPauseConfig(MarkPacing Pacing,
                                     unsigned MarkBudget) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (48 * MiB) / PcmPageSize;
  Config.GcThreads = StormPauseWorkers;
  Config.Pacing = Pacing;
  Config.MarkBudget = MarkBudget;
  return Config;
}

std::vector<unsigned> wearmem::buildLists(Heap &Hp, unsigned NumLists,
                                          unsigned ListLen, uint64_t Seed) {
  std::vector<unsigned> Heads;
  for (unsigned L = 0; L != NumLists; ++L) {
    unsigned HeadRoot = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != ListLen; ++I) {
      ObjRef Node = Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/2);
      if (!Node)
        break;
      *reinterpret_cast<uint64_t *>(objectPayload(Node)) =
          Seed ^ ((uint64_t(L) << 32) | I);
      if (I % 4 == 0) {
        ObjRef Sat = Hp.allocate(/*PayloadBytes=*/32, /*NumRefs=*/0);
        if (Sat) {
          *reinterpret_cast<uint64_t *>(objectPayload(Sat)) =
              Seed ^ (0x5A7ull << 32 | (uint64_t(L) << 16) | I);
          Hp.writeRef(Node, 1, Sat);
        }
      }
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(HeadRoot, Node);
    }
    Heads.push_back(HeadRoot);
  }
  return Heads;
}

static ObjRef walk(ObjRef Node, unsigned Steps) {
  for (unsigned I = 0; I != Steps && Node; ++I) {
    ObjRef Next = Heap::readRef(Node, 0);
    if (!Next)
      break;
    Node = Next;
  }
  return Node;
}

void wearmem::mutationOp(Heap &Hp, const std::vector<unsigned> &Heads,
                         uint64_t I) {
  uint64_t H = (I + 1) * 0x9E3779B97F4A7C15ull;
  unsigned L1 = static_cast<unsigned>((H >> 8) % Heads.size());
  unsigned L2 = static_cast<unsigned>((H >> 24) % Heads.size());
  if ((H & 7) == 0) {
    // Rewriting a root with its own value logs the overwritten
    // reference without changing the graph.
    Hp.setRoot(Heads[L1], Hp.root(Heads[L1]));
    return;
  }
  ObjRef A = walk(Hp.root(Heads[L1]), static_cast<unsigned>((H >> 40) % 37));
  ObjRef B = walk(Hp.root(Heads[L2]), static_cast<unsigned>((H >> 48) % 37));
  if (!A || !B || A == B)
    return;
  ObjRef Ta = Heap::readRef(A, 1);
  ObjRef Tb = Heap::readRef(B, 1);
  Hp.writeRef(A, 1, Tb); // Ta now lives only in the deletion log...
  Hp.writeRef(B, 1, Ta); // ...until it resurfaces here.
}

void wearmem::paceCycle(Heap &Hp, MarkPacing Pacing) {
  if (Pacing == MarkPacing::Incremental)
    Hp.incrementalMarkStep();
  else if (Pacing == MarkPacing::Concurrent)
    Hp.satbFlushHandshake();
}

StormResult wearmem::runStormLeg(MarkPacing Pacing, unsigned GcThreads,
                                 unsigned MarkBudget, uint64_t Seed,
                                 double Scale, bool MidCycleFailure) {
  constexpr unsigned StormBatches = 40;
  constexpr unsigned OpsPerBatch = 50;
  const bool Marking = Pacing != MarkPacing::StopTheWorld;
  StormResult R;
  Heap Hp(stormConfig(Pacing, GcThreads, MarkBudget));
  std::vector<unsigned> Heads =
      buildLists(Hp, 4, static_cast<unsigned>(2500 * Scale), Seed);
  // A pinned fail target: never moves, keeps its block held, so the
  // fence lands on the same address in every leg.
  ObjRef Pinned = Hp.allocate(64, 0, /*Pinned=*/true);
  Hp.createRoot(Pinned);
  R.BuiltClean = Pinned && !Hp.outOfMemory();
  MidCycleFailure = MidCycleFailure && Pinned;

  if (Marking)
    R.CycleOpened = Hp.beginIncrementalMarkCycle();
  for (unsigned Batch = 0; Batch != StormBatches; ++Batch) {
    for (unsigned I = 0; I != OpsPerBatch; ++I)
      mutationOp(Hp, Heads, uint64_t(Batch) * OpsPerBatch + I);
    if (MidCycleFailure && Marking && Batch == StormBatches / 2) {
      // The whole cycle is a mark phase: the failure must park, not
      // fence lines under the tracer's feet.
      uint64_t DeferredBefore = Hp.stats().MarkPhaseDeferredInterrupts;
      Hp.injectDynamicFailureBatch({Pinned});
      R.MidCycleDeferred =
          Hp.stats().MarkPhaseDeferredInterrupts - DeferredBefore;
      R.MidCycleFailedLines = Hp.stats().FailedLinesDynamic;
    }
    paceCycle(Hp, Pacing);
  }
  if (Marking) {
    Hp.finishIncrementalMarkCycle(); // Drains the parked failure after.
    R.CycleClosed = !Hp.incrementalCycleOpen();
  } else {
    Hp.collect(CollectionKind::Full);
    if (MidCycleFailure)
      Hp.injectDynamicFailureBatch({Pinned});
  }
  Hp.collect(CollectionKind::Full); // Settle.

  HeapAuditor Auditor(Hp);
  R.AuditPassed = Auditor.audit().passed();
  R.Digest = Auditor.digest(/*HashPayload=*/true);
  const HeapStats &S = Hp.stats();
  R.GcCount = S.GcCount;
  R.FullGcCount = S.FullGcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.BytesAllocated = S.BytesAllocated;
  R.ObjectsMarked = S.ObjectsMarked;
  R.BytesTraced = S.BytesTraced;
  R.ObjectsEvacuated = S.ObjectsEvacuated;
  R.FailedLinesDynamic = S.FailedLinesDynamic;
  R.PinnedFailurePageRemaps = S.PinnedFailurePageRemaps;
  R.MarkIncrements = S.MarkIncrements;
  R.SatbLogged = S.SatbLogged;
  R.SatbDrained = S.SatbDrained;
  return R;
}

std::string wearmem::stormMismatch(const StormResult &A,
                                   const StormResult &B) {
  std::string Out;
  auto Check = [&](const char *Name, uint64_t X, uint64_t Y) {
    if (X != Y)
      Out += std::string(Out.empty() ? "" : ", ") + Name + " " +
             std::to_string(X) + " vs " + std::to_string(Y);
  };
  Check("digest", A.Digest, B.Digest);
  Check("gc_count", A.GcCount, B.GcCount);
  Check("full_gc_count", A.FullGcCount, B.FullGcCount);
  Check("objects_allocated", A.ObjectsAllocated, B.ObjectsAllocated);
  Check("bytes_allocated", A.BytesAllocated, B.BytesAllocated);
  Check("objects_marked", A.ObjectsMarked, B.ObjectsMarked);
  Check("bytes_traced", A.BytesTraced, B.BytesTraced);
  Check("objects_evacuated", A.ObjectsEvacuated, B.ObjectsEvacuated);
  Check("failed_lines_dynamic", A.FailedLinesDynamic, B.FailedLinesDynamic);
  Check("pinned_page_remaps", A.PinnedFailurePageRemaps,
        B.PinnedFailurePageRemaps);
  return Out;
}
