//===- tests/IncrementalMarkTest.cpp - Incremental SATB marking tests -----===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The incremental marking contract: a cycle of fixed-budget mark steps
// interleaved with reference-store mutation ends in a heap bit-identical
// to a stop-the-world full collection at the same point in the mutation
// history - across GC worker counts, across budgets, and with dynamic
// failures landing mid-cycle (parked, drained after the close).
//
//===----------------------------------------------------------------------===//

#include "StormChecks.h"

#include "gc/HeapAuditor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace wearmem;

namespace {

/// Legs of one pacing also share the cycle internals: with the step
/// schedule fixed, increments and the SATB ledger are pure functions of
/// the mutation history.
void expectIncLegsEqual(const StormResult &A, const StormResult &B,
                        const char *What) {
  EXPECT_EQ(stormMismatch(A, B), "") << What;
  EXPECT_EQ(A.MarkIncrements, B.MarkIncrements) << What;
  EXPECT_EQ(A.SatbLogged, B.SatbLogged) << What;
  EXPECT_EQ(A.SatbDrained, B.SatbDrained) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Gating and lifecycle
//===----------------------------------------------------------------------===//

TEST(IncrementalMarkTest, RequiresConfigAndRejectsNestedCycles) {
  {
    Heap Hp(stormConfig(MarkPacing::StopTheWorld, 1, 256));
    EXPECT_FALSE(Hp.beginIncrementalMarkCycle())
        << "stop-the-world pacing must refuse to open a cycle";
    EXPECT_FALSE(Hp.incrementalMarkStep());
    Hp.finishIncrementalMarkCycle(); // No-op, must not crash.
  }
  Heap Hp(stormConfig(MarkPacing::Incremental, 1, 256));
  buildLists(Hp, 1, 100);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  EXPECT_FALSE(Hp.beginIncrementalMarkCycle()) << "no nested cycles";
  EXPECT_TRUE(Hp.incrementalCycleOpen());
  // An explicit collection demand closes the open cycle.
  Hp.collect(CollectionKind::Full);
  EXPECT_FALSE(Hp.incrementalCycleOpen());
  EXPECT_EQ(Hp.stats().IncrementalCyclesOpened, 1u);
  EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 1u);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

TEST(IncrementalMarkTest, AllocationDuringCycleSurvivesTheClose) {
  Heap Hp(stormConfig(MarkPacing::Incremental, 1, 256));
  std::vector<unsigned> Heads = buildLists(Hp, 2, 500);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  // Births during the cycle are allocated black: kept by the closing
  // sweep even though the snapshot never reached them, and their slots
  // are fixed up when their referents get evacuated.
  unsigned NewRoot = Hp.createRoot(nullptr);
  for (unsigned I = 0; I != 300; ++I) {
    ObjRef Node = Hp.allocate(40, 1);
    ASSERT_NE(Node, nullptr);
    *reinterpret_cast<uint64_t *>(objectPayload(Node)) = 0xB1A0000 + I;
    if (ObjRef Head = Hp.root(NewRoot))
      Hp.writeRef(Node, 0, Head);
    Hp.setRoot(NewRoot, Node);
    if (I % 50 == 25)
      Hp.incrementalMarkStep();
  }
  ObjRef Large = Hp.allocate(16 * 1024, 0);
  ASSERT_NE(Large, nullptr);
  std::memset(objectPayload(Large), 0x5A, 16 * 1024);
  unsigned LargeRoot = Hp.createRoot(Large);
  Hp.finishIncrementalMarkCycle();
  // Every in-cycle birth is intact after the close.
  ObjRef Node = Hp.root(NewRoot);
  for (unsigned I = 0; I != 300; ++I) {
    ASSERT_NE(Node, nullptr);
    EXPECT_EQ(*reinterpret_cast<uint64_t *>(objectPayload(Node)),
              0xB1A0000 + (299 - I));
    Node = Heap::readRef(Node, 0);
  }
  uint8_t *P = objectPayload(Hp.root(LargeRoot));
  for (unsigned I = 0; I != 16 * 1024; ++I)
    ASSERT_EQ(P[I], 0x5A);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

//===----------------------------------------------------------------------===//
// Equivalence with stop-the-world marking
//===----------------------------------------------------------------------===//

TEST(IncrementalMarkTest, MatchesStopTheWorldAcrossWorkerCounts) {
  StormResult Stw = expectStormLeg(MarkPacing::StopTheWorld, 1, 256);
  StormResult IncSerial = expectStormLeg(MarkPacing::Incremental, 1, 256);
  // The storm preserves the live set, so even the trace and evacuation
  // work must match the stop-the-world leg exactly.
  EXPECT_EQ(stormMismatch(IncSerial, Stw), "")
      << "incremental(1 worker) vs STW";
  EXPECT_GT(IncSerial.SatbLogged, 0u) << "storm must exercise the barrier";
  EXPECT_EQ(IncSerial.SatbDrained, IncSerial.SatbLogged)
      << "every logged deletion must eventually drain";
  // The last leg runs more GC workers than cores: budgeted steps then
  // end with workers preempted inside the quota protocol, which must
  // neither strand the idle spinners nor change the heap.
  for (unsigned Threads : {2u, 4u, 8u, oversubscribedWorkers()}) {
    StormResult Inc = expectStormLeg(MarkPacing::Incremental, Threads, 256);
    expectIncLegsEqual(Inc, IncSerial, "worker-count divergence");
    EXPECT_EQ(stormMismatch(Inc, Stw), "") << "incremental(N workers) vs STW";
  }
}

TEST(IncrementalMarkTest, FinalHeapIsIndependentOfMarkBudget) {
  StormResult Base = expectStormLeg(MarkPacing::Incremental, 2, 256);
  for (unsigned Budget : {0u, 64u, 4096u}) {
    StormResult R = expectStormLeg(MarkPacing::Incremental, 2, Budget);
    expectIncLegsEqual(R, Base, "budget changed the outcome");
  }
  // Rerun determinism at a fixed configuration.
  StormResult Again = expectStormLeg(MarkPacing::Incremental, 2, 256);
  expectIncLegsEqual(Again, Base, "rerun divergence");
}

TEST(IncrementalMarkTest, MidCycleDynamicFailureParksUntilTheClose) {
  StormResult Stw = expectStormLeg(MarkPacing::StopTheWorld, 1, 256,
                                   /*MidCycleFailure=*/true);
  EXPECT_EQ(Stw.FailedLinesDynamic, 1u);
  for (unsigned Threads : {1u, 4u}) {
    StormResult Inc = expectStormLeg(MarkPacing::Incremental, Threads, 256,
                                     /*MidCycleFailure=*/true);
    EXPECT_EQ(stormMismatch(Inc, Stw), "") << "mid-cycle failure leg vs STW";
  }
}

TEST(IncrementalMarkTest, MidCycleAuditToleratesDeferredLineMarks) {
  // While a cycle is open, evacuation candidates are claimed at the new
  // epoch with their old lines deliberately unmarked until the closing
  // pause decides copy versus re-mark. A cross-layer audit taken
  // between increments (the soak tool audits on its own cadence, which
  // lands inside open cycles) must read that as the mark-phase
  // transient it is, not as a mark/line-mark inconsistency.
  Heap Hp(stormConfig(MarkPacing::Incremental, /*GcThreads=*/1, 256));
  std::vector<unsigned> Heads = buildLists(Hp, 4, 800);
  // Fragment the heap so the cycle open selects defrag candidates:
  // drop half the lists, then collect so the sweep records the holes.
  Hp.setRoot(Heads[1], nullptr);
  Hp.setRoot(Heads[3], nullptr);
  Hp.collect(CollectionKind::Full);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  bool More = true;
  while (More) {
    More = Hp.incrementalMarkStep();
    HeapAuditor Auditor(Hp);
    AuditReport Report = Auditor.audit();
    ASSERT_TRUE(Report.passed())
        << "mid-cycle audit: " << Report.Violations.front();
  }
  Hp.finishIncrementalMarkCycle();
  EXPECT_TRUE(HeapAuditor(Hp).audit().passed());
}

TEST(IncrementalMarkTest, DrainedFailureOnStaleLineKeepsSuccessorLive) {
  // The parked batch drains right after the close, when sweep has left
  // dead lines' mark bytes stale. The conservative spill transfer must
  // not copy such a stale mark over the following line: the successor
  // here is live at the current epoch, and the downgrade would hand its
  // line to the hole scan (the auditor sees it as a mark/line-mark
  // mismatch first).
  HeapConfig Config =
      stormConfig(MarkPacing::Incremental, /*GcThreads=*/1, 256);
  Config.Failures.Rate = 0.0; // Fresh block: adjacency is deterministic.
  Heap Hp(Config);
  const uint32_t OneLine =
      static_cast<uint32_t>(Config.LineSize - ObjectHeaderBytes);
  // Two adjacent one-line objects, pinned so neither ever moves.
  ObjRef A = Hp.allocate(OneLine, 0, /*Pinned=*/true);
  ObjRef B = Hp.allocate(OneLine, 0, /*Pinned=*/true);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(B, A + Config.LineSize) << "bump allocation not adjacent";
  unsigned RootA = Hp.createRoot(A);
  unsigned RootB = Hp.createRoot(B);
  std::memset(objectPayload(B), 0x6B, OneLine);
  Hp.collect(CollectionKind::Full); // Both lines marked at this epoch.
  // Kill A; the next full trace skips its line, so sweep frees it but
  // the mark byte keeps the previous epoch - the stale dying line.
  uint8_t *DyingLine = A;
  Hp.releaseRoot(RootA);
  Hp.collect(CollectionKind::Full);

  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  Hp.injectDynamicFailureBatch({DyingLine}); // Parks: the cycle is a
                                             // mark phase throughout.
  while (Hp.incrementalMarkStep())
    ;
  Hp.finishIncrementalMarkCycle(); // Drain fences the stale line.
  EXPECT_EQ(Hp.stats().FailedLinesDynamic, 1u);

  // B on the successor line must still be live at the current epoch.
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
  uint8_t *P = objectPayload(Hp.root(RootB));
  for (uint32_t I = 0; I != OneLine; ++I)
    ASSERT_EQ(P[I], 0x6B);
  Hp.collect(CollectionKind::Full);
  EXPECT_TRUE(HeapAuditor(Hp).audit().passed());
  EXPECT_NE(Hp.root(RootB), nullptr);
}
