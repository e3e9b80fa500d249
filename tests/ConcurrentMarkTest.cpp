//===- tests/ConcurrentMarkTest.cpp - Concurrent SATB marking tests -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The mostly-concurrent marking contract: a cycle drained by the
// dedicated marker thread, racing a reference-store mutation storm and
// paced only by flush handshakes, ends in a heap bit-identical to both
// the interleaved incremental mode and a stop-the-world full collection
// at the same point in the mutation history - across GC worker counts,
// across marker slice quotas, across mutator thread counts, and with
// dynamic failures landing while the marker is running.
//
// The timing side (pause bound, mutator-attributed mark time) is the
// perf05 gate's job; this file pins semantics only, so it stays
// meaningful under TSan.
//
//===----------------------------------------------------------------------===//

#include "StormChecks.h"

#include "gc/HeapAuditor.h"
#include "workload/MutatorPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

using namespace wearmem;

namespace {

/// The marking pacings additionally share the SATB ledger: the barrier
/// logs unconditionally while a cycle is open, so with identical
/// open/close points the log is the same whether steps or the marker
/// thread drain it. MarkIncrements is deliberately excluded - it counts
/// mutator-side steps, which the concurrent pacing has none of.
///
/// Determinism scoping: the marker's *schedule* is free-running, but
/// every deterministic observable - the heap digest, the allocation and
/// collection counters, the trace totals merged in worker order at the
/// close, and the SATB ledger (logged at the barrier, drained exactly
/// once) - is a pure function of the mutation history and the
/// open/close points, which the storm pins to identical batch
/// boundaries under every pacing.
void expectMarkingLegsEqual(const StormResult &A, const StormResult &B,
                            const char *What) {
  EXPECT_EQ(stormMismatch(A, B), "") << What;
  EXPECT_EQ(A.SatbLogged, B.SatbLogged) << What;
  EXPECT_EQ(A.SatbDrained, B.SatbDrained) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle and gating
//===----------------------------------------------------------------------===//

TEST(ConcurrentMarkTest, LifecycleArmsAndQuiescesTheMarker) {
  Heap Hp(stormConfig(MarkPacing::Concurrent, /*GcThreads=*/2, 256));
  buildLists(Hp, 1, 200);
  // No cycle open: a flush handshake is a no-op, not a crash.
  Hp.satbFlushHandshake();
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  EXPECT_FALSE(Hp.beginIncrementalMarkCycle()) << "no nested cycles";
  EXPECT_TRUE(Hp.incrementalCycleOpen());
  Hp.satbFlushHandshake();
  // An explicit collection demand quiesces the marker and closes.
  Hp.collect(CollectionKind::Full);
  EXPECT_FALSE(Hp.incrementalCycleOpen());
  EXPECT_EQ(Hp.stats().IncrementalCyclesOpened, 1u);
  EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 1u);
  // The concurrent mode never takes mutator-side mark steps.
  EXPECT_EQ(Hp.stats().MarkIncrements, 0u);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

TEST(ConcurrentMarkTest, BackToBackCyclesReuseTheMarkerThread) {
  // One marker thread serves the heap's whole lifetime; every cycle
  // re-arms it and every close quiesces it. Three consecutive cycles
  // with mutation in between must each converge and stay auditable.
  Heap Hp(stormConfig(MarkPacing::Concurrent, /*GcThreads=*/4, 256));
  std::vector<unsigned> Heads = buildLists(Hp, 2, 800);
  for (unsigned Cycle = 0; Cycle != 3; ++Cycle) {
    ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
    for (unsigned I = 0; I != 200; ++I)
      mutationOp(Hp, Heads, uint64_t(Cycle) * 200 + I);
    Hp.satbFlushHandshake();
    for (unsigned I = 0; I != 200; ++I)
      mutationOp(Hp, Heads, 1000 + uint64_t(Cycle) * 200 + I);
    Hp.finishIncrementalMarkCycle();
    EXPECT_FALSE(Hp.incrementalCycleOpen());
    EXPECT_EQ(Hp.stats().SatbDrained, Hp.stats().SatbLogged)
        << "cycle " << Cycle << " left SATB entries behind";
  }
  EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 3u);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

TEST(ConcurrentMarkTest, AllocationDuringCycleSurvivesTheClose) {
  Heap Hp(stormConfig(MarkPacing::Concurrent, /*GcThreads=*/2, 256));
  buildLists(Hp, 2, 500);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  // Births during the cycle are allocated black: kept by the closing
  // sweep even though the snapshot never reached them, with the marker
  // thread racing the whole time.
  unsigned NewRoot = Hp.createRoot(nullptr);
  for (unsigned I = 0; I != 300; ++I) {
    ObjRef Node = Hp.allocate(40, 1);
    ASSERT_NE(Node, nullptr);
    *reinterpret_cast<uint64_t *>(objectPayload(Node)) = 0xB1A0000 + I;
    if (ObjRef Head = Hp.root(NewRoot))
      Hp.writeRef(Node, 0, Head);
    Hp.setRoot(NewRoot, Node);
    if (I % 50 == 25)
      Hp.satbFlushHandshake();
  }
  ObjRef Large = Hp.allocate(16 * 1024, 0);
  ASSERT_NE(Large, nullptr);
  std::memset(objectPayload(Large), 0x5A, 16 * 1024);
  unsigned LargeRoot = Hp.createRoot(Large);
  Hp.finishIncrementalMarkCycle();
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
// Equivalence with stop-the-world and interleaved marking
//===----------------------------------------------------------------------===//

TEST(ConcurrentMarkTest, MatchesStopTheWorldAndInterleavedAcrossWorkers) {
  StormResult Stw = expectStormLeg(MarkPacing::StopTheWorld, 1, 256);
  StormResult Inter = expectStormLeg(MarkPacing::Incremental, 1, 256);
  EXPECT_EQ(stormMismatch(Inter, Stw), "") << "interleaved vs STW";
  StormResult ConcSerial = expectStormLeg(MarkPacing::Concurrent, 1, 256);
  EXPECT_EQ(stormMismatch(ConcSerial, Stw), "")
      << "concurrent(1 worker) vs STW";
  expectMarkingLegsEqual(ConcSerial, Inter,
                         "concurrent vs interleaved SATB ledger");
  EXPECT_GT(ConcSerial.SatbLogged, 0u)
      << "storm must exercise the barrier";
  EXPECT_EQ(ConcSerial.SatbDrained, ConcSerial.SatbLogged)
      << "every logged deletion must eventually drain";
  EXPECT_EQ(ConcSerial.MarkIncrements, 0u);
  // The last leg runs more GC workers than cores: the closing drains
  // then run with workers preempted inside the work-list protocol.
  for (unsigned Workers : {2u, 4u, 8u, oversubscribedWorkers()}) {
    StormResult Conc = expectStormLeg(MarkPacing::Concurrent, Workers, 256);
    expectMarkingLegsEqual(Conc, ConcSerial, "worker-count divergence");
    EXPECT_EQ(stormMismatch(Conc, Stw), "") << "concurrent(N workers) vs STW";
  }
  // So do the interleaved pacing's budgeted steps.
  StormResult InterOver =
      expectStormLeg(MarkPacing::Incremental, oversubscribedWorkers(), 256);
  expectMarkingLegsEqual(InterOver, Inter, "oversubscribed interleaved");
}

TEST(ConcurrentMarkTest, FinalHeapIsIndependentOfMarkerSliceQuota) {
  // MarkBudget in concurrent mode is the marker's per-slice quota: it
  // shapes the marker's pause/latency trade-off, never the outcome.
  // Budget 0 exercises DefaultMarkerSliceQuota.
  StormResult Base = expectStormLeg(MarkPacing::Concurrent, 2, 256);
  for (unsigned Budget : {0u, 64u, 4096u}) {
    StormResult R = expectStormLeg(MarkPacing::Concurrent, 2, Budget);
    expectMarkingLegsEqual(R, Base, "slice quota changed the outcome");
  }
  StormResult Again = expectStormLeg(MarkPacing::Concurrent, 2, 256);
  expectMarkingLegsEqual(Again, Base, "rerun divergence");
}

TEST(ConcurrentMarkTest, MidCycleDynamicFailureParksWhileMarkerRuns) {
  StormResult Stw = expectStormLeg(MarkPacing::StopTheWorld, 1, 256,
                                   /*MidCycleFailure=*/true);
  EXPECT_EQ(Stw.FailedLinesDynamic, 1u);
  for (unsigned Workers : {1u, 4u}) {
    StormResult Conc = expectStormLeg(MarkPacing::Concurrent, Workers, 256,
                                      /*MidCycleFailure=*/true);
    EXPECT_EQ(stormMismatch(Conc, Stw), "") << "mid-cycle failure leg vs STW";
  }
}

//===----------------------------------------------------------------------===//
// Multi-threaded mutators against the marker thread
//===----------------------------------------------------------------------===//

namespace {

RuntimeConfig poolConfig(unsigned Lanes) {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = (8 * MiB) * Lanes;
  Config.Pacing = MarkPacing::Concurrent;
  return Config;
}

} // namespace

TEST(ConcurrentMarkTest, PoolDigestIsBitIdenticalAcrossMutatorThreads) {
  // The lane turnstile owns the allocation order and the turn hook
  // drives cycle opens, flushes, and closes at fixed turn numbers, so
  // the marker thread's free-running schedule must be invisible: any
  // OS interleaving of mutator threads and the marker yields the same
  // final heap.
  const unsigned Threads[3] = {1, 2, 4};
  PoolLegResult Legs[3];
  for (unsigned I = 0; I != 3; ++I) {
    Legs[I] = runPoolLeg(MarkPacing::Concurrent, Threads[I], /*Seed=*/99,
                         /*VolumeScale=*/0.25);
    ASSERT_TRUE(Legs[I].Ok);
    EXPECT_TRUE(Legs[I].AuditPassed);
    EXPECT_EQ(Legs[I].SatbDrained, Legs[I].SatbLogged);
  }
  for (unsigned I : {1u, 2u}) {
    EXPECT_EQ(Legs[0].Digest, Legs[I].Digest);
    EXPECT_EQ(Legs[0].GcCount, Legs[I].GcCount);
    EXPECT_EQ(Legs[0].SatbLogged, Legs[I].SatbLogged);
  }
  EXPECT_GT(Legs[0].SatbLogged, 0u) << "the pool must exercise the barrier";
}

TEST(ConcurrentMarkTest, FlushHandshakeStormIsWatchdogClean) {
  // The acceptance storm: 100 explicit flush handshakes from the
  // active mutator thread while three peer threads sit on the
  // turnstile and the marker thread drains - every handshake must
  // complete without a watchdog round, and the SATB ledger must
  // balance at every close.
  constexpr unsigned Lanes = 4;
  constexpr uint64_t Rounds = 100;
  Runtime Rt(poolConfig(Lanes));

  std::atomic<unsigned> FailStops{0};
  Rt.safepoints().setFailStopHandler(
      [&](const std::string &) { ++FailStops; });

  MutatorPoolOptions Opts;
  Opts.Lanes = Lanes;
  Opts.Threads = 4;
  Opts.Seed = 1234;
  Opts.VolumeScale = 0.5;
  MutatorPool Pool(Rt, *findProfile("luindex"), Opts);

  uint64_t Handshakes = 0;
  uint64_t Closes = 0;
  Pool.setTurnHook([&](unsigned, uint64_t Turn) {
    if (Turn % 256 != 0 || Handshakes >= Rounds)
      return true;
    if (!Rt.incrementalCycleOpen())
      Rt.beginIncrementalMarkCycle();
    ++Handshakes;
    Rt.satbFlushHandshake();
    if (Handshakes % 10 == 0 && Rt.incrementalCycleOpen()) {
      Rt.finishIncrementalMarkCycle();
      ++Closes;
      EXPECT_EQ(Rt.heap().stats().SatbDrained,
                Rt.heap().stats().SatbLogged)
          << "close " << Closes << " left SATB entries behind";
    }
    return true;
  });

  ASSERT_TRUE(Pool.run());
  EXPECT_EQ(Handshakes, Rounds);
  EXPECT_EQ(FailStops.load(), 0u);
  EXPECT_EQ(Rt.safepoints().stats().WatchdogFired, 0u);

  if (Rt.incrementalCycleOpen())
    Rt.finishIncrementalMarkCycle();
  Rt.collect(true);
  EXPECT_EQ(Rt.heap().stats().SatbDrained, Rt.heap().stats().SatbLogged);
  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  for (const std::string &V : Report.Violations)
    ADD_FAILURE() << "audit violation: " << V;
  EXPECT_TRUE(Report.passed());
}
