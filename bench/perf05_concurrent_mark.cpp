//===- bench/perf05_concurrent_mark.cpp - Concurrent marking gate ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Perf and correctness gate for mostly-concurrent marking on the
// dedicated marker thread. Three contracts:
//
//  1. Determinism, heap-level (virtual time): the perf04 write storm -
//     including a dynamic line failure landing mid-cycle - must end in a
//     bit-identical heap with equal deterministic counters across
//     {stop-the-world, interleaved, concurrent} x GC workers {1,2,4,8}.
//     The marker thread's free-running schedule must be invisible.
//  2. Determinism, pool-level: a multi-threaded MutatorPool run whose
//     turn hook opens, paces, and closes cycles at fixed turn numbers.
//     Across mutator threads {1,2,4} each mode must produce one digest
//     (OS scheduling and the marker thread are invisible), the two
//     marking pacings must produce the *same* digest, and allocation
//     and collection counters must agree across all three modes. The
//     stop-the-world digest legitimately differs from the marking
//     modes' here: this workload drops objects mid-cycle, and SATB's
//     allocate-black rule floats that garbage past the close - a
//     semantic property of snapshot marking, not a marker artifact
//     (the heap-level matrix in 1, where allocation precedes the
//     cycle, pins exact stop-the-world equality). Exit 2 on any
//     divergence in 1 or 2.
//  3. Timing SLOs at 4 GC workers (wall clock): the longest pause the
//     concurrent mode imposes on a mutator (open, any flush handshake,
//     or the closing drain) must meet the perf04 incremental bound
//     (<= 20% of the stop-the-world full-mark pause), and the total
//     mutator-attributed mark time (open + flushes + close) must be
//     < 50% of the interleaved mode's (open + every budgeted step +
//     close) over the identical storm - the marker thread, not the
//     mutator, does the tracing. Best of paired ratios per round
//     (scheduler noise can only inflate the concurrent close; a real
//     regression inflates every rep), re-measured up to two extra
//     rounds; exit 3. --no-timing-gate disarms (sanitizers).
//
// The emitted BENCH_concurrent_mark.json contains only deterministic
// values; wall times go to stdout. Exit 0 ok, 64 usage.
//
//===----------------------------------------------------------------------===//

#include "gc/HeapAuditor.h"
#include "support/JsonWriter.h"
#include "workload/MutatorPool.h"
#include "workload/Storm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace wearmem;

namespace {

const char *pacingName(MarkPacing P) {
  switch (P) {
  case MarkPacing::StopTheWorld:
    return "stop-the-world";
  case MarkPacing::Incremental:
    return "interleaved";
  case MarkPacing::Concurrent:
    return "concurrent";
  }
  return "?";
}

constexpr unsigned WorkerCounts[] = {1, 2, 4, 8};
constexpr unsigned NumWorkerCounts = 4;
constexpr unsigned MutatorThreadCounts[] = {1, 2, 4};
constexpr unsigned NumMutatorThreadCounts = 3;

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

//===----------------------------------------------------------------------===//
// Pool-level determinism legs: the marker thread vs OS-scheduled mutators
//===----------------------------------------------------------------------===//

struct PoolLeg {
  bool Ok = false;
  bool AuditPassed = false;
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;
};

/// One MutatorPool leg: four lanes on \p Threads OS threads, cycles
/// opened / paced / closed by the turn hook at fixed turn numbers (the
/// lane turnstile makes turn numbers a virtual clock, so every mode and
/// thread count sees the identical schedule; the stop-the-world mode
/// takes a plain full collection at each close point). The heap is
/// sized so the schedule's own collections keep pressure low and no
/// allocation-triggered collection lands inside an open window.
PoolLeg runPoolLeg(MarkPacing M, unsigned Threads, uint64_t Seed) {
  constexpr unsigned Lanes = 4;
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = (8 * MiB) * Lanes;
  Config.GcThreads = StormPauseWorkers;
  Config.Pacing = M;
  Runtime Rt(Config);

  MutatorPoolOptions Opts;
  Opts.Lanes = Lanes;
  Opts.Threads = Threads;
  Opts.Seed = Seed;
  Opts.VolumeScale = 0.25;
  MutatorPool Pool(Rt, *findProfile("luindex"), Opts);
  Pool.setTurnHook([&Rt, M](unsigned, uint64_t Turn) {
    if (Turn % 1024 == 0) {
      if (M != MarkPacing::StopTheWorld && !Rt.incrementalCycleOpen())
        Rt.beginIncrementalMarkCycle();
    } else if (Turn % 1024 == 768) {
      if (M == MarkPacing::StopTheWorld)
        Rt.collect(true);
      else if (Rt.incrementalCycleOpen())
        Rt.finishIncrementalMarkCycle();
    } else if (Turn % 128 == 64 && Rt.incrementalCycleOpen()) {
      paceCycle(Rt.heap(), M);
    }
    return true;
  });

  PoolLeg R;
  R.Ok = Pool.run();
  if (Rt.incrementalCycleOpen())
    Rt.finishIncrementalMarkCycle();
  Rt.collect(true); // Settle at a common point.
  HeapAuditor Auditor(Rt.heap());
  R.AuditPassed = Auditor.audit().passed();
  R.Digest = Auditor.digest(/*HashPayload=*/true);
  const HeapStats &S = Rt.heap().stats();
  R.GcCount = S.GcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.SatbLogged = S.SatbLogged;
  R.SatbDrained = S.SatbDrained;
  return R;
}

//===----------------------------------------------------------------------===//
// Timing legs: pause bound and mutator-attributed mark time
//===----------------------------------------------------------------------===//

struct TimingPair {
  double StwMs = 0.0;        ///< The stop-the-world full-mark pause.
  double InterMutMs = 0.0;   ///< Interleaved: open + every step + close.
  double ConcMaxPauseMs = 0.0; ///< Concurrent: longest single mutator pause.
  double ConcMutMs = 0.0;    ///< Concurrent: open + flushes + close.
  unsigned Flushes = 0;
};

// The storm must hand the marker thread enough wall time to trace the
// live set while the mutator works: the single-threaded marker needs
// several stop-the-world-pause-lengths of overlap (on a single-core
// machine the storm's wall time is literally the marker's timeshare
// window), so the mutation phase is sized well above the trace time.
constexpr unsigned TimingBatches = 64;
constexpr unsigned TimingOpsPerBatch = 5000;

/// One paired measurement over the identical live set and mutation
/// storm. The storm between pacing points is the concurrent marker's
/// overlap window: while the mutator swaps cross links, the marker
/// drains the frontier, so the mutator-side bill shrinks to the open,
/// the flush handshakes, and whatever the close still has to drain.
/// The interleaved leg pays for the whole trace on the mutator.
TimingPair measureTimingPair(uint64_t Seed, double Scale,
                             unsigned MarkBudget) {
  TimingPair P;
  unsigned ListLen = static_cast<unsigned>(12000 * Scale);
  {
    Heap Hp(stormPauseConfig(MarkPacing::StopTheWorld, MarkBudget));
    buildLists(Hp, 4, ListLen, Seed);
    auto T0 = std::chrono::steady_clock::now();
    Hp.collect(CollectionKind::Full);
    P.StwMs = msSince(T0);
  }
  for (MarkPacing M : {MarkPacing::Incremental, MarkPacing::Concurrent}) {
    Heap Hp(stormPauseConfig(M, MarkBudget));
    std::vector<unsigned> Heads = buildLists(Hp, 4, ListLen, Seed);
    double MutMs = 0.0, MaxPauseMs = 0.0;
    auto Timed = [&](auto &&Fn) {
      auto T0 = std::chrono::steady_clock::now();
      Fn();
      double Ms = msSince(T0);
      MutMs += Ms;
      MaxPauseMs = std::max(MaxPauseMs, Ms);
    };
    Timed([&] { Hp.beginIncrementalMarkCycle(); });
    for (unsigned Batch = 0; Batch != TimingBatches; ++Batch) {
      for (unsigned I = 0; I != TimingOpsPerBatch; ++I)
        mutationOp(Hp, Heads,
                   uint64_t(Batch) * TimingOpsPerBatch + I);
      Timed([&] { paceCycle(Hp, M); });
    }
    if (M == MarkPacing::Incremental) {
      // The interleaved contract: the mutator drives the trace to
      // convergence in budgeted steps before the close.
      bool More = true;
      while (More)
        Timed([&] { More = Hp.incrementalMarkStep(); });
    }
    Timed([&] { Hp.finishIncrementalMarkCycle(); });
    if (M == MarkPacing::Incremental) {
      P.InterMutMs = MutMs;
    } else {
      P.ConcMutMs = MutMs;
      P.ConcMaxPauseMs = MaxPauseMs;
      P.Flushes = TimingBatches;
    }
  }
  return P;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 42;
  double Scale = 1.0;
  unsigned Reps = 5;
  unsigned MarkBudget = 512;
  bool NoTimingGate = false;
  std::string OutPath = "BENCH_concurrent_mark.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (std::strcmp(argv[I], "--scale") == 0 && I + 1 < argc)
      Scale = std::atof(argv[++I]);
    else if (std::strcmp(argv[I], "--reps") == 0 && I + 1 < argc)
      Reps = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (std::strcmp(argv[I], "--mark-budget") == 0 && I + 1 < argc)
      MarkBudget =
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else if (std::strcmp(argv[I], "--no-timing-gate") == 0)
      NoTimingGate = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--scale F] [--reps N] "
                   "[--mark-budget N] [--no-timing-gate] [--out FILE]\n",
                   argv[0]);
      return 64;
    }
  }
  if (Reps == 0)
    Reps = 1;

  // Heap-level determinism: the stop-the-world reference leg, then both
  // marking pacings at every worker count. The SATB ledger must also
  // agree between the marking legs (with identical open/close points it
  // is a pure function of the mutation history).
  StormResult Stw = runStormLeg(MarkPacing::StopTheWorld, 1, MarkBudget,
                                Seed, Scale, /*MidCycleFailure=*/true);
  bool Identical = Stw.AuditPassed;
  if (!Stw.AuditPassed)
    std::printf("AUDIT FAILED: stop-the-world leg\n");
  StormResult MarkingFirst;
  bool HaveMarkingFirst = false;
  for (MarkPacing M : {MarkPacing::Incremental, MarkPacing::Concurrent}) {
    for (unsigned C = 0; C != NumWorkerCounts; ++C) {
      StormResult Leg = runStormLeg(M, WorkerCounts[C], MarkBudget, Seed,
                                    Scale, /*MidCycleFailure=*/true);
      if (!Leg.AuditPassed) {
        Identical = false;
        std::printf("AUDIT FAILED: %s leg, %u workers\n", pacingName(M),
                    WorkerCounts[C]);
      }
      if (!stormMismatch(Leg, Stw).empty()) {
        Identical = false;
        std::printf("MISMATCH: %s(%u workers) digest 0x%016llx vs "
                    "stop-the-world 0x%016llx\n",
                    pacingName(M), WorkerCounts[C],
                    (unsigned long long)Leg.Digest,
                    (unsigned long long)Stw.Digest);
      }
      if (!HaveMarkingFirst) {
        MarkingFirst = Leg;
        HaveMarkingFirst = true;
      } else if (Leg.SatbLogged != MarkingFirst.SatbLogged ||
                 Leg.SatbDrained != MarkingFirst.SatbDrained) {
        Identical = false;
        std::printf("MISMATCH: SATB ledger diverges at %s, %u "
                    "workers\n",
                    pacingName(M), WorkerCounts[C]);
      }
    }
  }
  std::printf("determinism (heap): 3 modes x %u worker counts: %s\n",
              NumWorkerCounts, Identical ? "IDENTICAL" : "DIVERGED");
  std::printf("satb: %llu logged / %llu drained\n",
              (unsigned long long)MarkingFirst.SatbLogged,
              (unsigned long long)MarkingFirst.SatbDrained);

  // Pool-level determinism: each mode one digest across mutator thread
  // counts; the two marking pacings one digest between them; counters
  // equal across all modes. Allocate-black floating garbage exempts the
  // stop-the-world *digest* from cross-mode comparison (see header).
  bool PoolIdentical = true;
  PoolLeg ModeRef[3];
  bool HaveModeRef[3] = {false, false, false};
  for (MarkPacing M : {MarkPacing::StopTheWorld, MarkPacing::Incremental,
                       MarkPacing::Concurrent}) {
    unsigned MI = static_cast<unsigned>(M);
    for (unsigned C = 0; C != NumMutatorThreadCounts; ++C) {
      PoolLeg Leg = runPoolLeg(M, MutatorThreadCounts[C], Seed);
      if (!Leg.Ok || !Leg.AuditPassed) {
        PoolIdentical = false;
        std::printf("POOL LEG FAILED: %s, %u threads (run %d, audit "
                    "%d)\n",
                    pacingName(M), MutatorThreadCounts[C], Leg.Ok,
                    Leg.AuditPassed);
        continue;
      }
      if (Leg.SatbDrained != Leg.SatbLogged) {
        PoolIdentical = false;
        std::printf("POOL SATB LEAK: %s, %u threads: %llu logged / "
                    "%llu drained\n",
                    pacingName(M), MutatorThreadCounts[C],
                    (unsigned long long)Leg.SatbLogged,
                    (unsigned long long)Leg.SatbDrained);
      }
      if (!HaveModeRef[MI]) {
        ModeRef[MI] = Leg;
        HaveModeRef[MI] = true;
      } else if (Leg.Digest != ModeRef[MI].Digest ||
                 Leg.GcCount != ModeRef[MI].GcCount ||
                 Leg.ObjectsAllocated != ModeRef[MI].ObjectsAllocated ||
                 Leg.SatbLogged != ModeRef[MI].SatbLogged) {
        PoolIdentical = false;
        std::printf("POOL MISMATCH: %s, %u threads: digest 0x%016llx "
                    "vs 0x%016llx (gc %llu vs %llu)\n",
                    pacingName(M), MutatorThreadCounts[C],
                    (unsigned long long)Leg.Digest,
                    (unsigned long long)ModeRef[MI].Digest,
                    (unsigned long long)Leg.GcCount,
                    (unsigned long long)ModeRef[MI].GcCount);
      }
    }
  }
  const PoolLeg &PoolStw =
      ModeRef[static_cast<unsigned>(MarkPacing::StopTheWorld)];
  const PoolLeg &PoolInter =
      ModeRef[static_cast<unsigned>(MarkPacing::Incremental)];
  const PoolLeg &PoolConc =
      ModeRef[static_cast<unsigned>(MarkPacing::Concurrent)];
  if (PoolInter.Digest != PoolConc.Digest ||
      PoolInter.SatbLogged != PoolConc.SatbLogged) {
    PoolIdentical = false;
    std::printf("POOL MISMATCH: interleaved digest 0x%016llx vs "
                "concurrent 0x%016llx\n",
                (unsigned long long)PoolInter.Digest,
                (unsigned long long)PoolConc.Digest);
  }
  if (PoolStw.GcCount != PoolConc.GcCount ||
      PoolStw.ObjectsAllocated != PoolConc.ObjectsAllocated) {
    PoolIdentical = false;
    std::printf("POOL MISMATCH: stop-the-world counters diverge from "
                "the marking modes (gc %llu vs %llu)\n",
                (unsigned long long)PoolStw.GcCount,
                (unsigned long long)PoolConc.GcCount);
  }
  std::printf("determinism (pool): 3 modes x %u mutator thread counts: "
              "%s\n",
              NumMutatorThreadCounts,
              PoolIdentical ? "IDENTICAL" : "DIVERGED");

  // Timing SLOs: best (minimum) paired ratio at 4 workers, per round,
  // with up to two re-measure rounds. The concurrent leg's close pause
  // is a race against how much CPU the marker thread actually got
  // during the storm - on a loaded or single-core machine that is pure
  // scheduling noise, and the noise only ever *inflates* the ratios.
  // The best rep is therefore the faithful estimate of what the
  // machinery can do, while a genuine regression (a close that always
  // retraces, a handshake that ballooned) inflates every rep, best
  // included.
  measureTimingPair(Seed, Scale, MarkBudget); // Warm the pools.
  double PauseRatio = 0.0, MarkRatio = 0.0;
  double BestStw = -1.0, BestConcPause = -1.0;
  double BestInterMut = -1.0, BestConcMut = -1.0;
  constexpr unsigned MaxRounds = 3;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    double RoundPause = -1.0, RoundMark = -1.0;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      TimingPair P = measureTimingPair(Seed + Rep, Scale, MarkBudget);
      if (BestStw < 0.0 || P.StwMs < BestStw)
        BestStw = P.StwMs;
      if (BestConcPause < 0.0 || P.ConcMaxPauseMs < BestConcPause)
        BestConcPause = P.ConcMaxPauseMs;
      if (BestInterMut < 0.0 || P.InterMutMs < BestInterMut)
        BestInterMut = P.InterMutMs;
      if (BestConcMut < 0.0 || P.ConcMutMs < BestConcMut)
        BestConcMut = P.ConcMutMs;
      if (P.StwMs > 0.0) {
        double R = P.ConcMaxPauseMs / P.StwMs;
        if (RoundPause < 0.0 || R < RoundPause)
          RoundPause = R;
      }
      if (P.InterMutMs > 0.0) {
        double R = P.ConcMutMs / P.InterMutMs;
        if (RoundMark < 0.0 || R < RoundMark)
          RoundMark = R;
      }
    }
    PauseRatio = RoundPause < 0.0 ? 0.0 : RoundPause;
    MarkRatio = RoundMark < 0.0 ? 0.0 : RoundMark;
    if (NoTimingGate || (PauseRatio <= 0.20 && MarkRatio < 0.50))
      break;
    std::printf("round %u over threshold (pause %.1f%%, mark %.1f%%), "
                "re-measuring\n",
                Round + 1, PauseRatio * 100.0, MarkRatio * 100.0);
  }
  std::printf("pauses at %u workers: stop-the-world best %.3f ms, max "
              "concurrent mutator pause best %.3f ms, best paired "
              "ratio %.1f%% (gate %s: need <= 20%%)\n",
              StormPauseWorkers, BestStw, BestConcPause, PauseRatio * 100.0,
              NoTimingGate ? "disarmed by flag" : "armed");
  std::printf("mutator-attributed mark time: interleaved best %.3f ms, "
              "concurrent best %.3f ms, best paired ratio %.1f%% "
              "(gate %s: need < 50%%)\n",
              BestInterMut, BestConcMut, MarkRatio * 100.0,
              NoTimingGate ? "disarmed by flag" : "armed");

  FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s\n", OutPath.c_str());
    return 1;
  }
  JsonWriter W(Out);
  W.openRoot();
  W.key("bench");
  W.value("concurrent_mark");
  W.key("seed");
  W.value(Seed);
  W.key("scale");
  W.valueF(Scale, 3);
  W.key("mark_budget");
  W.value(MarkBudget);
  W.key("digest");
  W.valueHex(Stw.Digest);
  W.key("counters");
  W.openObject(JsonWriter::Style::Inline);
  W.key("gc_count");
  W.value(Stw.GcCount);
  W.key("full_gc_count");
  W.value(Stw.FullGcCount);
  W.key("objects_allocated");
  W.value(Stw.ObjectsAllocated);
  W.key("bytes_allocated");
  W.value(Stw.BytesAllocated);
  W.key("objects_marked");
  W.value(Stw.ObjectsMarked);
  W.key("bytes_traced");
  W.value(Stw.BytesTraced);
  W.key("objects_evacuated");
  W.value(Stw.ObjectsEvacuated);
  W.key("failed_lines_dynamic");
  W.value(Stw.FailedLinesDynamic);
  W.close();
  W.key("satb");
  W.openObject(JsonWriter::Style::Inline);
  W.key("logged");
  W.value(MarkingFirst.SatbLogged);
  W.key("drained");
  W.value(MarkingFirst.SatbDrained);
  W.close();
  W.key("pool");
  W.openObject(JsonWriter::Style::Inline);
  W.key("stw_digest");
  W.valueHex(PoolStw.Digest);
  W.key("marking_digest");
  W.valueHex(PoolConc.Digest);
  W.key("gc_count");
  W.value(PoolConc.GcCount);
  W.key("objects_allocated");
  W.value(PoolConc.ObjectsAllocated);
  W.key("satb_logged");
  W.value(PoolConc.SatbLogged);
  W.close();
  W.key("identical");
  W.value(Identical);
  W.key("pool_identical");
  W.value(PoolIdentical);
  W.closeRoot();
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());

  if (!Identical || !PoolIdentical) {
    std::fprintf(stderr, "FAIL: concurrent marking changed the final "
                         "heap or a deterministic counter\n");
    return 2;
  }
  if (!NoTimingGate && (PauseRatio > 0.20 || MarkRatio >= 0.50)) {
    std::fprintf(stderr,
                 "FAIL: pause ratio %.1f%% (need <= 20%%), "
                 "mutator-attributed mark ratio %.1f%% (need < 50%%)\n",
                 PauseRatio * 100.0, MarkRatio * 100.0);
    return 3;
  }
  return 0;
}
