//===- bench/perf04_pause.cpp - Incremental marking pause gate ------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Perf and correctness gate for incremental SATB marking. Two contracts,
// in the two domains the obs subsystem separates:
//
//  1. Determinism (virtual time): a write storm interleaved with
//     budgeted mark steps - including a dynamic line failure landing
//     mid-cycle - must end in a heap bit-identical to stop-the-world
//     marking at the same point in the mutation history, across GC
//     worker counts 1/2/4/8, with every deterministic counter equal.
//     Exit 2 on any divergence.
//  2. Pause SLO (wall clock): at 4 GC worker lanes, the longest pause an
//     incremental cycle imposes (open, any budgeted step, or the closing
//     rescan+sweep) must be <= 20% of the stop-the-world full-mark pause
//     over the identical heap. Median of paired back-to-back ratios,
//     re-measured up to two extra rounds against noise; exit 3.
//     --no-timing-gate disarms (sanitizers).
//
// The emitted BENCH_pause.json contains only deterministic values; wall
// times go to stdout. Exit 0 ok; flags and usage errors:
// bench/GateHarness.h.
//
//===----------------------------------------------------------------------===//

#include "GateHarness.h"

#include "support/JsonWriter.h"
#include "workload/Storm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace wearmem;
using gate::msSince;

namespace {

constexpr unsigned WorkerCounts[] = {1, 2, 4, 8};
constexpr unsigned NumWorkerCounts = 4;

//===----------------------------------------------------------------------===//
// Pause legs: identical heaps, stop-the-world vs incremental pauses
//===----------------------------------------------------------------------===//

struct PausePair {
  double StwMs = 0.0;    ///< The full stop-the-world collection pause.
  double MaxIncMs = 0.0; ///< Longest of open / any step / close.
  unsigned Steps = 0;
};

/// One paired measurement: the same live set is built twice; one heap
/// takes a single stop-the-world full collection, the other runs a full
/// incremental cycle with every pause timed individually. Back-to-back
/// pairing makes the ratio robust to machine-load drift.
PausePair measurePausePair(uint64_t Seed, double Scale) {
  PausePair P;
  unsigned ListLen = static_cast<unsigned>(12000 * Scale);
  {
    Heap Hp(stormPauseConfig(MarkPacing::StopTheWorld));
    buildLists(Hp, 4, ListLen, Seed);
    auto T0 = std::chrono::steady_clock::now();
    Hp.collect(CollectionKind::Full);
    P.StwMs = msSince(T0);
  }
  {
    Heap Hp(stormPauseConfig(MarkPacing::Incremental));
    buildLists(Hp, 4, ListLen, Seed);
    auto T0 = std::chrono::steady_clock::now();
    Hp.beginIncrementalMarkCycle();
    P.MaxIncMs = msSince(T0);
    bool More = true;
    while (More) {
      T0 = std::chrono::steady_clock::now();
      More = Hp.incrementalMarkStep();
      P.MaxIncMs = std::max(P.MaxIncMs, msSince(T0));
      ++P.Steps;
    }
    T0 = std::chrono::steady_clock::now();
    Hp.finishIncrementalMarkCycle();
    P.MaxIncMs = std::max(P.MaxIncMs, msSince(T0));
  }
  return P;
}

} // namespace

int main(int argc, char **argv) {
  const gate::Options Opt = gate::parseArgs(
      argc, argv, "pause", gate::TakesScale | gate::Timed, 7);
  const uint64_t Seed = Opt.Seed;
  const double Scale = Opt.Scale;

  // Determinism: stop-the-world reference leg, then incremental legs at
  // every worker count. The increments and SATB totals must also agree
  // *between* incremental legs (the step schedule is fixed, so they are
  // pure functions of the mutation history).
  StormResult Stw = runStormLeg(MarkPacing::StopTheWorld, 1,
                                StormMarkBudget, Seed, Scale,
                                /*MidCycleFailure=*/true);
  bool Identical = Stw.AuditPassed;
  if (!Stw.AuditPassed)
    std::printf("AUDIT FAILED: stop-the-world leg\n");
  StormResult IncFirst;
  for (unsigned C = 0; C != NumWorkerCounts; ++C) {
    StormResult Inc = runStormLeg(MarkPacing::Incremental, WorkerCounts[C],
                                  StormMarkBudget, Seed, Scale,
                                  /*MidCycleFailure=*/true);
    if (!Inc.AuditPassed) {
      Identical = false;
      std::printf("AUDIT FAILED: incremental leg, %u workers\n",
                  WorkerCounts[C]);
    }
    if (!stormMismatch(Inc, Stw).empty()) {
      Identical = false;
      std::printf("MISMATCH: incremental(%u workers) digest "
                  "0x%016llx vs stop-the-world 0x%016llx\n",
                  WorkerCounts[C], (unsigned long long)Inc.Digest,
                  (unsigned long long)Stw.Digest);
    }
    if (C == 0)
      IncFirst = Inc;
    else if (Inc.MarkIncrements != IncFirst.MarkIncrements ||
             Inc.SatbLogged != IncFirst.SatbLogged ||
             Inc.SatbDrained != IncFirst.SatbDrained) {
      Identical = false;
      std::printf("MISMATCH: incremental internals diverge at %u "
                  "workers\n",
                  WorkerCounts[C]);
    }
  }
  std::printf("determinism: incremental vs stop-the-world across "
              "%u worker counts: %s\n",
              NumWorkerCounts, Identical ? "IDENTICAL" : "DIVERGED");
  std::printf("satb: %llu logged / %llu drained over %llu increments\n",
              (unsigned long long)IncFirst.SatbLogged,
              (unsigned long long)IncFirst.SatbDrained,
              (unsigned long long)IncFirst.MarkIncrements);

  // Pause SLO: median of the accumulated paired max-incremental-pause /
  // stop-the-world ratios at the 4-worker configuration.
  std::vector<double> Ratios;
  double Ratio = 0.0;
  double BestStw = -1.0, BestInc = -1.0;
  unsigned Steps = 0;
  gate::measureRounds(
      Opt, [&] { measurePausePair(Seed, Scale); }, // Allocator pools.
      [&](unsigned Rep) {
        PausePair P = measurePausePair(Seed + Rep, Scale);
        gate::keepMin(BestStw, P.StwMs);
        gate::keepMin(BestInc, P.MaxIncMs);
        Steps = P.Steps;
        if (P.StwMs > 0.0)
          Ratios.push_back(P.MaxIncMs / P.StwMs);
      },
      [&] {
        Ratio = gate::median(Ratios);
        return Ratio <= 0.20 ? std::string()
                             : gate::format("%.1f%%", Ratio * 100.0);
      });
  std::printf("pauses at %u workers: stop-the-world best %.3f ms, max "
              "incremental best %.3f ms over %u steps, median paired "
              "ratio %.1f%% (gate %s: need <= 20%%)\n",
              StormPauseWorkers, BestStw, BestInc, Steps, Ratio * 100.0,
              gate::armedLabel(Opt));

  FILE *Out = gate::openOut(Opt);
  JsonWriter W(Out);
  gate::writeHead(W, "pause", Opt);
  W.key("mark_budget");
  W.value(StormMarkBudget);
  stormToJson(W, Stw);
  W.key("incremental");
  W.openObject(JsonWriter::Style::Inline);
  W.key("mark_increments");
  W.value(IncFirst.MarkIncrements);
  W.key("satb_logged");
  W.value(IncFirst.SatbLogged);
  W.key("satb_drained");
  W.value(IncFirst.SatbDrained);
  W.close();
  W.key("identical");
  W.value(Identical);
  gate::finishOut(W, Out, Opt);

  if (!Identical) {
    std::fprintf(stderr, "FAIL: incremental marking changed the final "
                         "heap or a deterministic counter\n");
    return 2;
  }
  if (!Opt.NoTimingGate && Ratio > 0.20) {
    std::fprintf(stderr,
                 "FAIL: max incremental pause is %.1f%% of the "
                 "stop-the-world pause (need <= 20%%)\n",
                 Ratio * 100.0);
    return 3;
  }
  return 0;
}
