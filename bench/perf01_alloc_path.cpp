//===- bench/perf01_alloc_path.cpp - Allocator hot-path perf gate ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Microbenchmark and self-checking perf gate for the line-scanning hot
// path: bump allocation, recycled allocation under fragmentation, medium
// (fitting) allocation, and sweep, each at 0% / 2% / 8% failed lines,
// plus a head-to-head duel between the word-parallel scanner and the
// byte-scan oracle.
//
// The emitted BENCH_alloc_path.json contains only *deterministic* work
// counters (allocation totals, slow paths, 64-line word steps, oracle
// byte steps): the same seed produces a byte-identical file, so CI can
// diff two runs to prove determinism and trend the numbers across
// commits. Wall-clock times are printed to stdout for humans but kept
// out of the JSON. The duel re-checks word-vs-oracle equivalence on
// every comparison; any divergence (or a word scan that fails to beat
// the oracle on scan steps) exits nonzero, which is the CI gate.
//
// Exit codes: 0 ok, 2 word-vs-oracle divergence, 3 the word scan misses
// its 1.5x step speedup over the oracle or failure-aware allocation does
// extra work at 0% failures (flags, usage errors and an unopenable
// --out: bench/GateHarness.h).
//
//===----------------------------------------------------------------------===//

#include "GateHarness.h"

#include "heap/ImmixSpace.h"
#include "support/JsonWriter.h"
#include "support/Random.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

using namespace wearmem;
using gate::msSince;

namespace {

/// One ImmixSpace + allocator over a fresh failure-injected OS budget.
struct Arena {
  Arena(double Rate, uint64_t Seed, size_t Pages)
      : Os(Pages, makeFailures(Rate, Seed)) {
    Config.BudgetPages = Pages;
    Space = std::make_unique<ImmixSpace>(
        Os, Config, Stats, [this](size_t P) {
          return Space->pagesHeld() + P <= Config.BudgetPages;
        });
    Allocator = std::make_unique<ImmixAllocator>(*Space, Config, Stats);
  }

  static FailureConfig makeFailures(double Rate, uint64_t Seed) {
    FailureConfig F;
    F.Rate = Rate;
    F.Seed = Seed;
    return F;
  }

  HeapConfig Config;
  HeapStats Stats;
  FailureAwareOs Os;
  std::unique_ptr<ImmixSpace> Space;
  std::unique_ptr<ImmixAllocator> Allocator;
};

/// Deterministic result of one allocation scenario.
struct ScenarioResult {
  uint64_t Allocs = 0;
  uint64_t Bytes = 0;
  uint64_t SlowPaths = 0;
  uint64_t HoleSearches = 0;
  uint64_t OverflowSearches = 0;
  uint64_t WordSteps = 0;
  uint64_t LinesSwept = 0;
  double Ms = 0.0; // stdout only, never serialized
};

/// Bump-allocates 64 B objects until the budget is spent, then fragments
/// the heap (every Stride-th line survives at epoch 2), sweeps, and
/// allocates again out of the recycled holes; finally drains medium
/// objects through the overflow/fitting path.
ScenarioResult runAllocScenario(double Rate, uint64_t Seed,
                                const char *Phase) {
  Arena A(Rate, Seed, /*Pages=*/1024);
  Block::ScanCounters &Counters = Block::scanCounters();
  Counters.reset();
  auto Start = std::chrono::steady_clock::now();

  ScenarioResult R;
  bool Bump = std::strcmp(Phase, "bump_alloc") == 0;
  if (Bump) {
    while (uint8_t *Mem = A.Allocator->alloc(64)) {
      (void)Mem;
      ++R.Allocs;
      R.Bytes += 64;
    }
  } else {
    // Fill, fragment, sweep: the recycled-allocation steady state.
    while (A.Allocator->alloc(64))
      ;
    Rng Marks(Seed ^ 0xF4A6);
    A.Space->forEachBlock([&](Block &B) {
      for (unsigned Line = 0; Line != B.lineCount(); ++Line)
        if (Marks.nextBool(0.25))
          B.markLine(Line, 2);
    });
    A.Allocator->retire();
    A.Space->sweep(2);
    A.Allocator->setHoleEpochs(2, 2);
    Counters.reset();
    Start = std::chrono::steady_clock::now();
    if (std::strcmp(Phase, "recycled_alloc") == 0) {
      while (uint8_t *Mem = A.Allocator->alloc(64)) {
        (void)Mem;
        ++R.Allocs;
        R.Bytes += 64;
      }
    } else { // medium_fitting
      while (uint8_t *Mem = A.Allocator->alloc(2048)) {
        (void)Mem;
        ++R.Allocs;
        R.Bytes += 2048;
      }
    }
  }

  R.Ms = msSince(Start);
  R.SlowPaths = A.Stats.AllocSlowPaths;
  R.HoleSearches = A.Stats.HoleSearches;
  R.OverflowSearches = A.Stats.OverflowSearches;
  R.WordSteps = Counters.WordSteps;
  R.LinesSwept = A.Stats.LinesSwept;
  return R;
}

/// Word-parallel vs byte-scan oracle duel over randomized standalone
/// blocks (stale epochs, failed lines, conservative marking included).
struct DuelResult {
  uint64_t WordSteps = 0;
  uint64_t ByteSteps = 0;
  uint64_t Comparisons = 0;
  uint64_t Mismatches = 0;
  double WordMs = 0.0;
  double OracleMs = 0.0;
};

struct RawBlock {
  explicit RawBlock(const HeapConfig &Config)
      : Mem(static_cast<uint8_t *>(
            std::aligned_alloc(Config.BlockSize, Config.BlockSize))),
        B(std::make_unique<Block>(Mem, Config)) {}
  ~RawBlock() { std::free(Mem); }
  uint8_t *Mem;
  std::unique_ptr<Block> B;
};

void randomizeBlock(Block &B, Rng &R, double FailRate) {
  for (unsigned Line = 0; Line != B.lineCount(); ++Line) {
    if (R.nextBool(FailRate)) {
      B.failLine(Line);
    } else {
      switch (R.nextBelow(4)) {
      case 0:
        B.markLine(Line, 7); // Live at the query epoch.
        break;
      case 1:
        B.markLine(Line, 3); // Stale: reads as free.
        break;
      default:
        B.markLine(Line, 0);
        break;
      }
    }
  }
}

DuelResult runFindHoleDuel(uint64_t Seed, double FailRate, int Rounds) {
  HeapConfig Config;
  Rng R(Seed);
  DuelResult D;
  Block::ScanCounters &Counters = Block::scanCounters();
  for (int Round = 0; Round != Rounds; ++Round) {
    RawBlock RB(Config);
    randomizeBlock(*RB.B, R, FailRate);
    // Word pass.
    Counters.reset();
    auto Start = std::chrono::steady_clock::now();
    std::vector<Hole> WordHoles;
    Hole H;
    unsigned From = 0;
    while (RB.B->findHole(From, 7, 7, /*Conservative=*/true, H)) {
      WordHoles.push_back(H);
      From = H.EndLine;
    }
    D.WordMs += msSince(Start);
    D.WordSteps += Counters.WordSteps;
    // Oracle pass.
    Counters.reset();
    Start = std::chrono::steady_clock::now();
    std::vector<Hole> OracleHoles;
    From = 0;
    while (RB.B->findHoleOracle(From, 7, 7, true, H)) {
      OracleHoles.push_back(H);
      From = H.EndLine;
    }
    D.OracleMs += msSince(Start);
    D.ByteSteps += Counters.ByteSteps;
    // Equivalence self-check.
    ++D.Comparisons;
    if (WordHoles.size() != OracleHoles.size()) {
      ++D.Mismatches;
    } else {
      for (size_t I = 0; I != WordHoles.size(); ++I)
        if (WordHoles[I].StartLine != OracleHoles[I].StartLine ||
            WordHoles[I].EndLine != OracleHoles[I].EndLine) {
          ++D.Mismatches;
          break;
        }
    }
  }
  return D;
}

DuelResult runSweepDuel(uint64_t Seed, double FailRate, int Rounds) {
  HeapConfig Config;
  Rng R(Seed);
  DuelResult D;
  Block::ScanCounters &Counters = Block::scanCounters();
  for (int Round = 0; Round != Rounds; ++Round) {
    RawBlock RB(Config);
    randomizeBlock(*RB.B, R, FailRate);
    Counters.reset();
    auto Start = std::chrono::steady_clock::now();
    Block::SweepResult Word = RB.B->sweepCount(7, /*Conservative=*/true);
    D.WordMs += msSince(Start);
    D.WordSteps += Counters.WordSteps;
    Counters.reset();
    Start = std::chrono::steady_clock::now();
    Block::SweepResult Oracle = RB.B->sweepCountOracle(7, true);
    D.OracleMs += msSince(Start);
    D.ByteSteps += Counters.ByteSteps;
    ++D.Comparisons;
    if (!(Word == Oracle))
      ++D.Mismatches;
  }
  return D;
}

double stepSpeedup(const DuelResult &D) {
  return D.WordSteps == 0
             ? 0.0
             : static_cast<double>(D.ByteSteps) /
                   static_cast<double>(D.WordSteps);
}

} // namespace

int main(int argc, char **argv) {
  const gate::Options Opt = gate::parseArgs(argc, argv, "alloc_path", 0);
  const uint64_t Seed = Opt.Seed;

  const double Rates[] = {0.0, 0.02, 0.08};
  const char *Phases[] = {"bump_alloc", "recycled_alloc",
                          "medium_fitting"};

  std::printf("%-16s %-6s %10s %12s %12s %10s %9s\n", "scenario", "fail%",
              "allocs", "slow-paths", "word-steps", "swept", "ms");
  ScenarioResult Results[3][3];
  for (int P = 0; P != 3; ++P) {
    for (int F = 0; F != 3; ++F) {
      ScenarioResult R = runAllocScenario(Rates[F], Seed, Phases[P]);
      Results[P][F] = R;
      std::printf("%-16s %-6.0f %10llu %12llu %12llu %10llu %9.2f\n",
                  Phases[P], Rates[F] * 100,
                  (unsigned long long)R.Allocs,
                  (unsigned long long)R.SlowPaths,
                  (unsigned long long)R.WordSteps,
                  (unsigned long long)R.LinesSwept, R.Ms);
    }
  }

  // The zero-failure-overhead claim: with no failures injected, the
  // failure-aware scan machinery must do exactly the work of a heap that
  // never heard of failures (FailureAware off changes nothing the
  // allocator consults at rate 0, so equal counters mean the tolerance
  // mechanism itself is free - the paper's Section 6.1 claim).
  ScenarioResult AwareOff;
  {
    Arena A(0.0, Seed, 1024);
    A.Config.FailureAware = false;
    Block::ScanCounters &Counters = Block::scanCounters();
    Counters.reset();
    auto Start = std::chrono::steady_clock::now();
    while (A.Allocator->alloc(64)) {
      ++AwareOff.Allocs;
      AwareOff.Bytes += 64;
    }
    AwareOff.Ms = msSince(Start);
    AwareOff.SlowPaths = A.Stats.AllocSlowPaths;
    AwareOff.HoleSearches = A.Stats.HoleSearches;
    AwareOff.WordSteps = Counters.WordSteps;
  }
  const ScenarioResult &AwareOn = Results[0][0];
  bool ZeroOverhead = AwareOn.Allocs == AwareOff.Allocs &&
                      AwareOn.SlowPaths == AwareOff.SlowPaths &&
                      AwareOn.WordSteps == AwareOff.WordSteps;
  std::printf("\nzero-failure overhead: aware=%llu allocs / %llu steps, "
              "unaware=%llu allocs / %llu steps -> %s\n",
              (unsigned long long)AwareOn.Allocs,
              (unsigned long long)AwareOn.WordSteps,
              (unsigned long long)AwareOff.Allocs,
              (unsigned long long)AwareOff.WordSteps,
              ZeroOverhead ? "ZERO overhead" : "OVERHEAD DETECTED");

  // Scanner duels at each failure rate.
  DuelResult FindHoleDuels[3];
  DuelResult SweepDuels[3];
  uint64_t Mismatches = 0;
  std::printf("\n%-10s %-6s %12s %12s %9s %9s %9s\n", "duel", "fail%",
              "word-steps", "byte-steps", "step-x", "word-ms",
              "oracle-ms");
  for (int F = 0; F != 3; ++F) {
    FindHoleDuels[F] = runFindHoleDuel(Seed ^ 0xD0E1, Rates[F], 400);
    SweepDuels[F] = runSweepDuel(Seed ^ 0x53EE, Rates[F], 400);
    Mismatches += FindHoleDuels[F].Mismatches + SweepDuels[F].Mismatches;
    std::printf("%-10s %-6.0f %12llu %12llu %9.2f %9.2f %9.2f\n",
                "findhole", Rates[F] * 100,
                (unsigned long long)FindHoleDuels[F].WordSteps,
                (unsigned long long)FindHoleDuels[F].ByteSteps,
                stepSpeedup(FindHoleDuels[F]), FindHoleDuels[F].WordMs,
                FindHoleDuels[F].OracleMs);
    std::printf("%-10s %-6.0f %12llu %12llu %9.2f %9.2f %9.2f\n", "sweep",
                Rates[F] * 100,
                (unsigned long long)SweepDuels[F].WordSteps,
                (unsigned long long)SweepDuels[F].ByteSteps,
                stepSpeedup(SweepDuels[F]), SweepDuels[F].WordMs,
                SweepDuels[F].OracleMs);
  }

  // Deterministic JSON: counters only, fixed field order, no timestamps
  // or wall times. Same seed => byte-identical file.
  FILE *Out = gate::openOut(Opt);
  JsonWriter W(Out);
  W.openRoot();
  W.key("bench");
  W.value("alloc_path");
  W.key("schema_version");
  W.value(1);
  W.key("seed");
  W.value(Seed);
  W.key("block_size");
  W.value(HeapConfig().BlockSize);
  W.key("line_size");
  W.value(HeapConfig().LineSize);
  W.key("scenarios");
  W.openArray(JsonWriter::Style::Line);
  for (int P = 0; P != 3; ++P) {
    for (int F = 0; F != 3; ++F) {
      const ScenarioResult &R = Results[P][F];
      W.openObject(JsonWriter::Style::Inline);
      W.key("name");
      W.value(Phases[P]);
      W.key("failed_line_pct");
      W.value((int)(Rates[F] * 100));
      W.key("allocs");
      W.value(R.Allocs);
      W.key("bytes");
      W.value(R.Bytes);
      W.key("slow_paths");
      W.value(R.SlowPaths);
      W.key("hole_searches");
      W.value(R.HoleSearches);
      W.key("overflow_searches");
      W.value(R.OverflowSearches);
      W.key("word_steps");
      W.value(R.WordSteps);
      W.key("lines_swept");
      W.value(R.LinesSwept);
      W.close();
    }
  }
  W.close();
  W.key("scan_duel");
  W.openArray(JsonWriter::Style::Line);
  for (int F = 0; F != 3; ++F) {
    const char *Names[] = {"findhole", "sweep"};
    const DuelResult *Duels[] = {&FindHoleDuels[F], &SweepDuels[F]};
    for (int K = 0; K != 2; ++K) {
      const DuelResult &D = *Duels[K];
      W.openObject(JsonWriter::Style::Inline);
      W.key("name");
      W.value(Names[K]);
      W.key("failed_line_pct");
      W.value((int)(Rates[F] * 100));
      W.key("word_steps");
      W.value(D.WordSteps);
      W.key("oracle_byte_steps");
      W.value(D.ByteSteps);
      W.key("step_speedup_x");
      W.valueF(stepSpeedup(D), 3);
      W.key("comparisons");
      W.value(D.Comparisons);
      W.key("mismatches");
      W.value(D.Mismatches);
      W.close();
    }
  }
  W.close();
  W.key("zero_failure_overhead");
  W.openObject(JsonWriter::Style::Inline);
  W.key("aware_allocs");
  W.value(AwareOn.Allocs);
  W.key("unaware_allocs");
  W.value(AwareOff.Allocs);
  W.key("aware_word_steps");
  W.value(AwareOn.WordSteps);
  W.key("unaware_word_steps");
  W.value(AwareOff.WordSteps);
  W.key("aware_slow_paths");
  W.value(AwareOn.SlowPaths);
  W.key("unaware_slow_paths");
  W.value(AwareOff.SlowPaths);
  W.key("work_delta");
  W.value(ZeroOverhead ? 0 : 1);
  W.close();
  W.key("self_check_mismatches");
  W.value(Mismatches);
  gate::finishOut(W, Out, Opt);

  // Gate: equivalence must hold and the word scan must beat the oracle
  // on deterministic scan work.
  if (Mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu word-vs-oracle divergences detected\n",
                 (unsigned long long)Mismatches);
    return 2;
  }
  for (int F = 0; F != 3; ++F)
    if (stepSpeedup(FindHoleDuels[F]) < 1.5 ||
        stepSpeedup(SweepDuels[F]) < 1.5) {
      std::fprintf(stderr,
                   "FAIL: word scan does not beat the byte oracle "
                   "(findhole %.2fx, sweep %.2fx at %d%%)\n",
                   stepSpeedup(FindHoleDuels[F]),
                   stepSpeedup(SweepDuels[F]), (int)(Rates[F] * 100));
      return 3;
    }
  if (!ZeroOverhead) {
    std::fprintf(stderr, "FAIL: nonzero allocator work delta at 0%% "
                         "failures\n");
    return 3;
  }
  return 0;
}
