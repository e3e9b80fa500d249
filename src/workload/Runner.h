//===- workload/Runner.h - Experiment runner and aggregation ----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs profiles against runtime configurations and aggregates results the
/// way the paper does (Section 5): repeated invocations, means with 95%
/// confidence intervals, per-benchmark normalization against an unmodified
/// baseline, geometric means across benchmarks, and did-not-finish
/// handling (curves simply terminate when a configuration cannot run a
/// workload, as in Figures 7-9).
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_RUNNER_H
#define WEARMEM_WORKLOAD_RUNNER_H

#include "core/Runtime.h"
#include "support/Stats.h"
#include "workload/Adversary.h"
#include "workload/Profile.h"

#include <optional>
#include <string>
#include <vector>

namespace wearmem {

/// One invocation's outcome.
struct RunResult {
  bool Completed = false;
  /// Why the run did not finish (None when Completed).
  DnfReason Dnf = DnfReason::None;
  double SetupMs = 0.0;
  double RunMs = 0.0;
  HeapStats Stats;
  OsStats Os;
  size_t BudgetPages = 0;
  double MeanFullPauseMs = 0.0;
  double MaxFullPauseMs = 0.0;
};

/// Mean over repetitions (same workload, fresh runtime each time).
struct AggregateResult {
  bool Completed = false;
  double MeanMs = 0.0;
  double Ci95Ms = 0.0;
  RunResult Last;
};

/// Executes one profile under \p Config once. Config.HeapBytes must
/// already be set (see heapBytesFor).
RunResult runOnce(const Profile &P, const RuntimeConfig &Config,
                  uint64_t WorkloadSeed = 0xDACA90ULL,
                  AdversaryKind Adversary = AdversaryKind::None);

/// Repeats runOnce \p Reps times and aggregates wall time.
AggregateResult runRepeated(const Profile &P, const RuntimeConfig &Config,
                            int Reps = 3,
                            uint64_t WorkloadSeed = 0xDACA90ULL,
                            AdversaryKind Adversary = AdversaryKind::None);

/// The heap size for a profile at a multiple of its calibrated minimum.
inline size_t heapBytesFor(const Profile &P, double HeapFactor) {
  return static_cast<size_t>(HeapFactor *
                             static_cast<double>(P.MinHeapBytes));
}

/// Repetition count from WEARMEM_BENCH_REPS (default 3). A value that is
/// not an integer >= 1 yields the default and, when \p Err is given, a
/// diagnostic naming the variable (checked once, as for benchScale).
int benchReps(std::string *Err = nullptr);

/// Normalized time of \p Variant against \p Baseline for one profile:
/// NaN when either configuration did not complete (a terminated curve).
double normalizedTime(const AggregateResult &Variant,
                      const AggregateResult &Baseline);

/// Geometric mean over per-profile normalized times, skipping NaNs; NaN
/// if nothing completed.
double geomeanNormalized(const std::vector<double> &PerProfile);

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_RUNNER_H
