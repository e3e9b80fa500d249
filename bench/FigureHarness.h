//===- bench/FigureHarness.h - Shared figure-reproduction harness -*-C++-*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue shared by the per-figure benchmark binaries. Each binary's sweep
/// loops run every point (profile x configuration) where they declare
/// it, through runPoint, and keep the aggregates in locals indexed by
/// those loops; after the sweep the binary prints its figure as a table
/// of the paper's series.
///
/// A point follows the paper's rule (Section 5) through runRepeated: one
/// discarded warm-up, then WEARMEM_BENCH_REPS timed invocations. runPoint
/// prints one line per point, the profile and configuration followed by
/// either "<mean> ms +/- <95% CI>" or "DNF (<DnfReason>)".
///
/// Environment knobs:
///   WEARMEM_PROFILES     "all" (default), "quick", or a name list.
///   WEARMEM_BENCH_REPS   invocations per point (default 3).
///   WEARMEM_BENCH_SCALE  workload volume multiplier (default 1.0).
///
/// A figure binary takes no arguments: any argument, or a malformed knob,
/// exits cli::ExitUsage (64) before any point runs.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_BENCH_FIGUREHARNESS_H
#define WEARMEM_BENCH_FIGUREHARNESS_H

#include "pcm/Geometry.h"
#include "support/CliArgs.h"
#include "support/Table.h"
#include "workload/Runner.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

namespace wearmem {

/// Starts a figure binary. Rejects any command-line argument and any
/// malformed knob, naming the offender, before a point runs. Then stops
/// malloc from trimming the heap: otherwise glibc hands each torn-down
/// runtime's pages back to the OS, every invocation after the warm-up
/// re-faults its heap, and the points measure page faults (in fig04,
/// 4-6x the page faults and points up to 50% longer, depending on which
/// allocations happen to pin the heap top).
inline void startFigure(int Argc, char **Argv) {
  std::string Err;
  if (Argc > 1)
    Err = std::string("unexpected argument '") + Argv[1] + "'";
  if (Err.empty())
    selectedProfiles(&Err);
  if (Err.empty())
    benchReps(&Err);
  if (Err.empty())
    benchScale(&Err);
  if (!Err.empty()) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s (no arguments; knobs: WEARMEM_PROFILES, "
                 "WEARMEM_BENCH_REPS, WEARMEM_BENCH_SCALE)\n",
                 Argv[0], Err.c_str(), Argv[0]);
    std::exit(cli::ExitUsage);
  }
#ifdef M_TRIM_THRESHOLD
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
}

/// The profile and every configuration value a figure sweeps.
/// (RuntimeConfig::describe() leaves out the heap factor, the failure
/// pattern and the baseline's failure-unaware mode, and prints regions
/// above two pages as "2CL".)
inline std::string pointLabel(const Profile &P, const RuntimeConfig &C) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%-12s %-4s h%.2f L%zu f=%.3g%% ", P.Name,
                cli::collectorFlagName(C.Collector),
                static_cast<double>(C.HeapBytes) /
                    static_cast<double>(P.MinHeapBytes),
                C.LineSize, C.FailureRate * 100.0);
  std::string Label = Buf;
  Label += C.ClusteringRegionPages
               ? std::to_string(C.ClusteringRegionPages) + "CL"
               : "noCL";
  if (C.Pattern == FailurePattern::ClusterLimit)
    Label += " clustered=" + Table::bytes(C.ClusterLines * PcmLineSize);
  if (C.Pattern == FailurePattern::Custom)
    Label += " wear-map";
  if (!C.FailureAware)
    Label += " unaware";
  if (!C.CompensateForFailures)
    Label += " no-comp";
  if (!C.ConservativeLineMarking)
    Label += " exact-marking";
  if (C.UseDiscontiguousArrays)
    Label += " arraylets";
  return Label;
}

/// Prints one point's line: \p Label, then the mean time and its 95%
/// confidence interval, or DNF and the run's DnfReason.
inline void printPoint(const std::string &Label, const AggregateResult &Agg) {
  if (Agg.Completed)
    std::printf("%-52s %9.1f ms +/- %.1f\n", Label.c_str(), Agg.MeanMs,
                Agg.Ci95Ms);
  else
    std::printf("%-52s DNF (%s)\n", Label.c_str(),
                dnfReasonName(Agg.Last.Dnf));
  std::fflush(stdout);
}

/// Runs one sweep point (benchReps() timed invocations after a warm-up)
/// and prints its line. A DNF point returns Completed=false and shows in
/// the tables as "-" (a terminated curve).
inline AggregateResult runPoint(const Profile &P,
                                const RuntimeConfig &Config) {
  AggregateResult Agg = runRepeated(P, Config, benchReps());
  printPoint(pointLabel(P, Config), Agg);
  return Agg;
}

/// One aggregate per profile, in the order of the figure's profile list.
using Series = std::vector<AggregateResult>;

/// Geomean of \p Variant normalized to \p Base, profile by profile; NaN
/// if any profile did not complete (the paper discards such points).
inline double geomeanVs(const Series &Variant, const Series &Base) {
  std::vector<double> Norms;
  for (size_t I = 0; I != Variant.size(); ++I)
    Norms.push_back(normalizedTime(Variant[I], Base[I]));
  return geomeanNormalized(Norms);
}

/// The mean DRAM pages borrowed by the completed runs of \p Runs, or "-"
/// when none completed.
inline std::string meanBorrowed(const Series &Runs) {
  double Sum = 0.0;
  size_t Count = 0;
  for (const AggregateResult &Agg : Runs) {
    if (Agg.Completed) {
      Sum += static_cast<double>(Agg.Last.Os.DramBorrowed);
      ++Count;
    }
  }
  return Count == 0 ? "-" : Table::num(Sum / Count, 0);
}

/// The paper's default base configuration: Sticky Immix, 256 B lines,
/// 32 KB blocks, failure-aware, compensated, at 2x the per-benchmark
/// minimum heap (set HeapBytes per profile with heapBytesFor).
inline RuntimeConfig paperBaseConfig() {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.LineSize = 256;
  Config.FailureAware = true;
  Config.CompensateForFailures = true;
  return Config;
}

/// The baseline the figures normalize to: the unmodified S-IX collector
/// on regular memory at \p HeapFactor times the profile's minimum heap.
inline RuntimeConfig baselineConfig(const Profile &P, double HeapFactor) {
  RuntimeConfig Config = paperBaseConfig();
  Config.FailureAware = false;
  Config.HeapBytes = heapBytesFor(P, HeapFactor);
  return Config;
}

/// Standard heap-size multiples for the heap-sweep figures.
inline const std::vector<double> &heapFactors() {
  static const std::vector<double> Factors = {1.25, 1.5, 2.0,
                                              3.0,  4.0, 6.0};
  return Factors;
}

} // namespace wearmem

#endif // WEARMEM_BENCH_FIGUREHARNESS_H
