//===- bench/perf03_obs_overhead.cpp - Observability overhead gate --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Perf and correctness gate for the observability subsystem. The same
// deterministic GC-heavy workload runs under three regimes and the gate
// checks the contract from obs/Obs.h:
//
//  1. Transparency: enabling full tracing + metrics must not change
//     deterministic behavior. The heap digest and every deterministic
//     counter (allocations, collections, evacuations, swept lines) of an
//     instrumented run must equal the disabled run exactly. Exit 2.
//  2. Overhead: with everything enabled, the workload must cost < 5%
//     more wall time than with everything disabled (median of paired
//     back-to-back ratios). Exit 3; --no-timing-gate disarms
//     (sanitizers).
//  3. Metric determinism: the deterministic metrics JSON must be
//     byte-identical across repeated runs and across GC worker counts
//     1/2/4/8 - scheduling may reorder shard updates but never change
//     the sums. Exit 4.
//
// The emitted BENCH_obs_overhead.json contains only deterministic
// values; wall times go to stdout. Exit 0 ok; flags and usage errors:
// bench/GateHarness.h.
//
//===----------------------------------------------------------------------===//

#include "GateHarness.h"

#include "gc/Heap.h"
#include "gc/HeapAuditor.h"
#include "obs/Metrics.h"
#include "obs/FlightRecorder.h"
#include "obs/Obs.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace wearmem;

namespace {

constexpr unsigned WorkerCounts[] = {1, 2, 4, 8};
constexpr unsigned NumWorkerCounts = 4;

/// Deterministic observables of one workload run; the transparency gate
/// compares these field by field between regimes.
struct RunResultObs {
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t BlocksRetired = 0;
  uint64_t LinesSwept = 0;
  uint64_t DynamicBatches = 0;
  double Ms = 0.0; // stdout + overhead gate only, never serialized
  std::string MetricsJson;
};

bool sameDeterministic(const RunResultObs &A, const RunResultObs &B) {
  return A.Digest == B.Digest && A.GcCount == B.GcCount &&
         A.FullGcCount == B.FullGcCount &&
         A.ObjectsAllocated == B.ObjectsAllocated &&
         A.BytesAllocated == B.BytesAllocated &&
         A.ObjectsEvacuated == B.ObjectsEvacuated &&
         A.BlocksRetired == B.BlocksRetired &&
         A.LinesSwept == B.LinesSwept &&
         A.DynamicBatches == B.DynamicBatches;
}

/// Alloc/GC/failure workload: linked lists with churn (alloc fast path +
/// sweeps), explicit full collections (all four phases + evacuation),
/// and mid-run dynamic line failures (the failure-handling hooks).
RunResultObs runWorkload(unsigned GcThreads, uint64_t Seed, double Scale) {
  RunResultObs R;
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (24 * MiB) / PcmPageSize;
  Config.GcThreads = GcThreads;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = Seed;
  Config.DefragFreeFraction = 0.35;

  auto Start = std::chrono::steady_clock::now();
  Heap Hp(Config);
  const unsigned NumLists = 8;
  const unsigned ListLen = static_cast<unsigned>(6000 * Scale);
  for (unsigned L = 0; L != NumLists && !Hp.outOfMemory(); ++L) {
    unsigned HeadRoot = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != ListLen; ++I) {
      ObjRef Node =
          Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/2, (I % 97) == 0);
      if (!Node)
        break;
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(HeadRoot, Node);
      if (I % 16 == 15)
        for (unsigned C = 0; C != 24; ++C)
          Hp.allocate(216, 0);
    }
    // Fail the line under each finished list's head: the head object's
    // slot in the heap layout is deterministic, so every regime and
    // worker count retires the same logical line. The following full
    // collection then carries the recovery work, keeping the dynamic
    // failure hooks on the measured path alongside all four GC phases.
    if (!Hp.outOfMemory()) {
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.injectDynamicFailureBatch({objectPayload(Head)});
      Hp.collect(CollectionKind::Full);
    }
  }
  for (unsigned I = 0; I != 2 && !Hp.outOfMemory(); ++I)
    Hp.collect(CollectionKind::Full);
  R.Ms = gate::msSince(Start);

  HeapAuditor Auditor(Hp);
  R.Digest = Auditor.digest(/*HashPayload=*/true);
  const HeapStats &S = Hp.stats();
  R.GcCount = S.GcCount;
  R.FullGcCount = S.FullGcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.BytesAllocated = S.BytesAllocated;
  R.ObjectsEvacuated = S.ObjectsEvacuated;
  R.BlocksRetired = S.BlocksRetired;
  R.LinesSwept = S.LinesSwept;
  R.DynamicBatches = S.DynamicFailureBatches;
  return R;
}

/// One run under the given observability mask; metrics/rings are reset
/// first so each run's export stands alone.
RunResultObs runRegime(uint32_t Mask, unsigned GcThreads, uint64_t Seed,
                       double Scale) {
  obs::disable(obs::AllDomains);
  obs::MetricsRegistry::instance().resetValues();
  obs::FlightRecorder::instance().reset();
  obs::enable(Mask);
  RunResultObs R = runWorkload(GcThreads, Seed, Scale);
  if (Mask & obs::MetricsDomain)
    R.MetricsJson = obs::MetricsRegistry::instance().exportJsonString(
        /*IncludeTiming=*/false);
  obs::disable(obs::AllDomains);
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const gate::Options Opt = gate::parseArgs(
      argc, argv, "obs_overhead", gate::TakesScale | gate::Timed, 7);
  const uint64_t Seed = Opt.Seed;
  const double Scale = Opt.Scale;

  // Transparency + overhead: serial heap, disabled vs fully enabled.
  // The workload is tens of milliseconds, so absolute floors jitter with
  // machine load; a minimum-of-N on each side still flakes when a noise
  // burst spans one side's reps. Instead each rep runs the two regimes
  // back to back and contributes one enabled/disabled ratio - a slow
  // period inflates both legs of its pair and cancels - and the gate
  // takes the median ratio over the accumulated pairs, immune to a few
  // noisy pairs.
  RunResultObs Disabled, Enabled;
  bool HaveFirstPair = false;
  double DisabledMs = -1.0, EnabledMs = -1.0;
  std::vector<double> Ratios;
  double Overhead = 0.0;
  gate::measureRounds(
      Opt,
      [&] { runRegime(0, 1, Seed, Scale); }, // Page cache, allocator pools.
      [&](unsigned) {
        RunResultObs D = runRegime(0, 1, Seed, Scale);
        gate::keepMin(DisabledMs, D.Ms);
        RunResultObs E = runRegime(obs::AllDomains, 1, Seed, Scale);
        gate::keepMin(EnabledMs, E.Ms);
        if (D.Ms > 0.0)
          Ratios.push_back(E.Ms / D.Ms);
        if (!HaveFirstPair) {
          Disabled = D;
          Enabled = std::move(E);
          HaveFirstPair = true;
        }
      },
      [&] {
        Overhead = gate::median(Ratios) - 1.0;
        return Overhead < 0.05 ? std::string()
                               : gate::format("%.2f%%", Overhead * 100.0);
      });
  bool Transparent = sameDeterministic(Disabled, Enabled);
  std::printf("disabled best %.2f ms, enabled best %.2f ms, median "
              "paired overhead %.2f%% (gate %s: need < 5%%)\n",
              DisabledMs, EnabledMs, Overhead * 100.0,
              gate::armedLabel(Opt));
  std::printf("transparency: digest 0x%016llx vs 0x%016llx -> %s\n",
              (unsigned long long)Disabled.Digest,
              (unsigned long long)Enabled.Digest,
              Transparent ? "IDENTICAL" : "DIVERGED");

  // Metric determinism: byte-identical export for repeated runs and for
  // every GC worker count.
  std::vector<std::string> Exports;
  bool MetricsIdentical = true;
  for (unsigned C = 0; C != NumWorkerCounts; ++C) {
    RunResultObs R =
        runRegime(obs::MetricsDomain, WorkerCounts[C], Seed, Scale);
    if (!sameDeterministic(Disabled, R)) {
      MetricsIdentical = false;
      std::printf("MISMATCH: %u-worker heap diverged from serial\n",
                  WorkerCounts[C]);
    }
    Exports.push_back(std::move(R.MetricsJson));
  }
  RunResultObs Again = runRegime(obs::MetricsDomain, 1, Seed, Scale);
  Exports.push_back(std::move(Again.MetricsJson));
  for (size_t I = 1; I != Exports.size(); ++I)
    if (Exports[I] != Exports[0]) {
      MetricsIdentical = false;
      std::printf("MISMATCH: metrics export %zu differs from export 0\n",
                  I);
    }
  std::printf("metrics determinism (%u worker counts + rerun): %s\n",
              NumWorkerCounts,
              MetricsIdentical ? "IDENTICAL" : "DIVERGED");

  FILE *Out = gate::openOut(Opt);
  JsonWriter W(Out);
  gate::writeHead(W, "obs_overhead", Opt);
  W.key("digest");
  W.valueHex(Disabled.Digest);
  W.key("counters");
  W.openObject(JsonWriter::Style::Inline);
  W.key("gc_count");
  W.value(Disabled.GcCount);
  W.key("full_gc_count");
  W.value(Disabled.FullGcCount);
  W.key("objects_allocated");
  W.value(Disabled.ObjectsAllocated);
  W.key("bytes_allocated");
  W.value(Disabled.BytesAllocated);
  W.key("objects_evacuated");
  W.value(Disabled.ObjectsEvacuated);
  W.key("blocks_retired");
  W.value(Disabled.BlocksRetired);
  W.key("lines_swept");
  W.value(Disabled.LinesSwept);
  W.key("dynamic_batches");
  W.value(Disabled.DynamicBatches);
  W.close();
  W.key("transparent");
  W.value(Transparent);
  W.key("metrics_identical");
  W.value(MetricsIdentical);
  gate::finishOut(W, Out, Opt);

  if (!Transparent) {
    std::fprintf(stderr, "FAIL: observability changed deterministic "
                         "behavior\n");
    return 2;
  }
  if (!Opt.NoTimingGate && Overhead >= 0.05) {
    std::fprintf(stderr, "FAIL: %.2f%% observability overhead >= 5%%\n",
                 Overhead * 100.0);
    return 3;
  }
  if (!MetricsIdentical) {
    std::fprintf(stderr, "FAIL: metrics export is not deterministic\n");
    return 4;
  }
  return 0;
}
