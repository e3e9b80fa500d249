//===- wallbench/wallbench.cpp - Wall-clock benchmark ---------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Drives the public runtime APIs from outside and measures wall time.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Workloads (see README.md for why each exists):
//
//   suite_perfect    S-IX, 2x calibrated min heap, 0% failed lines, no
//                    clustering, 1 GC worker; lusearch-fix, pmd, xalan,
//                    hsqldb.
//   suite_pcm50_2cl  the same profiles and seeds at 50% uniform failed
//                    lines with two-page clustering and compensation.
//   gc_parallel      hsqldb, eclipse, fop at 2x min heap, 0% static
//                    failures, 4 GC workers, evenly spaced
//                    injectRandomDynamicFailure calls.
//   serve_storm      runServe over three tenants, one of them storming.
//
// Batch workloads are closed loops: one mutator, each step issued after
// the previous one returns, a fresh Runtime per invocation. A round runs
// one invocation of every profile; rounds repeat until --seconds of wall
// time have passed (at least MinRounds), each with fresh inputs drawn
// from --seed. A serve_storm round is two runServe calls on the same
// fleet: one with a 1 us horizon, which times set-up alone, and one that
// serves, an open loop on a virtual clock run unthrottled on the wall
// clock.
//
// Untraced runs read the clock only around set-up and steady phases,
// never per step. Traced runs alternate untraced and traced rounds: the
// traced ones time every step, injection and serve call, and the gap
// between the two kinds of round is the tracing overhead.
//
// Correctness checks run outside the timed regions: every batch
// invocation audits clean, round 0 repeats the discarded warm-up's inputs
// and must repeat its post-run digests, every gc_parallel digest equals
// a 1-worker oracle run of the same seed, and every serve tenant audits
// clean with arrivals = served + rejected. A failed check
// prints correct=false and exits 1; a usage error exits 64.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics (end-to-end untraced, per-layer traced).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "core/Runtime.h"
#include "gc/HeapAuditor.h"
#include "serve/Service.h"
#include "workload/Mutator.h"
#include "workload/Profile.h"
#include "workload/Runner.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace wearmem;
using namespace wallbench;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

uint64_t mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9E3779B97F4A7C15ULL + B + 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Nearest-rank percentile (rank ceil(Q * N)); 0 on empty input.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

/// The tail percentile for \p N samples: the highest one that leaves ten
/// samples beyond its rank, so the tail is the 11th-largest sample (the
/// median when there are 20 or fewer).
double tailQuantile(uint64_t N) {
  return N > 20 ? double(N - 10) / double(N) : 0.5;
}

std::string pctName(double Q) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "p%.4g", Q * 100.0);
  return Buf;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(" \t", Colon + 1));
    }
  return "unknown";
}

/// One printed metric.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

class Report {
public:
  void add(std::vector<Metric> &To, std::string Name, double Value,
           std::string Unit, std::string Note = "") {
    To.push_back({std::move(Name), Value, std::move(Unit), std::move(Note)});
  }
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Numbers in the paper's terms that apply to one workload family only;
  /// printed for people, not part of the JSON result.
  std::vector<Metric> Derived;
};

void printMetrics(const char *Kind, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("%-9s %-34s %16.6f %-8s %s\n", Kind, M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

struct BatchSpec {
  std::vector<const char *> Profiles;
  double FailureRate = 0.0;
  unsigned ClusteringPages = 0;
  unsigned GcThreads = 1;
  /// Evenly spaced injectRandomDynamicFailure calls per invocation.
  unsigned InjectCalls = 0;
  /// Rounds every run completes, however short --seconds is.
  unsigned MinRounds = 16;
  /// Untraced rounds that make one sample of the batch end-to-end times:
  /// set-up and steady time are the window's per-round means and the
  /// pause tail is taken over the window's pauses. The reported value is
  /// the median over windows, so a run that fits in more rounds gets more
  /// samples, not a higher tail percentile. Rounds draw different inputs,
  /// so a single round is a noisy sample.
  unsigned WindowRounds = 8;
};

constexpr double HeapFactor = 2.0;
constexpr size_t ServeMinRounds = 16;
constexpr unsigned GcParallelWorkers = 4;

bool batchSpecFor(const std::string &Name, BatchSpec &Out) {
  // The repository's shape-diverse quick set (small-object, medium-object
  // and large-array heavy, high survival), with lusearch-fix standing in
  // for avrora: at 50% failed lines the small-heap small-object profiles
  // (avrora, luindex, sunflow) do not finish on a few percent of seeds
  // (see README.md), and a suite must not lose invocations.
  const std::vector<const char *> Quick = {"lusearch-fix", "pmd", "xalan",
                                           "hsqldb"};
  if (Name == "suite_perfect") {
    Out.Profiles = Quick;
    return true;
  }
  if (Name == "suite_pcm50_2cl") {
    Out.Profiles = Quick;
    Out.FailureRate = 0.5;
    Out.ClusteringPages = 2;
    return true;
  }
  if (Name == "gc_parallel") {
    Out.Profiles = {"hsqldb", "eclipse", "fop"};
    Out.GcThreads = GcParallelWorkers;
    Out.InjectCalls = 44;
    Out.MinRounds = 4;
    Out.WindowRounds = 3;
    return true;
  }
  return false;
}

RuntimeConfig batchConfig(const BatchSpec &Spec, const Profile &P,
                          uint64_t Seed, unsigned GcThreads) {
  RuntimeConfig Cfg;
  Cfg.Collector = CollectorKind::StickyImmix;
  Cfg.HeapBytes = heapBytesFor(P, HeapFactor);
  Cfg.FailureRate = Spec.FailureRate;
  Cfg.ClusteringRegionPages = Spec.ClusteringPages;
  Cfg.CompensateForFailures = true;
  Cfg.GcThreads = GcThreads;
  Cfg.Seed = Seed;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Traced-run accumulation
//===----------------------------------------------------------------------===//

/// Everything a traced round records beyond the untraced numbers.
struct LayerTrace {
  explicit LayerTrace(Clock::time_point Epoch) : Spans(Epoch) {}
  SpanLog Spans;
  Histogram FastStepNs;
  Histogram SlowStepNs;
  std::vector<double> ConstructMs;
  std::vector<double> LivesetMs;
  std::vector<double> DynFailureMs;
  /// Self time per layer, summed over traced rounds.
  double SelfCoreMs = 0, SelfWorkloadMs = 0, SelfHeapMs = 0, SelfGcMs = 0,
         SelfInjectMs = 0, SelfServeMs = 0;
};

/// Sum of the pause-history entries past the given marks, in ns.
uint64_t newPauseNs(const Heap &H, size_t FullMark, size_t NurseryMark) {
  double Ms = 0;
  const auto &Full = H.fullGcPausesMs();
  const auto &Nursery = H.nurseryGcPausesMs();
  for (size_t I = FullMark; I < Full.size(); ++I)
    Ms += Full[I];
  for (size_t I = NurseryMark; I < Nursery.size(); ++I)
    Ms += Nursery[I];
  return static_cast<uint64_t>(Ms * 1e6);
}

//===----------------------------------------------------------------------===//
// Batch workloads
//===----------------------------------------------------------------------===//

struct Invocation {
  std::string Profile;
  bool Completed = false;
  double ConstructMs = 0, LivesetMs = 0, SteadyMs = 0;
  uint64_t SteadyBytes = 0;
  std::vector<double> NurseryMs, FullMs;
  /// Steady-phase deltas of the heap counters the layer metrics use.
  uint64_t HoleSearches = 0, LinesSkipped = 0, OverflowAllocs = 0,
           PerfectBlockRequests = 0, ObjectsMarked = 0, BytesEvacuated = 0;
  OsStats Os;
  unsigned InjectRequested = 0, InjectApplied = 0;
  DnfReason Dnf = DnfReason::None;
  uint64_t Digest = 0;
  AuditReport Audit;
};

/// The steady phase: steps until the profile's volume is allocated, with
/// the spec's injections spaced evenly over that volume. Traced=false
/// reads no clock inside the loop.
template <bool Traced>
bool steadyPhase(Runtime &Rt, Mutator &M, const BatchSpec &Spec, Rng &Inj,
                 Invocation &Out, LayerTrace *T, uint32_t Parent,
                 uint32_t InvId) {
  const Heap &H = Rt.heap();
  const HeapStats &S = Rt.stats();
  const uint64_t Target = M.targetBytes();
  unsigned NextCall = 1;
  auto threshold = [&](unsigned K) {
    return Target / (Spec.InjectCalls + 1) * K;
  };
  uint64_t NextInject =
      Spec.InjectCalls ? threshold(NextCall) : ~uint64_t(0);
  while (M.steadyAllocatedBytes() < Target) {
    if (M.steadyAllocatedBytes() >= NextInject) {
      ++Out.InjectRequested;
      if constexpr (Traced) {
        size_t F0 = H.fullGcPausesMs().size(),
               N0 = H.nurseryGcPausesMs().size();
        auto T0 = Clock::now();
        bool Applied = Rt.injectRandomDynamicFailure(Inj);
        auto T1 = Clock::now();
        uint64_t Child = newPauseNs(H, F0, N0);
        Out.InjectApplied += Applied;
        T->Spans.add("core.dyn_failure", Parent, InvId, T0, T1, Child);
        T->DynFailureMs.push_back(msBetween(T0, T1));
        uint64_t Dur = nsBetween(T0, T1);
        T->SelfInjectMs += double(Dur - std::min(Child, Dur)) / 1e6;
        T->SelfGcMs += double(std::min(Child, Dur)) / 1e6;
      } else {
        Out.InjectApplied += Rt.injectRandomDynamicFailure(Inj);
      }
      NextInject = ++NextCall <= Spec.InjectCalls ? threshold(NextCall)
                                                  : ~uint64_t(0);
    }
    if constexpr (Traced) {
      uint64_t Slow0 = S.AllocSlowPaths, Gc0 = S.GcCount;
      size_t F0 = H.fullGcPausesMs().size(),
             N0 = H.nurseryGcPausesMs().size();
      auto T0 = Clock::now();
      bool Ok = M.step();
      auto T1 = Clock::now();
      uint64_t Dur = nsBetween(T0, T1);
      if (S.GcCount != Gc0) {
        uint64_t Child = std::min(newPauseNs(H, F0, N0), Dur);
        T->Spans.add("heap.step", Parent, InvId, T0, T1, Child);
        T->SelfGcMs += double(Child) / 1e6;
        T->SelfHeapMs += double(Dur - Child) / 1e6;
      } else {
        (S.AllocSlowPaths != Slow0 ? T->SlowStepNs : T->FastStepNs).add(Dur);
        T->SelfHeapMs += double(Dur) / 1e6;
      }
      if (!Ok)
        return false;
    } else if (!M.step()) {
      return false;
    }
  }
  return !Rt.outOfMemory();
}

Invocation runInvocation(const BatchSpec &Spec, const Profile &P,
                         uint64_t Seed, unsigned GcThreads, LayerTrace *T,
                         uint32_t RoundSpan, uint32_t InvId) {
  Invocation Out;
  Out.Profile = P.Name;
  RuntimeConfig Cfg =
      batchConfig(Spec, P, mixSeed(Seed, 1), GcThreads);
  uint32_t InvSpan = T ? T->Spans.begin("invocation", RoundSpan, InvId) : 0;

  auto T0 = Clock::now();
  Runtime Rt(Cfg);
  auto T1 = Clock::now();
  Mutator M(Rt, P, mixSeed(Seed, 2));
  bool Ok = M.setUp();
  auto T2 = Clock::now();
  Out.ConstructMs = msBetween(T0, T1);
  Out.LivesetMs = msBetween(T1, T2);

  const HeapStats &S = Rt.stats();
  HeapStats Before = S;
  Rng Inj(mixSeed(Seed, 3));
  uint32_t SteadySpan = 0;
  if (T) {
    const Heap &H = Rt.heap();
    uint64_t SetupGc = newPauseNs(H, 0, 0);
    T->Spans.add("core.construct", InvSpan, InvId, T0, T1, 0);
    T->Spans.add("workload.setUp", InvSpan, InvId, T1, T2, SetupGc);
    T->ConstructMs.push_back(Out.ConstructMs);
    T->LivesetMs.push_back(Out.LivesetMs);
    T->SelfCoreMs += Out.ConstructMs;
    uint64_t SetupNs = nsBetween(T1, T2);
    T->SelfWorkloadMs += double(SetupNs - std::min(SetupGc, SetupNs)) / 1e6;
    T->SelfGcMs += double(std::min(SetupGc, SetupNs)) / 1e6;
    SteadySpan = T->Spans.begin("steady", InvSpan, InvId);
  }
  auto T3 = Clock::now();
  if (Ok)
    Ok = T ? steadyPhase<true>(Rt, M, Spec, Inj, Out, T, SteadySpan, InvId)
           : steadyPhase<false>(Rt, M, Spec, Inj, Out, nullptr, 0, InvId);
  auto T4 = Clock::now();
  if (T) {
    T->Spans.end(SteadySpan);
    T->Spans.end(InvSpan);
  }
  Out.SteadyMs = msBetween(T3, T4);
  Out.Completed = Ok && M.steadyAllocatedBytes() >= M.targetBytes();
  Out.Dnf = Rt.heap().dnfReason();
  Out.SteadyBytes = M.steadyAllocatedBytes();
  Out.HoleSearches = S.HoleSearches - Before.HoleSearches;
  Out.LinesSkipped = S.LinesSkippedFailed - Before.LinesSkippedFailed;
  Out.OverflowAllocs = S.OverflowAllocs - Before.OverflowAllocs;
  Out.PerfectBlockRequests =
      S.PerfectBlockRequests - Before.PerfectBlockRequests;
  Out.ObjectsMarked = S.ObjectsMarked - Before.ObjectsMarked;
  Out.BytesEvacuated = S.BytesEvacuated - Before.BytesEvacuated;
  Out.Os = Rt.osStats();
  Out.NurseryMs = Rt.heap().nurseryGcPausesMs();
  Out.FullMs = Rt.heap().fullGcPausesMs();

  // Correctness evidence, outside every timed region.
  HeapAuditor Auditor(Rt.heap());
  Out.Audit = Auditor.audit();
  Out.Digest = Auditor.digest();
  return Out;
}

/// Per-workload state shared by every run mode.
struct RunState {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::unique_ptr<LayerTrace> T;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0, Failed = 0;
  double PeakRssMb = 0;
  /// CPUs the process may run on; single-threaded workloads move the
  /// mutator to the next one each round (see measureRounds).
  std::vector<int> Cpus;
  bool RotateCpus = false;
  Report Rep;

  void fail(std::string Msg) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", Msg.c_str());
    Failures.push_back(std::move(Msg));
  }
  /// Rounds alternate untraced / traced in a traced run.
  bool traced(size_t RoundIndex) const {
    return Trace && RoundIndex % 2 == 1;
  }
};

/// Runs \p RunRound(Traced, Index) once as a discarded warm-up with
/// index 0, then for indices 0, 1, ... until \p Seconds of wall time have
/// passed and at least \p MinRounds rounds ran, stopping at the first
/// failed check. Each index draws fresh inputs from the run's seed, so a
/// run's medians average over many inputs; the warm-up repeats round 0's
/// inputs, which is what the determinism check compares.
///
/// On a shared host each vCPU's speed drifts by a quarter or more over
/// seconds, independently of the others, and a run whose thread stays on
/// one vCPU inherits that vCPU's speed. With RS.RotateCpus the mutator
/// thread moves to the next allowed CPU every round, so every run samples
/// all of them alike. Workloads with GC helper threads are left unpinned.
template <typename RoundT, typename Fn>
std::vector<RoundT> measureRounds(RunState &RS, size_t MinRounds,
                                  Fn RunRound) {
  auto pinFor = [&](size_t Round) {
    if (!RS.RotateCpus || RS.Cpus.empty())
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(RS.Cpus[Round % RS.Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  };
  pinFor(0);
  RunRound(false, 0);
  std::vector<RoundT> Rounds;
  auto Start = Clock::now();
  while (RS.Failures.empty() &&
         (Rounds.size() < MinRounds ||
          msBetween(Start, Clock::now()) < RS.Seconds * 1000.0)) {
    pinFor(Rounds.size());
    Rounds.push_back(RunRound(RS.traced(Rounds.size()), Rounds.size()));
    // Peak memory after a fixed amount of work, so the number of rounds
    // a run fits in does not move it.
    if (Rounds.size() == MinRounds)
      RS.PeakRssMb = peakRssMb();
  }
  return Rounds;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx", (unsigned long long)V);
  return Buf;
}

/// Layer totals over the traced rounds. Every workload reports the same
/// per-layer names; a layer a workload does not reach reads 0.
struct LayerTotals {
  size_t TracedRounds = 0;
  std::vector<double> TracedWallMs, UntracedWallMs;
  // Batch workloads.
  uint64_t Searches = 0, Skipped = 0, Overflow = 0, PerfectBlocks = 0,
           Marked = 0, Evacuated = 0, PerfectPages = 0, Dram = 0, Debt = 0,
           InjRequested = 0, InjApplied = 0;
  std::vector<double> NurseryMs, FullMs;
  double SteadyMs = 0;
  // serve_storm.
  double Stalls = 0, Inflicted = 0, BufferPeak = 0, Rebalances = 0,
         GcCount = 0;
  std::array<double, NumRejectKinds> Rejected{};
  std::vector<double> VirtualP99Us;
};

void addLayerMetrics(Report &Rep, const LayerTrace &T, const LayerTotals &Tot,
                     const char *ConstructWhat, const char *LivesetWhat) {
  auto &L = Rep.PerLayer;
  const double PerRound =
      Tot.TracedRounds ? 1.0 / double(Tot.TracedRounds) : 0.0;
  const std::string PerRoundNote = "per traced round";
  auto of = [](size_t N, const char *What) {
    return "p50 of " + std::to_string(N) + " " + What;
  };
  Rep.add(L, "core.construct_ms", median(T.ConstructMs), "ms",
          of(T.ConstructMs.size(), ConstructWhat));
  Rep.add(L, "workload.liveset_ms", median(T.LivesetMs), "ms",
          of(T.LivesetMs.size(), LivesetWhat));

  Rep.add(L, "heap.fast_step_ns.p50", T.FastStepNs.percentile(0.5), "ns",
          "steps with no allocation slow path and no GC");
  Rep.add(L, "heap.fast_step_ns.count",
          double(T.FastStepNs.count()) * PerRound, "count", PerRoundNote);
  const double SlowQ = tailQuantile(T.SlowStepNs.count());
  Rep.add(L, "heap.slow_step_ns.p50", T.SlowStepNs.percentile(0.5), "ns",
          "steps with an allocation slow path and no GC");
  Rep.add(L, "heap.slow_step_ns.tail", T.SlowStepNs.percentile(SlowQ), "ns",
          pctName(SlowQ) + " of " + std::to_string(T.SlowStepNs.count()));
  Rep.add(L, "heap.slow_step_ns.count",
          double(T.SlowStepNs.count()) * PerRound, "count", PerRoundNote);
  Rep.add(L, "heap.lines_skipped_per_search",
          Tot.Searches ? double(Tot.Skipped) / double(Tot.Searches) : 0.0,
          "lines", "failed lines skipped per hole search");
  Rep.add(L, "heap.overflow_allocs", double(Tot.Overflow) * PerRound,
          "count", PerRoundNote);
  Rep.add(L, "heap.perfect_block_requests",
          double(Tot.PerfectBlocks) * PerRound, "count", PerRoundNote);
  Rep.add(L, "os.perfect_pages", double(Tot.PerfectPages) * PerRound,
          "count", PerRoundNote + ", perfect pages requested");
  Rep.add(L, "os.dram_borrowed", double(Tot.Dram) * PerRound, "count", PerRoundNote);
  Rep.add(L, "os.debt_repaid", double(Tot.Debt) * PerRound, "count", PerRoundNote);

  const double PauseMs =
      std::accumulate(Tot.NurseryMs.begin(), Tot.NurseryMs.end(), 0.0) +
      std::accumulate(Tot.FullMs.begin(), Tot.FullMs.end(), 0.0);
  const double NQ = tailQuantile(Tot.NurseryMs.size());
  const double FQ = tailQuantile(Tot.FullMs.size());
  Rep.add(L, "gc.nursery_pause_ms.p50", median(Tot.NurseryMs), "ms", "");
  Rep.add(L, "gc.nursery_pause_ms.tail", percentile(Tot.NurseryMs, NQ), "ms",
          pctName(NQ) + " of " + std::to_string(Tot.NurseryMs.size()));
  Rep.add(L, "gc.nursery_pause_ms.count",
          double(Tot.NurseryMs.size()) * PerRound, "count", PerRoundNote);
  Rep.add(L, "gc.full_pause_ms.p50", median(Tot.FullMs), "ms", "");
  Rep.add(L, "gc.full_pause_ms.tail", percentile(Tot.FullMs, FQ), "ms",
          pctName(FQ) + " of " + std::to_string(Tot.FullMs.size()));
  Rep.add(L, "gc.full_pause_ms.count", double(Tot.FullMs.size()) * PerRound,
          "count", PerRoundNote);
  Rep.add(L, "gc.busy_share",
          Tot.SteadyMs > 0 ? PauseMs / Tot.SteadyMs : 0.0, "share",
          "pause time over steady wall time");
  // ObjectsMarked and BytesEvacuated count every collection, so the rates
  // divide by all pause time, nursery included.
  Rep.add(L, "gc.mark_objs_per_ms",
          PauseMs > 0 ? double(Tot.Marked) / PauseMs : 0.0, "obj/ms",
          "objects marked over pause time");
  Rep.add(L, "gc.evac_mb_per_s",
          PauseMs > 0
              ? double(Tot.Evacuated) / double(MiB) / (PauseMs / 1000.0)
              : 0.0,
          "MB/s", "bytes evacuated over pause time");

  Rep.add(L, "core.dyn_failure_ms.p50", median(T.DynFailureMs), "ms",
          "injectRandomDynamicFailure, its collection included");
  Rep.add(L, "core.dyn_failure_ms.max", percentile(T.DynFailureMs, 1.0),
          "ms", "of " + std::to_string(T.DynFailureMs.size()) + " calls");
  Rep.add(L, "inject.requested", double(Tot.InjRequested) * PerRound,
          "count", PerRoundNote);
  Rep.add(L, "inject.applied", double(Tot.InjApplied) * PerRound, "count",
          PerRoundNote);

  Rep.add(L, "serve.stalls_observed", Tot.Stalls * PerRound, "count", PerRoundNote);
  Rep.add(L, "serve.stalls_inflicted", Tot.Inflicted * PerRound, "count",
          PerRoundNote);
  Rep.add(L, "serve.buffer_peak_lines", Tot.BufferPeak, "lines",
          "max over traced rounds");
  Rep.add(L, "serve.rebalances", Tot.Rebalances * PerRound, "count", PerRoundNote);
  for (unsigned K = 0; K != NumRejectKinds; ++K)
    Rep.add(L, std::string("serve.rejected.") + rejectKindName(K),
            Tot.Rejected[K] * PerRound, "count", PerRoundNote);
  Rep.add(L, "serve.gc_count", Tot.GcCount * PerRound, "count", PerRoundNote);
  Rep.add(L, "serve.virtual_p99_us", median(Tot.VirtualP99Us), "us",
          "virtual sojourn p99, median over traced rounds");

  Rep.add(L, "self.core_ms", T.SelfCoreMs * PerRound, "ms",
          PerRoundNote + ", runtime construction");
  Rep.add(L, "self.workload_ms", T.SelfWorkloadMs * PerRound, "ms",
          PerRoundNote + ", live-set build minus its collections");
  Rep.add(L, "self.heap_ms", T.SelfHeapMs * PerRound, "ms",
          PerRoundNote + ", mutator steps minus their collections");
  Rep.add(L, "self.gc_ms", T.SelfGcMs * PerRound, "ms",
          PerRoundNote + ", collections inside timed calls");
  Rep.add(L, "self.inject_ms", T.SelfInjectMs * PerRound, "ms",
          PerRoundNote + ", injections minus their collections");
  Rep.add(L, "self.serve_ms", T.SelfServeMs * PerRound, "ms",
          PerRoundNote +
              ", both runServe calls with their audits (no child spans)");

  const double Traced = median(Tot.TracedWallMs);
  const double Untraced = median(Tot.UntracedWallMs);
  Rep.add(L, "trace.overhead_ms", Traced - Untraced, "ms",
          "traced minus untraced timed wall per round (medians of " +
              std::to_string(Tot.TracedWallMs.size()) + " and " +
              std::to_string(Tot.UntracedWallMs.size()) + ")");
  Rep.add(L, "trace.overhead_share",
          Untraced > 0 ? (Traced - Untraced) / Untraced : 0.0, "share",
          "of the untraced round");
}

//===----------------------------------------------------------------------===//
// Batch workloads: rounds of invocations
//===----------------------------------------------------------------------===//

struct Round {
  bool Traced = false;
  double SetupMs = 0, SteadyMs = 0;
  std::vector<Invocation> Invs;
};

int runBatch(RunState &RS, const BatchSpec &Spec) {
  std::vector<const Profile *> Profiles;
  for (const char *Name : Spec.Profiles)
    Profiles.push_back(findProfile(Name));
  // Round R, profile K: the same seed in every workload, so the two
  // suites run identical mutator streams.
  auto invSeed = [&](size_t R, size_t K) {
    return mixSeed(mixSeed(RS.Seed, R), 100 + K);
  };

  std::vector<uint64_t> Reference;
  uint32_t InvCounter = 0;
  auto RunRound = [&](bool Traced, size_t Index) {
    Round R;
    R.Traced = Traced;
    LayerTrace *T = Traced ? RS.T.get() : nullptr;
    uint32_t RoundSpan = T ? T->Spans.begin("round", 0, 0) : 0;
    for (size_t K = 0; K != Profiles.size(); ++K) {
      Invocation Inv = runInvocation(Spec, *Profiles[K], invSeed(Index, K),
                                     Spec.GcThreads, T, RoundSpan,
                                     ++InvCounter);
      R.SetupMs += Inv.ConstructMs + Inv.LivesetMs;
      R.SteadyMs += Inv.SteadyMs;
      std::string Where = Inv.Profile + " invocation " +
                          std::to_string(InvCounter) + " (round " +
                          std::to_string(Index) + ")";
      if (!Inv.Audit.passed())
        RS.fail(Where + ": audit: " + Inv.Audit.Violations.front());
      if (Index == 0 && Reference.size() < Profiles.size())
        Reference.push_back(Inv.Digest);
      else if (Index == 0 && Inv.Digest != Reference[K])
        RS.fail(Where + ": digest " + hex(Inv.Digest) +
                " differs from the warm-up's " + hex(Reference[K]));
      // Independent oracle for the parallel engine: the same seed with
      // one GC worker, untimed.
      if (Spec.GcThreads > 1) {
        uint64_t Oracle = runInvocation(Spec, *Profiles[K], invSeed(Index, K),
                                        1, nullptr, 0, 0)
                              .Digest;
        if (Inv.Digest != Oracle)
          RS.fail(Where + ": digest " + hex(Inv.Digest) + " with " +
                  std::to_string(Spec.GcThreads) +
                  " GC workers differs from the 1-worker oracle " +
                  hex(Oracle));
      }
      R.Invs.push_back(std::move(Inv));
    }
    if (T)
      T->Spans.end(RoundSpan);
    return R;
  };
  std::vector<Round> Rounds =
      measureRounds<Round>(RS, Spec.MinRounds, RunRound);
  if (!RS.Failures.empty())
    return 1;

  // End-to-end numbers come from the untraced rounds.
  std::vector<double> SetupS, RoundMs, Pauses, Window, WindowTails,
      WindowSizes;
  size_t Untraced = 0, WindowFill = 0;
  double WindowSetupMs = 0, WindowSteadyMs = 0;
  auto closeWindow = [&] {
    SetupS.push_back(WindowSetupMs / 1000.0 / double(WindowFill));
    RoundMs.push_back(WindowSteadyMs / double(WindowFill));
    WindowTails.push_back(percentile(Window, tailQuantile(Window.size())));
    WindowSizes.push_back(double(Window.size()));
    Window.clear();
    WindowFill = 0;
    WindowSetupMs = WindowSteadyMs = 0;
  };
  uint64_t Bytes = 0;
  double SteadyMs = 0;
  std::map<std::string, std::vector<double>> ProfileSteady;
  LayerTotals Tot;
  for (const Round &R : Rounds) {
    for (const Invocation &Inv : R.Invs) {
      ++RS.Attempted;
      if (!Inv.Completed) {
        ++RS.Failed;
        std::printf("dnf       %s did not finish: %s\n", Inv.Profile.c_str(),
                    dnfReasonName(Inv.Dnf));
      }
    }
    (R.Traced ? Tot.TracedWallMs : Tot.UntracedWallMs)
        .push_back(R.SetupMs + R.SteadyMs);
    if (R.Traced) {
      ++Tot.TracedRounds;
      Tot.SteadyMs += R.SteadyMs;
      for (const Invocation &Inv : R.Invs) {
        Tot.NurseryMs.insert(Tot.NurseryMs.end(), Inv.NurseryMs.begin(),
                             Inv.NurseryMs.end());
        Tot.FullMs.insert(Tot.FullMs.end(), Inv.FullMs.begin(),
                          Inv.FullMs.end());
        Tot.Searches += Inv.HoleSearches;
        Tot.Skipped += Inv.LinesSkipped;
        Tot.Overflow += Inv.OverflowAllocs;
        Tot.PerfectBlocks += Inv.PerfectBlockRequests;
        Tot.Marked += Inv.ObjectsMarked;
        Tot.Evacuated += Inv.BytesEvacuated;
        Tot.PerfectPages += Inv.Os.PerfectPagesRequested;
        Tot.Dram += Inv.Os.DramBorrowed;
        Tot.Debt += Inv.Os.DebtRepaid;
        Tot.InjRequested += Inv.InjectRequested;
        Tot.InjApplied += Inv.InjectApplied;
      }
      continue;
    }
    ++Untraced;
    ++WindowFill;
    WindowSetupMs += R.SetupMs;
    WindowSteadyMs += R.SteadyMs;
    SteadyMs += R.SteadyMs;
    for (const Invocation &Inv : R.Invs) {
      Bytes += Inv.SteadyBytes;
      ProfileSteady[Inv.Profile].push_back(Inv.SteadyMs);
      for (const std::vector<double> *Ms : {&Inv.NurseryMs, &Inv.FullMs})
        for (double P : *Ms) {
          Pauses.push_back(P * 1000.0);
          Window.push_back(P * 1000.0);
        }
    }
    if (WindowFill == Spec.WindowRounds)
      closeWindow();
  }
  // A run with fewer untraced rounds than one window (a short traced run)
  // pools what it has.
  if (WindowTails.empty() && WindowFill)
    closeWindow();
  const double TailQ = tailQuantile(uint64_t(median(WindowSizes)));

  const double OkShare = double(RS.Attempted - RS.Failed) /
                         double(std::max<uint64_t>(RS.Attempted, 1));
  const std::string RoundsNote =
      "median of " + std::to_string(Untraced) + " rounds";
  const std::string WindowsNote =
      "mean per round over windows of " + std::to_string(Spec.WindowRounds) +
      " rounds, median of " + std::to_string(WindowTails.size()) +
      " windows";
  const std::string TailNote =
      pctName(TailQ) + " of ~" +
      std::to_string(uint64_t(median(WindowSizes))) +
      " pauses per window of " + std::to_string(Spec.WindowRounds) +
      " rounds, median of " + std::to_string(WindowTails.size()) + " windows";
  const std::string RssNote = "ru_maxrss after the warm-up and " +
                              std::to_string(Spec.MinRounds) + " rounds";
  Report &Rep = RS.Rep;
  Rep.add(Rep.EndToEnd, "setup_s", median(SetupS), "s",
          "Runtime() + setUp() summed over a round, " + WindowsNote);
  Rep.add(Rep.EndToEnd, "round_ms", median(RoundMs), "ms",
          "steady mutator + GC time of a round, " + WindowsNote);
  Rep.add(Rep.EndToEnd, "latency_p50_us", percentile(Pauses, 0.5), "us",
          "GC pause p50 of " + std::to_string(Pauses.size()));
  Rep.add(Rep.EndToEnd, "latency_tail_us", median(WindowTails), "us",
          "GC pause " + TailNote);
  Rep.add(Rep.EndToEnd, "ok_share", OkShare, "share",
          std::to_string(RS.Attempted - RS.Failed) + " of " +
              std::to_string(RS.Attempted) + " invocations finished");
  Rep.add(Rep.EndToEnd, "peak_rss_mb", RS.PeakRssMb, "MB", RssNote);

  Rep.add(Rep.Derived, "alloc_mb_per_s",
          SteadyMs > 0 ? double(Bytes) / double(MiB) / (SteadyMs / 1000.0)
                       : 0.0,
          "MB/s", "steady-state allocation over steady wall time");
  Rep.add(Rep.Derived, "gc_pause_p50_ms", percentile(Pauses, 0.5) / 1000.0,
          "ms", "of " + std::to_string(Pauses.size()) + " pauses");
  Rep.add(Rep.Derived, "gc_pause_tail_ms",
          median(WindowTails) / 1000.0, "ms", TailNote);
  Rep.add(Rep.Derived, "failed_share", 1.0 - OkShare, "share",
          "invocations that did not finish");
  for (const auto &[Name, Ms] : ProfileSteady)
    Rep.add(Rep.Derived, "profile_steady_ms." + Name, median(Ms), "ms",
            RoundsNote);

  if (RS.Trace)
    addLayerMetrics(Rep, *RS.T, Tot, "Runtime()", "setUp()");
  return 0;
}

//===----------------------------------------------------------------------===//
// serve_storm: rounds of runServe calls
//===----------------------------------------------------------------------===//

/// Three tenants of different shapes (small-object, medium-object and
/// large-array heavy); the large-array tenant storms its own shard on an
/// allocation clock, hard enough to trip the shared failure buffer's
/// 16-line backpressure at its neighbours.
ServeOptions fleetOptions(uint64_t Seed) {
  ServeOptions Opt;
  Opt.Tenants.resize(3);
  Opt.Tenants[0].ProfileName = "luindex";
  Opt.Tenants[1].ProfileName = "pmd";
  Opt.Tenants[2].ProfileName = "xalan";
  Opt.Tenants[2].Campaign = "storm@alloc:2m+160k:lines=24,hot";
  Opt.ArrivalRatePerSec = 3000.0;
  Opt.DurationSec = 2.0;
  Opt.Policy = QuotaPolicy::StaticQuota;
  Opt.LanesPerShard = 1;
  Opt.GcThreads = 1;
  Opt.Seed = Seed;
  // The harness default. At the serve gate's 1.5x the quiet luindex
  // tenant exhausted its heap in about one 2 s horizon in 400.
  Opt.HeapFactor = 2.5;
  Opt.SessionSteps = 24;
  Opt.Dir.BackpressureLines = 16;
  return Opt;
}

/// The same fleet with a 1 us horizon: no request arrives (or, rarely, one
/// does), so runServe's wall time is its own set-up - directory
/// registration, TenantShard construction and warm-up of every tenant.
ServeOptions setupOnly(ServeOptions Opt) {
  Opt.DurationSec = 1e-6;
  return Opt;
}

struct ServeRound {
  bool Traced = false;
  double SetupMs = 0;
  ServeResult R;
};

int runServeStorm(RunState &RS) {
  std::vector<uint64_t> Reference;
  uint32_t InvCounter = 0;
  auto RunRound = [&](bool Traced, size_t Index) {
    const ServeOptions Opt = fleetOptions(mixSeed(mixSeed(RS.Seed, Index), 7));
    ServeRound SR;
    SR.Traced = Traced;
    LayerTrace *T = Traced ? RS.T.get() : nullptr;
    const uint32_t Id = ++InvCounter;
    const uint32_t RoundSpan = T ? T->Spans.begin("round", 0, Id) : 0;
    auto T0 = Clock::now();
    ServeResult Setup = runServe(setupOnly(Opt));
    auto T1 = Clock::now();
    SR.R = runServe(Opt);
    auto T2 = Clock::now();
    SR.SetupMs = Setup.WallMs;
    if (T) {
      T->Spans.add("serve.setup", RoundSpan, Id, T0, T1, 0);
      T->Spans.add("serve.runServe", RoundSpan, Id, T1, T2, 0);
      T->ConstructMs.push_back(Setup.WallMs);
      T->SelfServeMs += msBetween(T0, T2);
      T->Spans.end(RoundSpan);
    }
    // Checks, outside the timed regions (runServe audits and digests its
    // tenants after its own wall clock stops).
    const std::string Where = "serve round " + std::to_string(Id);
    std::vector<uint64_t> Digests;
    for (const ServeResult *R : {&Setup, &SR.R}) {
      const std::string What = Where + (R == &Setup ? " set-up" : "");
      if (!R->ConfigOk) {
        RS.fail(What + ": " + R->Error);
        return SR;
      }
      for (const TenantServeResult &Tn : R->Tenants) {
        const std::string Who = What + " tenant " + std::to_string(Tn.Id) +
                                " (" + Tn.ProfileName + ")";
        uint64_t Rejected = 0;
        for (uint64_t N : Tn.Rejected)
          Rejected += N;
        if (!Tn.AuditPassed)
          RS.fail(Who + ": heap audit failed");
        if (Tn.Arrivals != Tn.Served + Rejected)
          RS.fail(Who + ": arrivals " + std::to_string(Tn.Arrivals) +
                  " != served " + std::to_string(Tn.Served) +
                  " + rejected " + std::to_string(Rejected));
        if (R == &SR.R)
          Digests.push_back(Tn.Digest);
      }
    }
    if (Index == 0 && Reference.empty())
      Reference = Digests;
    else if (Index == 0 && Digests != Reference)
      RS.fail(Where + ": tenant digests differ from the warm-up's");
    return SR;
  };
  std::vector<ServeRound> Rounds =
      measureRounds<ServeRound>(RS, ServeMinRounds, RunRound);
  if (!RS.Failures.empty())
    return 1;

  // The arrival rate and horizon are fixed, so rounds serve about the
  // same number of requests; the first round's count fixes the tail
  // percentile for the whole run.
  const uint64_t PerRoundRequests = Rounds.front().R.FleetWall.Count;
  const bool UseP999 = tailQuantile(PerRoundRequests) >= 0.999;
  const double TailQ = UseP999 ? 0.999 : 0.99; // What FleetWall offers.
  std::vector<double> SetupS, RoundMs, P50, Tail;
  uint64_t Arrivals = 0, Served = 0, Exhausted = 0, Rejected = 0, Shed = 0,
           UntracedServed = 0;
  double ServeMs = 0;
  LayerTotals Tot;
  for (const ServeRound &SR : Rounds) {
    (SR.Traced ? Tot.TracedWallMs : Tot.UntracedWallMs)
        .push_back(SR.SetupMs + SR.R.WallMs);
    for (const TenantServeResult &Tn : SR.R.Tenants) {
      Arrivals += Tn.Arrivals;
      Served += Tn.Served;
      Shed += Tn.ShedRequests;
      Exhausted += Tn.ExhaustedRequests;
      for (uint64_t N : Tn.Rejected)
        Rejected += N;
    }
    if (SR.Traced) {
      ++Tot.TracedRounds;
      for (const TenantServeResult &Tn : SR.R.Tenants) {
        Tot.Stalls += double(Tn.StallsObserved);
        Tot.Inflicted += double(Tn.StallsInflicted);
        Tot.GcCount += double(Tn.GcCount);
        for (unsigned K = 0; K != NumRejectKinds; ++K)
          Tot.Rejected[K] += double(Tn.Rejected[K]);
      }
      Tot.BufferPeak = std::max(Tot.BufferPeak, double(SR.R.BufferPeak));
      Tot.Rebalances += double(SR.R.Rebalances);
      Tot.VirtualP99Us.push_back(double(SR.R.FleetSojourn.P99));
      continue;
    }
    SetupS.push_back(SR.SetupMs / 1000.0);
    RoundMs.push_back(SR.R.WallMs);
    ServeMs += SR.R.WallMs;
    UntracedServed += SR.R.totalServed();
    P50.push_back(SR.R.FleetWall.P50Us);
    Tail.push_back(UseP999 ? SR.R.FleetWall.P999Us : SR.R.FleetWall.P99Us);
  }
  const uint64_t Ok = Served - Shed - Exhausted;
  RS.Attempted = Arrivals;
  RS.Failed = Exhausted;
  const double OkShare = double(Ok) / double(std::max<uint64_t>(Arrivals, 1));

  Report &Rep = RS.Rep;
  const std::string RoundsNote =
      "median of " + std::to_string(SetupS.size()) + " rounds";
  const std::string RssNote = "ru_maxrss after the warm-up and " +
                              std::to_string(ServeMinRounds) + " rounds";
  const std::string TailNote = pctName(TailQ) + " of " +
                               std::to_string(PerRoundRequests) +
                               " requests per round, " + RoundsNote;
  Rep.add(Rep.EndToEnd, "setup_s", median(SetupS), "s",
          "runServe wall time with a 1 us horizon, " + RoundsNote);
  Rep.add(Rep.EndToEnd, "round_ms", median(RoundMs), "ms",
          "runServe wall time, its set-up included, " + RoundsNote);
  Rep.add(Rep.EndToEnd, "latency_p50_us", median(P50), "us",
          "request wall time p50, " + RoundsNote);
  Rep.add(Rep.EndToEnd, "latency_tail_us", median(Tail), "us",
          "request wall time " + TailNote);
  Rep.add(Rep.EndToEnd, "ok_share", OkShare, "share",
          std::to_string(Ok) + " of " + std::to_string(Arrivals) +
              " arrivals served without shedding or exhaustion");
  Rep.add(Rep.EndToEnd, "peak_rss_mb", RS.PeakRssMb, "MB", RssNote);

  Rep.add(Rep.Derived, "serve_rps",
          ServeMs > 0 ? double(UntracedServed) / (ServeMs / 1000.0) : 0.0,
          "1/s", "requests served per runServe wall second");
  Rep.add(Rep.Derived, "req_p50_us", median(P50), "us", "FleetWall p50");
  Rep.add(Rep.Derived, "req_tail_us", median(Tail), "us", TailNote);
  Rep.add(Rep.Derived, "failed_share", 1.0 - OkShare, "share",
          std::to_string(Rejected) + " rejected, " + std::to_string(Shed) +
              " shed, " + std::to_string(Exhausted) + " exhausted");

  if (RS.Trace)
    addLayerMetrics(Rep, *RS.T, Tot, "set-up-only runServe calls",
                    "(inside runServe)");
  return 0;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

int usage(const char *Msg) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload "
               "<suite_perfect|suite_pcm50_2cl|gc_parallel|serve_storm> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n",
               Msg);
  return 64;
}

void printJson(const RunState &RS, bool Correct) {
  const std::vector<Metric> &Ms =
      RS.Trace ? RS.Rep.PerLayer : RS.Rep.EndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(RS.Attempted, 1),
              (unsigned long long)RS.Failed);
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunState RS;
  std::string SpansOut;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      RS.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      RS.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      RS.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && RS.Seconds > 0 &&
                    RS.Seconds <= 120;
    } else if (Flag == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      RS.Trace = Value == "1";
    } else if (Flag == "--spans-out") {
      SpansOut = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds (0 < s <= 120) and --trace "
                 "(0 or 1) are required");
  BatchSpec Spec;
  const bool IsBatch = batchSpecFor(RS.Workload, Spec);
  if (!IsBatch && RS.Workload != "serve_storm")
    return usage(("unknown workload " + RS.Workload).c_str());

  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Allowed))
        RS.Cpus.push_back(Cpu);
  RS.RotateCpus = !IsBatch || Spec.GcThreads == 1;

  auto Epoch = Clock::now();
  RS.T = std::make_unique<LayerTrace>(Epoch);
  std::printf("host      cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s "
              "flags=\"%s\"\n",
              cpuModel().c_str(), std::thread::hardware_concurrency(),
              WALLBENCH_COMPILER, WALLBENCH_BUILD_TYPE, WALLBENCH_FLAGS);
  std::printf("run       workload=%s seed=%llu seconds=%g trace=%d\n",
              RS.Workload.c_str(), (unsigned long long)RS.Seed, RS.Seconds,
              RS.Trace ? 1 : 0);
  std::fflush(stdout);

  int Rc = IsBatch ? runBatch(RS, Spec) : runServeStorm(RS);
  const bool Correct = Rc == 0 && RS.Failures.empty();
  if (Correct) {
    printMetrics("e2e", RS.Rep.EndToEnd);
    printMetrics("derived", RS.Rep.Derived);
    printMetrics("layer", RS.Rep.PerLayer);
    if (RS.Trace) {
      std::printf("trace     %zu spans kept; fast steps folded into "
                  "histograms (%llu fast, %llu slow)\n",
                  RS.T->Spans.spans().size(),
                  (unsigned long long)RS.T->FastStepNs.count(),
                  (unsigned long long)RS.T->SlowStepNs.count());
      if (!SpansOut.empty() && !RS.T->Spans.write(SpansOut, RS.Workload))
        std::fprintf(stderr, "wallbench: cannot write %s\n",
                     SpansOut.c_str());
    }
  }
  printJson(RS, Correct);
  return Correct ? 0 : 1;
}
