//===- workload/Runner.cpp - Experiment runner and aggregation ------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "workload/Runner.h"

#include "support/CliArgs.h"
#include "workload/Mutator.h"

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>

using namespace wearmem;

RunResult wearmem::runOnce(const Profile &P, const RuntimeConfig &Config,
                           uint64_t WorkloadSeed, AdversaryKind Adversary) {
  RunResult Result;
  Runtime Rt(Config);
  Mutator M(Rt, P, WorkloadSeed, benchScale(), Adversary);

  auto T0 = std::chrono::steady_clock::now();
  bool SetupOk = M.setUp();
  auto T1 = std::chrono::steady_clock::now();
  Result.SetupMs =
      std::chrono::duration<double, std::milli>(T1 - T0).count();
  if (SetupOk) {
    while (M.steadyAllocatedBytes() < M.targetBytes())
      if (!M.step())
        break;
  }
  auto T2 = std::chrono::steady_clock::now();
  Result.RunMs =
      std::chrono::duration<double, std::milli>(T2 - T1).count();

  Result.Completed = SetupOk && !Rt.outOfMemory() &&
                     M.steadyAllocatedBytes() >= M.targetBytes();
  Result.Dnf = Rt.heap().dnfReason();
  Result.Stats = Rt.stats();
  Result.Os = Rt.osStats();
  Result.BudgetPages = Rt.heap().config().BudgetPages;
  const std::vector<double> &Pauses = Rt.heap().fullGcPausesMs();
  for (double Pause : Pauses) {
    Result.MeanFullPauseMs += Pause;
    Result.MaxFullPauseMs = std::max(Result.MaxFullPauseMs, Pause);
  }
  if (!Pauses.empty())
    Result.MeanFullPauseMs /= static_cast<double>(Pauses.size());
  return Result;
}

AggregateResult wearmem::runRepeated(const Profile &P,
                                     const RuntimeConfig &Config, int Reps,
                                     uint64_t WorkloadSeed,
                                     AdversaryKind Adversary) {
  AggregateResult Agg;
  RunningStat Times;
  Agg.Completed = true;
  // One discarded warmup invocation: the first run pays first-touch and
  // cache effects that would otherwise bias whichever configuration runs
  // first (the paper's replay methodology measures the second, warmed
  // iteration for the same reason).
  {
    RunResult Warmup = runOnce(P, Config, WorkloadSeed, Adversary);
    if (!Warmup.Completed) {
      Agg.Completed = false;
      Agg.Last = std::move(Warmup);
      return Agg;
    }
  }
  for (int Rep = 0; Rep != Reps; ++Rep) {
    RunResult R = runOnce(P, Config, WorkloadSeed, Adversary);
    if (!R.Completed) {
      Agg.Completed = false;
      Agg.Last = std::move(R);
      return Agg;
    }
    Times.add(R.SetupMs + R.RunMs);
    Agg.Last = std::move(R);
  }
  Agg.MeanMs = Times.mean();
  Agg.Ci95Ms = Times.ci95();
  return Agg;
}

int wearmem::benchReps(std::string *Err) {
  const char *Env = std::getenv("WEARMEM_BENCH_REPS");
  if (!Env)
    return 3;
  uint64_t Reps = 0;
  // strtoull would wrap a negative count around to 2^64 - N.
  if (Env[0] != '-' && cli::parseU64(Env, Reps) && Reps >= 1 &&
      Reps <= INT_MAX)
    return static_cast<int>(Reps);
  if (Err)
    *Err = std::string("WEARMEM_BENCH_REPS needs an integer >= 1, got '") +
           Env + "'";
  return 3;
}

double wearmem::normalizedTime(const AggregateResult &Variant,
                               const AggregateResult &Baseline) {
  if (!Variant.Completed || !Baseline.Completed || Baseline.MeanMs <= 0.0)
    return std::nan("");
  return Variant.MeanMs / Baseline.MeanMs;
}

double wearmem::geomeanNormalized(const std::vector<double> &PerProfile) {
  std::vector<double> Valid;
  for (double V : PerProfile)
    if (!std::isnan(V))
      Valid.push_back(V);
  if (Valid.size() != PerProfile.size())
    return std::nan(""); // The paper discards heap sizes where any
                         // benchmark fails; the curve terminates.
  return geomean(Valid);
}
