//===- bench/GateHarness.h - Shared self-checking gate harness --*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the seven self-checking gates (perf01-05, rob01, serve01) share,
/// so each gate's file keeps only its own legs, checks and JSON fields:
///
///  - one flag parser. Every gate takes --seed N (default 42) and
///    --out FILE (default BENCH_<name>.json) and declares which of
///    --scale F (> 0), --reps N (>= 1) and --no-timing-gate it also
///    takes. An unknown or undeclared flag, a missing or malformed value
///    or an out-of-range value exits cli::ExitUsage (64) before any work;
///  - the paper's measurement rule (Section 5) for a gate's wall-clock
///    half: a discarded warm-up, then up to three rounds of --reps
///    measurements, re-measuring while the gate's own per-round
///    statistic is over its bound (noise clears, a regression does not);
///  - the JSON output file, whose "cannot open" exits 1.
///
/// Gate verdicts exit 2 and up; each gate documents its own.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_BENCH_GATEHARNESS_H
#define WEARMEM_BENCH_GATEHARNESS_H

#include "support/CliArgs.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace wearmem {
namespace gate {

/// The flags a gate may declare beyond --seed and --out.
enum : unsigned {
  TakesScale = 1u << 0, ///< --scale F
  Timed = 1u << 1,      ///< --reps N and --no-timing-gate
};

struct Options {
  uint64_t Seed = 42;
  double Scale = 1.0;
  unsigned Reps = 1;
  bool NoTimingGate = false;
  std::string OutPath;
};

/// Parses the command line of gate \p Name, which declares the flags in
/// \p Accepts and runs \p DefaultReps measurements per round by default.
inline Options parseArgs(int Argc, char **Argv, const char *Name,
                         unsigned Accepts, unsigned DefaultReps = 1) {
  Options Opt;
  Opt.Reps = DefaultReps;
  Opt.OutPath = std::string("BENCH_") + Name + ".json";
  auto Fail = [&](const std::string &Why) {
    std::fprintf(stderr, "%s: %s\nusage: %s [--seed N]%s%s [--out FILE]\n",
                 Argv[0], Why.c_str(), Argv[0],
                 Accepts & TakesScale ? " [--scale F]" : "",
                 Accepts & Timed ? " [--reps N] [--no-timing-gate]" : "");
    std::exit(cli::ExitUsage);
  };
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--no-timing-gate" && (Accepts & Timed)) {
      Opt.NoTimingGate = true;
      continue;
    }
    if (Flag != "--seed" && Flag != "--out" &&
        !(Flag == "--scale" && (Accepts & TakesScale)) &&
        !(Flag == "--reps" && (Accepts & Timed)))
      Fail("unknown option '" + Flag + "'");
    if (I + 1 == Argc)
      Fail("option '" + Flag + "' needs a value");
    const std::string V = Argv[++I];
    uint64_t U = 0;
    // strtoull would wrap a negative count around to 2^64 - N.
    bool Unsigned = V[0] != '-' && cli::parseU64(V.c_str(), U);
    if (Flag == "--out") {
      Opt.OutPath = V;
    } else if (Flag == "--seed") {
      if (!Unsigned)
        Fail("--seed needs an unsigned integer, got '" + V + "'");
      Opt.Seed = U;
    } else if (Flag == "--reps") {
      if (!Unsigned || U == 0 || U > UINT_MAX)
        Fail("--reps needs an integer >= 1, got '" + V + "'");
      Opt.Reps = static_cast<unsigned>(U);
    } else if (!cli::parseDouble(V.c_str(), Opt.Scale) ||
               !std::isfinite(Opt.Scale) || Opt.Scale <= 0.0) {
      Fail("--scale needs a number > 0, got '" + V + "'");
    }
  }
  return Opt;
}

inline double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Lowers \p Best to \p V; a negative \p Best means "nothing yet".
inline void keepMin(double &Best, double V) {
  if (Best < 0.0 || V < Best)
    Best = V;
}

/// The upper median of \p V (sorted in place); 0 when empty.
inline double median(std::vector<double> &V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0 : V[V.size() / 2];
}

/// printf into a std::string.
template <typename... Args>
std::string format(const char *Fmt, Args... As) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), Fmt, As...);
  return Buf;
}

/// How a wall-clock gate reports itself beside its measurement.
inline const char *armedLabel(const Options &Opt) {
  return Opt.NoTimingGate ? "disarmed by flag" : "armed";
}

/// The timing loop: \p Warmup once, then up to three rounds of
/// Opt.Reps calls to \p Measure(Rep). After each round \p RoundBreach
/// evaluates the gate's own statistic and describes what is over its
/// bound, or returns "" when nothing is. A round within bound, or any
/// round of a disarmed gate, ends the loop.
template <typename WarmupFn, typename MeasureFn, typename BreachFn>
void measureRounds(const Options &Opt, WarmupFn &&Warmup,
                   MeasureFn &&Measure, BreachFn &&RoundBreach) {
  constexpr unsigned MaxRounds = 3;
  Warmup();
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    for (unsigned Rep = 0; Rep != Opt.Reps; ++Rep)
      Measure(Rep);
    std::string Breach = RoundBreach();
    if (Opt.NoTimingGate || Breach.empty())
      return;
    std::printf("round %u over threshold (%s), re-measuring\n", Round + 1,
                Breach.c_str());
  }
}

/// Opens Opt.OutPath for the gate's JSON (exit 1 when it cannot).
inline FILE *openOut(const Options &Opt) {
  FILE *Out = std::fopen(Opt.OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s\n", Opt.OutPath.c_str());
    std::exit(1);
  }
  return Out;
}

/// Opens the root object with the fields a scaled gate's JSON leads with.
inline void writeHead(JsonWriter &W, const char *Bench, const Options &Opt) {
  W.openRoot();
  W.key("bench");
  W.value(Bench);
  W.key("seed");
  W.value(Opt.Seed);
  W.key("scale");
  W.valueF(Opt.Scale, 3);
}

/// Closes the root object and the file, and reports the path.
inline void finishOut(JsonWriter &W, FILE *Out, const Options &Opt) {
  W.closeRoot();
  std::fclose(Out);
  std::printf("wrote %s\n", Opt.OutPath.c_str());
}

} // namespace gate
} // namespace wearmem

#endif // WEARMEM_BENCH_GATEHARNESS_H
