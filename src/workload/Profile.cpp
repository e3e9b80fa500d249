//===- workload/Profile.cpp - Synthetic benchmark profiles ----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "workload/Profile.h"

#include "pcm/Geometry.h"
#include "support/CliArgs.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

using namespace wearmem;

/// Mean total sizes of the three buckets (approximate, matching the
/// samplers below): log-uniform means for small/medium, uniform over
/// {2,4,8,16} pages for large.
static constexpr double MeanSmall = 100.0;
static constexpr double MeanMedium = 2300.0;
static constexpr double MeanLarge = 7.5 * 4096.0;

/// Converts byte-fraction weights into per-object pick probabilities.
static void countProbs(const SizeMix &Mix, double &PSmall,
                       double &PMedium) {
  double CS = Mix.SmallWeight / MeanSmall;
  double CM = Mix.MediumWeight / MeanMedium;
  double CL = Mix.LargeWeight / MeanLarge;
  double Total = CS + CM + CL;
  PSmall = CS / Total;
  PMedium = CM / Total;
}

double wearmem::meanObjectBytes(const SizeMix &Mix) {
  double PSmall, PMedium;
  countProbs(Mix, PSmall, PMedium);
  double PLarge = 1.0 - PSmall - PMedium;
  return PSmall * MeanSmall + PMedium * MeanMedium + PLarge * MeanLarge;
}

SampledObject wearmem::sampleObject(const SizeMix &Mix, Rng &Rand) {
  double PSmall, PMedium;
  countProbs(Mix, PSmall, PMedium);
  double Pick = Rand.nextDouble();
  SampledObject Obj;
  if (Pick < PSmall) {
    // Small: log-uniform payload in [8, 232] (total 24..256 with header).
    double LogLo = std::log(8.0), LogHi = std::log(232.0);
    double Size = std::exp(LogLo + Rand.nextDouble() * (LogHi - LogLo));
    Obj.PayloadBytes = static_cast<uint32_t>(Size);
    Obj.NumRefs = static_cast<uint16_t>(Rand.nextBelow(4));
    Obj.Large = false;
    return Obj;
  }
  if (Pick < PSmall + PMedium) {
    // Medium: log-uniform total in (256, 8000]; these exceed an Immix
    // line and flow through overflow allocation.
    double LogLo = std::log(272.0), LogHi = std::log(7800.0);
    double Size = std::exp(LogLo + Rand.nextDouble() * (LogHi - LogLo));
    Obj.PayloadBytes = static_cast<uint32_t>(Size);
    Obj.NumRefs = static_cast<uint16_t>(Rand.nextBelow(8));
    Obj.Large = false;
    return Obj;
  }
  // Large: arrays of 2..16 pages, power-of-two page counts so dead LOS
  // grants recycle exactly.
  unsigned PageLog = static_cast<unsigned>(Rand.nextInRange(1, 4));
  size_t Pages = size_t(1) << PageLog;
  Obj.PayloadBytes =
      static_cast<uint32_t>(Pages * PcmPageSize - 64); // Header headroom.
  Obj.NumRefs = 0;
  Obj.Large = true;
  return Obj;
}

const std::vector<Profile> &wearmem::allProfiles() {
  // Live sets and volumes are scaled-down DaCapo shapes; MinHeapBytes is
  // calibrated with tools-free binary search (see MinHeapTest) and baked
  // in for reproducible heap-size multiples.
  static const std::vector<Profile> Profiles = {
      // Name, LiveSet, AllocVolume, {small, medium, large}, survive,
      // mutate, pinned, minheap
      {"avrora", 1536 * KiB, 24 * MiB, {0.92, 0.07, 0.01}, 0.08, 0.05,
       0.002, 4608 * KiB},
      {"bloat", 2 * MiB, 40 * MiB, {0.85, 0.14, 0.01}, 0.10, 0.10, 0.001,
       7872 * KiB},
      {"eclipse", 4 * MiB, 48 * MiB, {0.82, 0.15, 0.03}, 0.12, 0.08,
       0.002, 13568 * KiB},
      {"fop", 3 * MiB, 24 * MiB, {0.80, 0.17, 0.03}, 0.20, 0.06, 0.001,
       11776 * KiB},
      {"hsqldb", 6 * MiB, 28 * MiB, {0.85, 0.12, 0.03}, 0.30, 0.12, 0.002,
       19 * MiB},
      {"jython", 2560 * KiB, 48 * MiB, {0.55, 0.43, 0.02}, 0.10, 0.05,
       0.001, 9216 * KiB},
      {"luindex", 1280 * KiB, 20 * MiB, {0.90, 0.09, 0.01}, 0.06, 0.04,
       0.001, 3328 * KiB},
      {"lusearch", 1536 * KiB, 120 * MiB, {0.86, 0.11, 0.03}, 0.05, 0.03,
       0.001, 8448 * KiB, /*Buggy=*/true},
      {"lusearch-fix", 1536 * KiB, 40 * MiB, {0.88, 0.11, 0.01}, 0.05,
       0.03, 0.001, 5376 * KiB},
      {"pmd", 2560 * KiB, 40 * MiB, {0.50, 0.48, 0.02}, 0.12, 0.08, 0.001,
       8832 * KiB},
      {"sunflow", 2 * MiB, 44 * MiB, {0.90, 0.08, 0.02}, 0.06, 0.04,
       0.001, 6272 * KiB},
      {"xalan", 3 * MiB, 40 * MiB, {0.35, 0.15, 0.50}, 0.10, 0.06, 0.001,
       6528 * KiB},
  };
  return Profiles;
}

std::vector<const Profile *> wearmem::analysisProfiles() {
  std::vector<const Profile *> Result;
  for (const Profile &P : allProfiles())
    if (!P.Buggy)
      Result.push_back(&P);
  return Result;
}

const Profile *wearmem::findProfile(const std::string &Name) {
  for (const Profile &P : allProfiles())
    if (Name == P.Name)
      return &P;
  return nullptr;
}

std::vector<const Profile *> wearmem::selectedProfiles(std::string *Err) {
  const char *Env = std::getenv("WEARMEM_PROFILES");
  std::string Choice = Env ? Env : "all";
  if (Choice == "all")
    return analysisProfiles();
  if (Choice == "quick") {
    // A shape-diverse subset: small-heavy, medium-heavy, large-heavy,
    // high-survival.
    std::vector<const Profile *> Result;
    for (const char *Name : {"avrora", "pmd", "xalan", "hsqldb"})
      Result.push_back(findProfile(Name));
    return Result;
  }
  std::vector<const Profile *> Result;
  std::stringstream Stream(Choice);
  std::string Name;
  while (std::getline(Stream, Name, ',')) {
    const Profile *P = findProfile(Name);
    if (!P) {
      if (Err)
        *Err = "WEARMEM_PROFILES names unknown profile '" + Name +
               "' (valid: all, quick, or a list of profile names)";
      return {};
    }
    Result.push_back(P);
  }
  if (Result.empty() && Err)
    *Err = "WEARMEM_PROFILES names no profile";
  return Result;
}

double wearmem::benchScale(std::string *Err) {
  const char *Env = std::getenv("WEARMEM_BENCH_SCALE");
  if (!Env)
    return 1.0;
  double Scale = 0.0;
  if (cli::parseDouble(Env, Scale) && std::isfinite(Scale) && Scale > 0.0)
    return Scale;
  if (Err)
    *Err = std::string("WEARMEM_BENCH_SCALE needs a number > 0, got '") +
           Env + "'";
  return 1.0;
}
