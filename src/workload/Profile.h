//===- workload/Profile.h - Synthetic benchmark profiles --------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic stand-ins for the DaCapo benchmarks (Section 5). Each profile
/// fixes an allocation *shape* - object-size mix, allocation volume, live
/// set, nursery survival, pointer-mutation rate, pinning - because those
/// shapes drive the paper's per-benchmark variation:
///
///  * pmd and jython allocate many *medium* objects, which stresses
///    overflow allocation and makes them the most failure-sensitive;
///  * xalan allocates very large arrays, leaning on perfect pages and the
///    clustering hardware's ability to produce them;
///  * lusearch carries the lucene allocation bug (a large structure
///    needlessly allocated in a hot loop, tripling the allocation rate);
///    lusearch-fix is the patched variant the paper analyses.
///
/// Absolute numbers are scaled down so each run takes milliseconds; the
/// relative shapes (and hence who wins where) are what reproduce.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_PROFILE_H
#define WEARMEM_WORKLOAD_PROFILE_H

#include "support/Random.h"
#include "support/Units.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wearmem {

/// Object-size mixture: the fraction of allocated *bytes* in each of
/// three buckets (converted internally to per-object probabilities using
/// the buckets' mean sizes).
struct SizeMix {
  double SmallWeight;  ///< 24..256 B objects.
  double MediumWeight; ///< 272..8064 B objects (Immix overflow range).
  double LargeWeight;  ///< 2..16 page LOS arrays (power-of-two pages).
};

/// Mean total object size implied by a mix (bytes per allocated object).
double meanObjectBytes(const SizeMix &Mix);

/// One synthetic benchmark.
struct Profile {
  const char *Name;
  /// Bytes of object payload kept live in steady state.
  size_t LiveSetBytes;
  /// Total allocation volume for one run.
  size_t AllocVolumeBytes;
  SizeMix Mix;
  /// Probability a new object is attached to the live graph (survives).
  double SurvivalRate;
  /// Pointer-field updates per allocation (write-barrier load).
  double MutationRate;
  /// Fraction of surviving objects that are pinned.
  double PinnedFraction;
  /// Calibrated minimum S-IX heap (bytes) in which the run completes.
  size_t MinHeapBytes;
  /// Carries the lucene allocation bug (excluded from aggregates, as in
  /// the paper).
  bool Buggy = false;
};

/// Samples a (TotalObjectBytes, NumRefs, IsLarge) triple from a mix.
struct SampledObject {
  uint32_t PayloadBytes;
  uint16_t NumRefs;
  bool Large;
};

SampledObject sampleObject(const SizeMix &Mix, Rng &Rand);

/// The full benchmark suite (DaCapo-2006 + 9.12-bach stand-ins).
const std::vector<Profile> &allProfiles();

/// The suite minus the buggy lusearch (the paper's aggregation set).
std::vector<const Profile *> analysisProfiles();

/// Profile lookup by name; nullptr if unknown.
const Profile *findProfile(const std::string &Name);

/// A reduced suite for quick runs, selected via the WEARMEM_PROFILES
/// environment variable ("all", "quick", or a comma-separated name list).
/// A name that is no profile makes the selection empty and, when \p Err
/// is given, stores a diagnostic naming the variable there.
std::vector<const Profile *> selectedProfiles(std::string *Err = nullptr);

/// Workload scale factor from WEARMEM_BENCH_SCALE (default 1.0); scales
/// allocation volume only, not the live set. A value that is not a
/// number > 0 yields the default and, when \p Err is given, a diagnostic
/// naming the variable. A binary that reads the knob passes \p Err once,
/// before its first run, and exits with a usage error on a diagnostic.
double benchScale(std::string *Err = nullptr);

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_PROFILE_H
