//===- tests/StormChecks.h - Checked storm legs -----------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The marking suites run the shared workload/Storm leg at test size
// (unseeded stamps, full scale) and check its harness readings here, so
// every leg of every suite is held to the same contract.
//
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_TESTS_STORMCHECKS_H
#define WEARMEM_TESTS_STORMCHECKS_H

#include "workload/Storm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

namespace wearmem {

/// Runs one test-sized storm leg and checks that it built, opened and
/// closed its cycle, parked a mid-cycle failure instead of fencing it,
/// and audits clean.
inline StormResult expectStormLeg(MarkPacing Pacing, unsigned GcThreads,
                                  unsigned MarkBudget,
                                  bool MidCycleFailure = false) {
  StormResult R = runStormLeg(Pacing, GcThreads, MarkBudget, /*Seed=*/0,
                              /*Scale=*/1.0, MidCycleFailure);
  EXPECT_TRUE(R.BuiltClean);
  EXPECT_TRUE(R.AuditPassed);
  if (Pacing != MarkPacing::StopTheWorld) {
    EXPECT_TRUE(R.CycleOpened);
    EXPECT_TRUE(R.CycleClosed);
    if (MidCycleFailure) {
      EXPECT_EQ(R.MidCycleDeferred, 1u);
      EXPECT_EQ(R.MidCycleFailedLines, 0u)
          << "failure applied while the cycle was open";
    }
  }
  return R;
}

/// Twice the hardware threads, capped at 16: more GC workers than cores,
/// so budgeted steps end with workers preempted mid-protocol.
inline unsigned oversubscribedWorkers() {
  return std::min(2 * std::max(1u, std::thread::hardware_concurrency()),
                  16u);
}

} // namespace wearmem

#endif // WEARMEM_TESTS_STORMCHECKS_H
