//===- tests/ServeTest.cpp - Multi-tenant serve harness tests -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Cross-tenant interference accounting and isolation contracts of the
// sharded serve harness (src/serve):
//
//  - a shard driven into failure-storm backpressure charges the *victim*
//    shards' stall counters, mirrored by the aggressor's inflicted
//    count, deterministically across reruns;
//  - a shard collapsing into Emergency must not perturb a neighbor
//    shard's heap digest, served count, or sojourn distribution;
//  - a starved perfect-page window produces typed quota rejections under
//    both split policies; a full admission queue produces typed
//    queue-full rejections; every arrival is conserved across
//    admitted + rejected;
//  - a shard that dies of exhaustion rejects its still-queued requests
//    instead of stranding them uncounted.
//
// The cross-run determinism matrix (shard orders, GC workers) lives in
// bench/serve01_multitenant; these tests pin the semantics.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "gtest/gtest.h"

using namespace wearmem;

namespace {

/// A light storm: enough dynamic line failures to cross the 16-line
/// backpressure threshold at the neighbors, not enough to climb the
/// degradation ladder.
constexpr const char *LightStorm = "storm@alloc:2m+160k:lines=24,hot";
/// A heavy storm against a half-sized carve: dynamic failed-line
/// fraction crosses the Emergency threshold within the run.
constexpr const char *HeavyStorm = "storm@alloc:2m+120k:lines=200,hot";

ServeOptions twoTenants(const char *NeighborCampaign,
                        double NeighborBudgetScale = 1.0) {
  ServeOptions Opt;
  Opt.Tenants.resize(2);
  Opt.Tenants[1].Campaign = NeighborCampaign;
  Opt.Tenants[1].BudgetScale = NeighborBudgetScale;
  Opt.ArrivalRatePerSec = 3000.0;
  Opt.DurationSec = 0.3;
  Opt.Seed = 11;
  Opt.HeapFactor = 1.5;
  Opt.Dir.BackpressureLines = 16;
  return Opt;
}

uint64_t totalRejected(const TenantServeResult &T) {
  uint64_t N = 0;
  for (uint64_t R : T.Rejected)
    N += R;
  return N;
}

void expectSameTenant(const TenantServeResult &A,
                      const TenantServeResult &B) {
  EXPECT_EQ(A.Digest, B.Digest);
  EXPECT_EQ(A.Arrivals, B.Arrivals);
  EXPECT_EQ(A.Admitted, B.Admitted);
  EXPECT_EQ(A.Served, B.Served);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.StallsObserved, B.StallsObserved);
  EXPECT_EQ(A.StallsInflicted, B.StallsInflicted);
  EXPECT_EQ(A.QuotaRejections, B.QuotaRejections);
  EXPECT_EQ(A.PerfectPagesCharged, B.PerfectPagesCharged);
  EXPECT_EQ(A.GcCount, B.GcCount);
  EXPECT_EQ(A.FailedLinesDynamic, B.FailedLinesDynamic);
  EXPECT_EQ(A.FinalMode, B.FinalMode);
  EXPECT_EQ(A.Sojourn.Count, B.Sojourn.Count);
  EXPECT_EQ(A.Sojourn.P50, B.Sojourn.P50);
  EXPECT_EQ(A.Sojourn.P99, B.Sojourn.P99);
  EXPECT_EQ(A.Sojourn.Max, B.Sojourn.Max);
}

TEST(ServeTest, StormBackpressureChargesVictimAndAggressor) {
  ServeOptions Opt = twoTenants(LightStorm);
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.ConfigOk) << R.Error;
  ASSERT_EQ(R.Tenants.size(), 2u);
  const TenantServeResult &Victim = R.Tenants[0];
  const TenantServeResult &Aggressor = R.Tenants[1];

  // The storm stays on the aggressor's shard; the spillover is the
  // *shared* failure buffer, and it is billed as stalls, not failures.
  EXPECT_TRUE(Victim.AuditPassed);
  EXPECT_TRUE(Aggressor.AuditPassed);
  EXPECT_EQ(Victim.FailedLinesDynamic, 0u);
  EXPECT_GT(Aggressor.FailedLinesDynamic, 0u);
  EXPECT_GT(Victim.StallsObserved, 0u);
  EXPECT_EQ(Victim.StallsObserved, Aggressor.StallsInflicted);
  EXPECT_EQ(Victim.StallsInflicted, 0u);
  EXPECT_GT(R.BufferPeak, 0u);

  // Interference accounting is deterministic: a rerun reproduces every
  // counter bit-for-bit.
  ServeResult R2 = runServe(Opt);
  ASSERT_TRUE(R2.ConfigOk);
  for (size_t T = 0; T != R.Tenants.size(); ++T)
    expectSameTenant(R.Tenants[T], R2.Tenants[T]);
  EXPECT_EQ(R.BufferPeak, R2.BufferPeak);
  EXPECT_EQ(R.Rebalances, R2.Rebalances);
}

TEST(ServeTest, EmergencyNeighborDoesNotPerturbQuietShard) {
  // Heavy storm against a half carve: the aggressor's dynamic
  // failed-line fraction crosses the Emergency threshold and its
  // arrivals start bouncing off admission control.
  ServeOptions Noisy = twoTenants(HeavyStorm, /*NeighborBudgetScale=*/0.5);
  Noisy.DurationSec = 0.4;
  ServeResult WithStorm = runServe(Noisy);
  ASSERT_TRUE(WithStorm.ConfigOk) << WithStorm.Error;
  const TenantServeResult &Storm = WithStorm.Tenants[1];
  EXPECT_EQ(Storm.FinalMode, "emergency");
  EXPECT_GT(Storm.Rejected[RejEmergency], 0u);
  EXPECT_TRUE(Storm.AuditPassed);

  // The quiet shard's entire deterministic output - digest included -
  // is invariant to whether the neighbor idles or collapses.
  ServeOptions Alone = twoTenants("");
  Alone.DurationSec = 0.4;
  ServeResult NoStorm = runServe(Alone);
  ASSERT_TRUE(NoStorm.ConfigOk) << NoStorm.Error;
  EXPECT_EQ(WithStorm.Tenants[0].FinalMode, "normal");
  expectSameTenant(WithStorm.Tenants[0], NoStorm.Tenants[0]);
}

TEST(ServeTest, StarvedQuotaWindowRejectsUnderBothPolicies) {
  // xalan's large-array mix allocates through the LOS on perfect pages,
  // so a 2-page window is actually consumed and then rejects.
  for (QuotaPolicy Policy :
       {QuotaPolicy::StaticQuota, QuotaPolicy::DemandWeighted}) {
    ServeOptions Opt;
    Opt.Tenants.resize(2);
    for (TenantSpec &T : Opt.Tenants)
      T.ProfileName = "xalan";
    Opt.ArrivalRatePerSec = 3000.0;
    Opt.DurationSec = 0.15;
    Opt.Policy = Policy;
    Opt.Seed = 11;
    Opt.HeapFactor = 1.5;
    Opt.Dir.PerfectPagesPerWindow = 2;
    ServeResult R = runServe(Opt);
    ASSERT_TRUE(R.ConfigOk) << R.Error;
    uint64_t QuotaRejects = 0;
    uint64_t Charged = 0;
    for (const TenantServeResult &T : R.Tenants) {
      QuotaRejects += T.Rejected[RejQuota];
      Charged += T.PerfectPagesCharged;
      EXPECT_EQ(T.Rejected[RejQuota], T.QuotaRejections);
      EXPECT_EQ(T.Arrivals, T.Admitted + totalRejected(T));
    }
    EXPECT_GT(QuotaRejects, 0u) << quotaPolicyName(Policy);
    EXPECT_GT(Charged, 0u) << quotaPolicyName(Policy);

    ServeResult R2 = runServe(Opt);
    ASSERT_TRUE(R2.ConfigOk);
    for (size_t T = 0; T != R.Tenants.size(); ++T)
      expectSameTenant(R.Tenants[T], R2.Tenants[T]);
  }
}

TEST(ServeTest, StaticSharesSplitTheWindowEvenly) {
  ServeOptions Opt = twoTenants("");
  Opt.Tenants.resize(3);
  Opt.Dir.PerfectPagesPerWindow = 96;
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.ConfigOk) << R.Error;
  for (const TenantServeResult &T : R.Tenants)
    EXPECT_EQ(T.QuotaShareFinal, 32u);
}

TEST(ServeTest, TinyQueueShedsWithTypedRejections) {
  ServeOptions Opt = twoTenants("");
  Opt.QueueDepth = 1;
  Opt.ArrivalRatePerSec = 20000.0;
  Opt.DurationSec = 0.1;
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.ConfigOk) << R.Error;
  for (const TenantServeResult &T : R.Tenants) {
    EXPECT_GT(T.Rejected[RejQueueFull], 0u);
    // Conservation: every arrival is admitted or carries exactly one
    // typed rejection, and every admitted request is eventually served
    // by the post-horizon drain.
    EXPECT_EQ(T.Arrivals, T.Admitted + totalRejected(T));
    EXPECT_EQ(T.Served, T.Admitted);
    EXPECT_TRUE(T.AuditPassed);
  }
}

TEST(ServeTest, ExhaustedTenantRejectsItsQueuedRequests) {
  // Tenant 1 runs luindex on half its natural carve at 1.2x heap under
  // a load its single server cannot keep up with: it dies of exhaustion
  // with requests still queued behind the fatal one. A dead shard never
  // serves them, so they must be rejected as Emergency - the type its
  // later arrivals get - and no arrival may go missing.
  ServeOptions Opt = twoTenants("", /*NeighborBudgetScale=*/0.5);
  Opt.HeapFactor = 1.2;
  Opt.ArrivalRatePerSec = 20000.0;
  Opt.DurationSec = 0.2;
  Opt.Seed = 1;
  ServeResult R = runServe(Opt);
  ASSERT_TRUE(R.ConfigOk) << R.Error;
  const TenantServeResult &Dying = R.Tenants[1];
  EXPECT_EQ(Dying.ExhaustedRequests, 1u);
  EXPECT_EQ(Dying.FinalMode, "fail-stop");
  EXPECT_GT(Dying.Rejected[RejEmergency], 0u);
  for (const TenantServeResult &T : R.Tenants) {
    EXPECT_EQ(T.Arrivals, T.Served + totalRejected(T)) << "tenant " << T.Id;
    EXPECT_EQ(T.Arrivals, T.Admitted + totalRejected(T)) << "tenant " << T.Id;
    EXPECT_EQ(T.Served, T.Admitted) << "tenant " << T.Id;
  }
  EXPECT_EQ(R.Tenants[0].ExhaustedRequests, 0u);
}

TEST(ServeTest, MisconfigurationIsAnErrorNotACrash) {
  ServeOptions NoTenants;
  EXPECT_FALSE(runServe(NoTenants).ConfigOk);

  ServeOptions BadProfile = twoTenants("");
  BadProfile.Tenants[0].ProfileName = "no-such-profile";
  ServeResult R = runServe(BadProfile);
  EXPECT_FALSE(R.ConfigOk);
  EXPECT_NE(R.Error.find("no-such-profile"), std::string::npos);

  ServeOptions BadCampaign = twoTenants("storm@nonsense");
  EXPECT_FALSE(runServe(BadCampaign).ConfigOk);
}

} // namespace
