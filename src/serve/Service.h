//===- serve/Service.h - Multi-tenant serve harness -------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-loop request-driven load harness over a fleet of
/// TenantShards. Each tenant receives deterministic Poisson arrivals on
/// a shared virtual clock; each arrival passes admission control (ladder
/// state, perfect-page quota window, bounded queue) and, if admitted, is
/// served as a profile-shaped request session on the tenant's shard.
/// Open-loop means rejected or delayed requests do not slow the arrival
/// process - the load keeps coming, which is what exposes backpressure.
///
/// Determinism discipline: arrivals, admissions, typed rejections,
/// session receipts, virtual sojourn times, directory counters, and
/// heap digests are all pure functions of (options, seed) - independent
/// of shard scheduling order and GC worker count. Wall-clock service
/// times are Timing-domain only. bench/serve01_multitenant enforces the
/// split.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_SERVE_SERVICE_H
#define WEARMEM_SERVE_SERVICE_H

#include "serve/LatencyRecorder.h"
#include "serve/TenantShard.h"

#include <array>
#include <string>
#include <vector>

namespace wearmem {

/// Per-tenant knobs of a serve run.
struct TenantSpec {
  std::string ProfileName = "luindex";
  /// Fault-campaign schedule (FaultTrigger.h syntax); empty = quiet.
  std::string Campaign;
  /// Scales this tenant's page carve relative to its natural budget.
  double BudgetScale = 1.0;
  /// Static (manufacturing-time) failure rate of the tenant's region.
  double FailureRate = 0.0;
  /// Ladder overrides (negative keeps defaults); used by tests to drive
  /// a tenant into Emergency quickly.
  double ThrottlePerfectFraction = -1.0;
  double EmergencyPerfectFraction = -1.0;
};

/// The order shards are constructed, warmed, and scanned by the event
/// loop. A determinism knob: results must not depend on it.
enum class ShardOrder : uint8_t { Forward, Reverse, Rotate };

inline const char *shardOrderName(ShardOrder O) {
  switch (O) {
  case ShardOrder::Forward:
    return "forward";
  case ShardOrder::Reverse:
    return "reverse";
  case ShardOrder::Rotate:
    return "rotate";
  }
  return "?";
}

bool parseShardOrder(const std::string &Text, ShardOrder &Out);

/// Typed admission rejections, in check order.
enum RejectKind : unsigned {
  RejEmergency = 0, ///< Shard in Emergency/FailStop (or exhausted).
  RejThrottled,     ///< Shard in Throttled admission control.
  RejQuota,         ///< Perfect-page window share exhausted.
  RejQueueFull,     ///< Bounded admission queue at capacity.
  NumRejectKinds,
};

const char *rejectKindName(unsigned Kind);

struct ServeOptions {
  std::vector<TenantSpec> Tenants;
  /// Per-tenant Poisson arrival rate (requests/second of virtual time).
  double ArrivalRatePerSec = 2000.0;
  /// Virtual-time horizon for arrivals; the loop then drains queues.
  double DurationSec = 0.25;
  unsigned QueueDepth = 64;
  QuotaPolicy Policy = QuotaPolicy::StaticQuota;
  ShardOrder Order = ShardOrder::Forward;
  unsigned LanesPerShard = 1;
  unsigned GcThreads = 1;
  CollectorKind Collector = CollectorKind::StickyImmix;
  uint64_t Seed = 42;
  double HeapFactor = 2.5;
  double WarmupScale = 0.05;
  /// Request sessions run SessionSteps + uniform[0, SessionSteps]
  /// mutator steps: the knob that sets per-request allocation weight
  /// (and with it GC frequency under load).
  unsigned SessionSteps = 24;
  /// Directory knobs; Policy above overrides Dir.Policy.
  ShardDirectoryConfig Dir;
};

struct TenantServeResult {
  uint32_t Id = 0;
  std::string ProfileName;
  /// Every arrival ends served or rejected: Arrivals == Admitted + the
  /// rejections, and Admitted == Served. A shard that dies of exhaustion
  /// rejects its still-queued requests as RejEmergency, like the
  /// arrivals that follow.
  uint64_t Arrivals = 0;
  uint64_t Admitted = 0;
  uint64_t Served = 0;
  std::array<uint64_t, NumRejectKinds> Rejected{};
  uint64_t ShedRequests = 0;      ///< Sessions that shed allocations.
  uint64_t ExhaustedRequests = 0; ///< Sessions hitting exhaustion.
  uint64_t StallsObserved = 0;
  uint64_t StallsInflicted = 0;
  uint64_t QuotaRejections = 0;
  uint64_t PerfectPagesCharged = 0;
  uint64_t QuotaShareFinal = 0;
  uint64_t GcCount = 0;
  uint64_t FailedLinesDynamic = 0;
  size_t CarvePages = 0;
  std::string FinalMode;
  uint64_t Digest = 0;
  bool AuditPassed = false;
  LatencySummary Sojourn; ///< Virtual (deterministic) latency, us.
  WallSummary Wall;       ///< Wall (timing) latency, us.
};

struct ServeResult {
  bool ConfigOk = false;
  std::string Error;
  std::vector<TenantServeResult> Tenants; ///< In tenant-id order.
  uint64_t Rebalances = 0;
  uint64_t BufferPeak = 0;
  uint64_t JournalDropped = 0;
  std::vector<DirectoryEvent> Journal;
  uint64_t HorizonUs = 0;
  uint64_t VirtualEndUs = 0; ///< Last service completion.
  double WallMs = 0.0;       ///< Timing-domain run wall time.
  double FleetThroughputRps = 0.0; ///< Served per virtual second.
  LatencySummary FleetSojourn;
  WallSummary FleetWall;

  uint64_t totalServed() const {
    uint64_t N = 0;
    for (const TenantServeResult &T : Tenants)
      N += T.Served;
    return N;
  }
};

/// Runs the serve harness to completion. Infrastructure misconfiguration
/// (unknown profile, bad campaign syntax, zero tenants) comes back as
/// ConfigOk=false with Error set; heap exhaustion of a tenant is a
/// result, not an error.
ServeResult runServe(const ServeOptions &Opt);

} // namespace wearmem

#endif // WEARMEM_SERVE_SERVICE_H
