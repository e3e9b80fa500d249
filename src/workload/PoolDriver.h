//===- workload/PoolDriver.h - Shared pool + mark-driver wiring -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-lane mutator stack every tool builds the same way: the
/// MutatorPoolOptions derived from the caller's knobs, the MutatorPool
/// itself, the shared IncMarkDriver pacing policy, and the turn hook that
/// pumps the driver before the caller's own per-turn bookkeeping.
/// wearmem_run, wearmem_soak, and wearmem_serve all drive pools through
/// this helper instead of keeping three copies of the wiring.
///
/// The hook composition preserves the tools' historical order: the mark
/// driver is pumped first (so a cycle's opens and closes land on the
/// pool's turn clock), then the caller's callback runs, still serialized
/// by the turnstile. Digests and curves are therefore byte-identical to
/// the pre-helper wiring.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_POOLDRIVER_H
#define WEARMEM_WORKLOAD_POOLDRIVER_H

#include "workload/IncMarkDriver.h"
#include "workload/MutatorPool.h"

#include <utility>

namespace wearmem {

/// The knobs the tools forward into a pooled run. Mirrors
/// MutatorPoolOptions plus the one policy decision the tools used to
/// duplicate: whether the turn hook drives SATB mark cycles.
struct PoolDriverSpec {
  unsigned Lanes = 1;
  unsigned Threads = 1;
  uint64_t Seed = 42;
  double VolumeScale = 1.0;
  AdversaryKind Adversary = AdversaryKind::None;
  /// Pump the shared IncMarkDriver each turn (callers pass their
  /// MarkFlags::anyMode(); RuntimeConfig::Pacing picks the pacing).
  bool DriveMark = false;
};

class PoolDriver {
public:
  PoolDriver(Runtime &Rt, const Profile &P, const PoolDriverSpec &Spec)
      : Pool_(Rt, P, toPoolOptions(Spec)), Inc_(Rt, Pool_.targetBytes()),
        DriveMark(Spec.DriveMark) {
    installHook();
  }

  /// Extra per-turn bookkeeping (campaign pumps, audits, curve points),
  /// run after the mark pump on whichever thread holds the turn; the
  /// turnstile serializes it against every lane, so it needs no locking.
  /// Return false to stop the pool.
  void setTurnCallback(MutatorPool::TurnHook Callback) {
    Extra = std::move(Callback);
  }

  /// Runs the pool to completion (see MutatorPool::run).
  bool run() { return Pool_.run(); }

  /// Closes any mark cycle the run left open. Callers gate this on their
  /// own mark-mode and OOM conditions, as before the hoist.
  void flushMark() { Inc_.flush(); }

  MutatorPool &pool() { return Pool_; }
  uint64_t steadyAllocatedBytes() const {
    return Pool_.steadyAllocatedBytes();
  }
  uint64_t targetBytes() const { return Pool_.targetBytes(); }

private:
  static MutatorPoolOptions toPoolOptions(const PoolDriverSpec &Spec) {
    MutatorPoolOptions Opts;
    Opts.Lanes = Spec.Lanes;
    Opts.Threads = Spec.Threads;
    Opts.Seed = Spec.Seed;
    Opts.VolumeScale = Spec.VolumeScale;
    Opts.Adversary = Spec.Adversary;
    return Opts;
  }

  void installHook() {
    Pool_.setTurnHook([this](unsigned Lane, uint64_t Turn) {
      if (DriveMark)
        Inc_.pump(Pool_.steadyAllocatedBytes());
      return Extra ? Extra(Lane, Turn) : true;
    });
  }

  MutatorPool Pool_;
  IncMarkDriver Inc_;
  bool DriveMark;
  MutatorPool::TurnHook Extra;
};

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_POOLDRIVER_H
