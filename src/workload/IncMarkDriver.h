//===- workload/IncMarkDriver.h - Incremental-mark driving policy -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tools' shared driving policy for bounded-pause SATB marking. A
/// cycle opens each time the steady allocation volume crosses a fixed
/// interval of the workload's target; how the open cycle is paced
/// depends on the runtime's marking mode:
///
///  * MarkPacing::Incremental (interleaved): every turn takes one
///    budgeted mark step; the step that reports an empty frontier closes
///    the cycle.
///  * MarkPacing::Concurrent: the marker thread does the tracing; the
///    driver's turns only issue flush handshakes (seal per-lane SATB
///    buffers, wake the marker) on a fixed allocation-clock
///    sub-interval, and close the cycle at a fixed virtual-time point -
///    *never* "when the marker looks idle", which would make the close
///    point schedule-dependent.
///
/// Everything is keyed to virtual time (allocated bytes and turn order,
/// never the wall clock), so two runs with the same seed and lane count
/// open, flush, and close the same cycles at the same points - the
/// digest and all Deterministic-domain counters stay byte-for-byte
/// reproducible in every marking mode and at every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_INCMARKDRIVER_H
#define WEARMEM_WORKLOAD_INCMARKDRIVER_H

#include "core/Runtime.h"
#include "support/Units.h"

#include <algorithm>
#include <cstdint>

namespace wearmem {

class IncMarkDriver {
public:
  /// Sizes the open interval from the run's total allocation target:
  /// roughly one cycle per sixteenth of the run, floored so tiny smoke
  /// runs still exercise at least a cycle or two.
  IncMarkDriver(Runtime &Rt, uint64_t TargetBytes)
      : Rt(Rt), Concurrent(Rt.config().Pacing == MarkPacing::Concurrent),
        Interval(std::max<uint64_t>(TargetBytes / 16, 64 * KiB)),
        NextOpen(Interval) {}

  /// Advances the policy one turn. SteadyBytes is the mutator's steady
  /// allocation volume, the run's virtual clock.
  void pump(uint64_t SteadyBytes) {
    if (Rt.incrementalCycleOpen()) {
      if (!Concurrent) {
        if (!Rt.incrementalMarkStep())
          Rt.finishIncrementalMarkCycle();
        return;
      }
      // Concurrent pacing: the close lands at a fixed virtual-time
      // point (half an interval after the open), flush handshakes at
      // fixed sub-intervals in between. Both depend only on the
      // allocation clock, so the cycle shape is identical across
      // mutator-thread counts and marker schedules.
      if (SteadyBytes >= CloseAt) {
        Rt.finishIncrementalMarkCycle();
      } else if (SteadyBytes >= NextFlush) {
        Rt.satbFlushHandshake();
        NextFlush = SteadyBytes + flushInterval();
      }
      return;
    }
    if (SteadyBytes >= NextOpen) {
      // An allocation-triggered collection (which force-closes any open
      // cycle) may have landed since the last open; the next window
      // simply restarts from here.
      Rt.beginIncrementalMarkCycle();
      NextOpen = SteadyBytes + Interval;
      CloseAt = SteadyBytes + Interval / 2;
      NextFlush = SteadyBytes + flushInterval();
    }
  }

  /// Closes a cycle the end of the run left open, so final audits and
  /// accounting see a settled heap.
  void flush() {
    if (Rt.incrementalCycleOpen())
      Rt.finishIncrementalMarkCycle();
  }

private:
  /// Eight flush handshakes per open window keep the sealed queue (and
  /// the marker) fed without measurable mutator overhead.
  uint64_t flushInterval() const {
    return std::max<uint64_t>(Interval / 16, 8 * KiB);
  }

  Runtime &Rt;
  bool Concurrent;
  uint64_t Interval;
  uint64_t NextOpen;
  uint64_t CloseAt = 0;
  uint64_t NextFlush = 0;
};

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_INCMARKDRIVER_H
