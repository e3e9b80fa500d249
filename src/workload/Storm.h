//===- workload/Storm.h - Shared SATB write-storm workload ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference-store storm the marking tests and gates share. Rooted
/// linked lists carry satellite objects reachable through one cross-link
/// slot each; the storm swaps those cross links, so the live set never
/// changes while every swap opens the classic SATB window (between the
/// two writes a satellite survives only in the deletion log).
///
/// A storm leg builds the lists, runs the storm under one MarkPacing -
/// one pacing point per batch, with a dynamic line failure landing
/// mid-cycle on a pinned target - and takes the cycle's full collection
/// at a fixed point in the mutation history, then a settling one. The
/// paper's dynamic-failure contract (a line dying mid-trace parks until
/// a GC-safe point) makes every pacing end in the same physical heap:
/// the stop-the-world leg injects the failure right after its
/// collection, which is where the marking legs drain it.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_STORM_H
#define WEARMEM_WORKLOAD_STORM_H

#include "gc/Heap.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wearmem {

/// The storm legs' heap: sticky Immix in 32 MiB, 2% failed lines,
/// defragmentation at 35% free.
HeapConfig stormConfig(MarkPacing Pacing, unsigned GcThreads,
                       unsigned MarkBudget);

/// GC workers of the gates' pause measurements (their SLOs' "4 lanes").
constexpr unsigned StormPauseWorkers = 4;

/// The gates' pause-measurement heap: sticky Immix in 48 MiB with no
/// failed lines, so a pause comparison measures marking and its sweep
/// tail, not failure recovery.
HeapConfig stormPauseConfig(MarkPacing Pacing, unsigned MarkBudget);

/// Builds \p NumLists rooted linked lists (slot 0 = next, slot 1 = a
/// cross link) and returns the head root indices. Every fourth node
/// carries a satellite reachable only through its cross link. Payloads
/// are stamped with \p Seed so payload-hashing digests cover them.
std::vector<unsigned> buildLists(Heap &Hp, unsigned NumLists,
                                 unsigned ListLen, uint64_t Seed = 0);

/// The \p I-th storm operation: swap two nodes' cross links, or rewrite
/// a head root with its own value (the root-store flavor of the
/// barrier). A pure function of \p I and the heap graph.
void mutationOp(Heap &Hp, const std::vector<unsigned> &Heads, uint64_t I);

/// One pacing point of an open cycle: a budgeted mark step under
/// Incremental, a flush handshake under Concurrent, nothing otherwise.
void paceCycle(Heap &Hp, MarkPacing Pacing);

/// What a storm leg reports: the harness readings, the audit verdict,
/// the digest and the deterministic counters.
struct StormResult {
  /// The pinned fail target was allocated and the build did not run out
  /// of memory.
  bool BuiltClean = false;
  /// The cycle opened (SATB pacings) and was closed by the finish.
  bool CycleOpened = false;
  bool CycleClosed = false;
  /// Deferred-interrupt increase and dynamically failed lines right
  /// after the mid-cycle injection: a parked failure reads 1 and 0.
  uint64_t MidCycleDeferred = 0;
  uint64_t MidCycleFailedLines = 0;

  bool AuditPassed = false;
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsMarked = 0;
  uint64_t BytesTraced = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t FailedLinesDynamic = 0;
  uint64_t PinnedFailurePageRemaps = 0;
  /// Cycle internals: mutator-side steps (Incremental only) and the
  /// SATB ledger; zero under StopTheWorld.
  uint64_t MarkIncrements = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;
};

/// Runs one storm leg: 4 lists of 2500 x \p Scale nodes, 40 batches of
/// 50 operations, a failure on the pinned target mid-cycle when
/// \p MidCycleFailure is set.
StormResult runStormLeg(MarkPacing Pacing, unsigned GcThreads,
                        unsigned MarkBudget, uint64_t Seed, double Scale,
                        bool MidCycleFailure);

/// Lists the fields every pacing must agree on - the digest and every
/// counter but the cycle internals - that differ between \p A and
/// \p B; empty when the two legs ended in the same heap.
std::string stormMismatch(const StormResult &A, const StormResult &B);

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_STORM_H
