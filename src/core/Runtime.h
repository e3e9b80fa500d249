//===- core/Runtime.h - Public failure-tolerant runtime API -----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door: a failure-aware managed runtime. Configure a
/// collector, a heap size, and a failure environment; allocate objects and
/// mutate references through the runtime; the collector transparently
/// works around failed 64 B PCM lines, both those present at startup and
/// those that fail while the program runs.
///
/// \code
///   RuntimeConfig Cfg;
///   Cfg.HeapBytes = 64 * MiB;
///   Cfg.FailureRate = 0.25;                 // a quarter of all lines dead
///   Cfg.ClusteringRegionPages = 2;          // two-page clustering hardware
///   Runtime Rt(Cfg);
///   Handle Root = Rt.allocateRooted(/*PayloadBytes=*/64, /*NumRefs=*/2);
///   ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_CORE_RUNTIME_H
#define WEARMEM_CORE_RUNTIME_H

#include "gc/Heap.h"
#include "support/Random.h"

#include <memory>
#include <string>

namespace wearmem {

/// User-facing configuration; expands to a HeapConfig.
struct RuntimeConfig {
  CollectorKind Collector = CollectorKind::StickyImmix;

  /// Immix geometry.
  size_t LineSize = 256;
  size_t BlockSize = 32 * KiB;
  bool ConservativeLineMarking = true;

  /// Usable heap target, in bytes. With compensation on, the page budget
  /// becomes HeapBytes / (1 - FailureRate) so the *working* memory is
  /// held constant across failure rates (Section 6.2).
  size_t HeapBytes = 16 * MiB;
  bool CompensateForFailures = true;

  /// When nonzero, provisions exactly this many budget pages (aligned up
  /// to the block/clustering granule) instead of deriving the budget
  /// from HeapBytes and the compensation math. The multi-tenant shard
  /// directory uses this to hand each tenant Runtime its exact carve of
  /// one device-wide page budget (see os/ShardDirectory.h); the
  /// directory has already applied compensation when it computed the
  /// carve. Zero (the default) leaves the single-tenant derivation
  /// untouched.
  size_t BudgetPagesOverride = 0;

  /// Fraction of 64 B PCM lines that have already failed.
  double FailureRate = 0.0;
  /// How those failures are distributed.
  FailurePattern Pattern = FailurePattern::Uniform;
  /// ClusterLimit pattern: cluster granularity in lines (Fig 8).
  size_t ClusterLines = 1;
  /// Custom pattern: map to tile over the budget (e.g. a wear-simulation
  /// outcome). FailureRate should be set to the map's failed fraction so
  /// compensation stays meaningful.
  std::shared_ptr<const FailureMap> CustomFailureMap;
  /// Failure-clustering hardware region size in pages; 0 disables
  /// clustering, 1 and 2 are the paper's proposals.
  unsigned ClusteringRegionPages = 0;

  /// Skip failed lines in the allocators. Must stay true when
  /// FailureRate > 0; exposed so the zero-failure baseline can prove the
  /// failure-aware code adds no overhead (Figure 4's green bars).
  bool FailureAware = true;

  /// Free-list failure awareness (Section 3.3.1 exploration).
  bool FreeListFailureAware = false;

  /// Workload hint: route large array allocations through discontiguous
  /// arrays (core/DiscontiguousArray.h) instead of the page-grained LOS.
  /// The Section 3.3.3 software-only alternative to clustering hardware;
  /// honored by the synthetic workloads and the abl05 bench.
  bool UseDiscontiguousArrays = false;

  uint64_t Seed = 0x5EEDF00DULL;

  /// GC worker threads for the parallel collection engine; 1 collects
  /// inline on the mutator thread. Post-collection heap state is
  /// bit-identical under any value (see gc/GcWorkers.h).
  unsigned GcThreads = 1;

  /// Mark-cycle pacing (see MarkPacing). The SATB pacings need an Immix
  /// collector; their cycles are driven explicitly via
  /// beginIncrementalMarkCycle() / incrementalMarkStep() or
  /// satbFlushHandshake() / finishIncrementalMarkCycle().
  MarkPacing Pacing = MarkPacing::StopTheWorld;
  /// Objects traced per incremental mark step or concurrent marker slice
  /// (0 = unbounded). The final heap is bit-identical under any budget
  /// or GC worker count; drive steps on a fixed schedule when
  /// deterministic step counts matter.
  unsigned MarkBudget = 512;

  /// Pass-through GC policy knobs.
  double NurseryYieldThreshold = 0.10;
  unsigned FullGcEvery = 16;
  double DefragFreeFraction = 0.25;

  /// Pass-through robustness knobs (see HeapConfig). MaxDebtPages caps
  /// the DRAM the OS may lend (0 = the page budget itself); the other
  /// three govern graceful degradation under dynamic failure storms.
  size_t MaxDebtPages = 0;
  unsigned EmergencyDefragFailedLines = 32;
  double RetireBlockFailedFraction = 0.75;
  double StormOverloadFraction = 0.5;

  /// Pass-through degradation-ladder knobs (see HeapConfig): when the
  /// ladder enters Throttled / Emergency and how many admission-control
  /// retries Throttled may spend.
  double ThrottlePerfectFraction = 0.25;
  unsigned ThrottleRetiredBlocks = 4;
  double EmergencyPerfectFraction = 0.05;
  double EmergencyRetiredFraction = 0.25;
  unsigned ThrottleRetryBudget = 2;

  /// Derives the internal heap configuration (compensated budget,
  /// injector setup).
  HeapConfig toHeapConfig() const;

  /// Short configuration tag, e.g. "S-IX^PCM L256 2CL f=25%".
  std::string describe() const;
};

class Runtime;

/// Outcome of one crash recovery (Runtime::recover): what the journal
/// replay found, how it reconciled against device truth, and whether the
/// rebuilt heap audited clean.
struct RecoveryReport {
  uint64_t RecordsReplayed = 0;
  uint64_t TornTailBytes = 0;
  uint64_t TornRecords = 0;
  uint64_t ChecksumFailures = 0;
  /// Journal-claimed failures the device rescan denied (dropped).
  uint64_t JournalOnlyLines = 0;
  /// Device failures the journal lost (torn tail); adopted.
  uint64_t DeviceOnlyLines = 0;
  /// ChecksumFailures + JournalOnlyLines.
  uint64_t Divergences = 0;
  uint64_t ClusterRemaps = 0;
  uint64_t PoolTransitions = 0;
  uint64_t LedgerEntries = 0;
  uint64_t JournalBytes = 0;
  double RecoveryMs = 0.0;
  bool AuditPassed = false;
  uint64_t AuditViolations = 0;
};

/// An RAII GC root. The referenced object (and everything reachable from
/// it) stays live and the handle stays valid across moving collections.
class Handle {
public:
  Handle() = default;
  Handle(Runtime &Rt, ObjRef Obj);
  Handle(Handle &&Other) noexcept;
  Handle &operator=(Handle &&Other) noexcept;
  Handle(const Handle &) = delete;
  Handle &operator=(const Handle &) = delete;
  ~Handle();

  ObjRef get() const;
  void set(ObjRef Obj);
  bool valid() const { return Rt != nullptr; }
  void release();

private:
  Runtime *Rt = nullptr;
  unsigned Idx = 0;
};

/// The failure-tolerant managed runtime.
class Runtime {
public:
  explicit Runtime(const RuntimeConfig &Config);

  //===--------------------------------------------------------------===//
  // Allocation and access
  //===--------------------------------------------------------------===//

  /// Allocates an object; nullptr on heap exhaustion.
  ObjRef allocate(uint32_t PayloadBytes, uint16_t NumRefs,
                  bool Pinned = false) {
    return Heap_.allocate(PayloadBytes, NumRefs, Pinned);
  }

  /// Allocates and immediately roots an object.
  Handle allocateRooted(uint32_t PayloadBytes, uint16_t NumRefs,
                        bool Pinned = false);

  void writeRef(ObjRef Src, unsigned Slot, ObjRef Dst) {
    Heap_.writeRef(Src, Slot, Dst);
  }
  static ObjRef readRef(ObjRef Src, unsigned Slot) {
    return Heap::readRef(Src, Slot);
  }

  /// Forces a collection. With an incremental mark cycle open this
  /// closes the cycle (the closing pause is the full collection).
  void collect(bool Full = true) {
    Heap_.collect(Full ? CollectionKind::Full : CollectionKind::Nursery);
  }

  /// \name Incremental SATB marking
  /// Bounded-pause mark cycles (requires an SATB RuntimeConfig::Pacing
  /// and an Immix collector; see gc/Heap.h for the full contract).
  /// @{
  bool beginIncrementalMarkCycle() {
    return Heap_.beginIncrementalMarkCycle();
  }
  bool incrementalMarkStep() { return Heap_.incrementalMarkStep(); }
  void finishIncrementalMarkCycle() { Heap_.finishIncrementalMarkCycle(); }
  bool incrementalCycleOpen() const { return Heap_.incrementalCycleOpen(); }
  /// Concurrent marking's flush-only handshake: parks peer mutator
  /// threads just long enough to seal every lane's SATB buffer into the
  /// sealed-segment queue, then wakes the marker (no-op without an open
  /// cycle; see gc/Heap.h).
  void satbFlushHandshake() { Heap_.satbFlushHandshake(); }
  /// @}

  bool outOfMemory() const { return Heap_.outOfMemory(); }

  //===--------------------------------------------------------------===//
  // Multi-threaded mutators
  //===--------------------------------------------------------------===//

  /// Provisions \p Lanes logical mutator lanes, each with its own TLAB
  /// (see gc/Heap.h). Drive them with a workload MutatorPool.
  void setMutatorLanes(unsigned Lanes) { Heap_.setMutatorLanes(Lanes); }
  unsigned mutatorLanes() const { return Heap_.mutatorLanes(); }

  /// The stop-the-world handshake coordinator (thread registration,
  /// polling, watchdog budget and fail-stop handler).
  SafepointCoordinator &safepoints() { return Heap_.safepoints(); }

  //===--------------------------------------------------------------===//
  // Dynamic failures
  //===--------------------------------------------------------------===//

  /// Simulates a PCM line failing during execution at a random in-use
  /// heap location (writes cause wear, so failures strike live lines).
  /// Runs the full recovery path. Returns false if no candidate line was
  /// found.
  bool injectRandomDynamicFailure(Rng &Rand);

  /// Fails the specific line containing \p Addr.
  void injectDynamicFailureAt(uint8_t *Addr) {
    Heap_.injectDynamicFailureAt(Addr);
  }

  //===--------------------------------------------------------------===//
  // Crash consistency
  //===--------------------------------------------------------------===//

  /// Snapshots this incarnation's provisioning map as the durable state a
  /// crash would leave behind (device truth = baseline = the budget map).
  std::shared_ptr<DurableState> bootstrapDurableState() const;

  /// Binds a durable state: a MetadataJournal is created over it and
  /// attached through the heap and OS layers, enabling write-ahead
  /// logging and the kill points.
  void attachDurableState(std::shared_ptr<DurableState> DS);

  MetadataJournal *journal() const { return Journal_.get(); }

  /// Boots a fresh incarnation from \p DS after a crash: replays the
  /// journal over the baseline, reconciles against the device rescan
  /// (device wins; divergences counted, never applied), rebuilds the OS
  /// pools and heap from the reconciled map, compacts the journal, and
  /// runs the HeapAuditor as the recovery verifier. \p Base must be the
  /// dead incarnation's config. Throws CrashSignal if the RecoveryPhase
  /// kill point is armed (the arm is consumed, so a retry succeeds).
  static std::unique_ptr<Runtime> recover(const RuntimeConfig &Base,
                                          std::shared_ptr<DurableState> DS,
                                          RecoveryReport &Report);

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  Heap &heap() { return Heap_; }
  const Heap &heap() const { return Heap_; }
  const HeapStats &stats() const { return Heap_.stats(); }
  const OsStats &osStats() const { return Heap_.osStats(); }
  const RuntimeConfig &config() const { return Config; }

private:
  friend class Handle;

  RuntimeConfig Config;
  Heap Heap_;
  std::unique_ptr<MetadataJournal> Journal_;
};

} // namespace wearmem

#endif // WEARMEM_CORE_RUNTIME_H
