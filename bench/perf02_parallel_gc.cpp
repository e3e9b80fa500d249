//===- bench/perf02_parallel_gc.cpp - Parallel collection perf gate -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Perf gate for the parallel collection engine: the same deterministic
// workload is built in one heap per worker count (1, 2, 4, 8), a fixed
// number of full collections is run in each, and the post-collection
// heaps are compared through HeapAuditor::digest plus the deterministic
// heap counters. The engine's contract is that the post-GC heap state is
// bit-identical for ANY worker count, so every digest and every counter
// must match the serial heap exactly - any difference exits 2.
//
// A second gate drives the multi-threaded mutator engine: four logical
// mutator lanes (workload/MutatorPool.h) are run under every (mutator
// threads x GC workers) combination in {1,2,4} x {1,2,4,8}; the lane
// turnstile - not thread scheduling - owns the allocation order, so the
// post-run digest and deterministic counters must be identical across
// all twelve cells. Any divergence exits 2. Four corner cells
// ({1,4} mutator threads x {1,8} workers) repeat the matrix under the
// frag adversary - the lane schedule must stay deterministic even when
// every lane runs the pathological cross-line churn strategy.
//
// The emitted BENCH_parallel_gc.json contains only deterministic values
// (counters and hex digests): the same seed produces a byte-identical
// file, so CI diffs two runs to prove run-to-run determinism. Wall-clock
// GC times are printed to stdout for humans and feed the speedup gate -
// the 4-worker heap must collect at least 1.8x faster than the serial
// heap - but never enter the JSON. The speedup gate only arms on
// machines with >= 4 hardware threads and can be disarmed with
// --no-timing-gate (CI's TSan job does this; instrumented timing is
// meaningless).
//
// Exit codes: 0 ok, 2 determinism mismatch, 3 speedup gate failure
// (flags and usage errors: bench/GateHarness.h).
//
//===----------------------------------------------------------------------===//

#include "GateHarness.h"

#include "core/Runtime.h"
#include "gc/Heap.h"
#include "gc/HeapAuditor.h"
#include "support/JsonWriter.h"
#include "workload/Adversary.h"
#include "workload/MutatorPool.h"
#include "workload/Profile.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

constexpr unsigned WorkerCounts[] = {1, 2, 4, 8};
constexpr unsigned NumConfigs = 4;
constexpr unsigned TimedGcs = 3;

// Mutator matrix: L lanes fix one allocation schedule; the matrix proves
// the post-run digest depends on neither the mutator thread count nor
// the GC worker count.
constexpr unsigned MutatorLanes = 4;
constexpr unsigned MutatorThreadCounts[] = {1, 2, 4};
constexpr unsigned NumMutatorThreadCounts = 3;

/// FNV-1a over a few words: address-free payload stamps, so digests with
/// payload hashing compare equal across address spaces.
uint64_t stamp(uint64_t A, uint64_t B, uint64_t C) {
  uint64_t D = 1469598103934665603ULL;
  for (uint64_t V : {A, B, C}) {
    for (unsigned I = 0; I != 8; ++I) {
      D ^= (V >> (I * 8)) & 0xFF;
      D *= 1099511628211ULL;
    }
  }
  return D;
}

void stampPayload(ObjRef Obj, uint64_t S) {
  uint8_t *P = objectPayload(Obj);
  size_t N = objectPayloadSize(Obj);
  for (size_t I = 0; I + 8 <= N; I += 8) {
    uint64_t V = stamp(S, I, 0x9E3779B97F4A7C15ULL);
    std::memcpy(P + I, &V, 8);
  }
}

HeapConfig makeConfig(unsigned GcThreads, uint64_t Seed) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (96 * MiB) / PcmPageSize;
  Config.GcThreads = GcThreads;
  // A sprinkle of static failures keeps the failure-aware paths (line
  // skipping, hole scans) on the measured path.
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = Seed;
  // Defragment aggressively so full collections carry real evacuation
  // work on top of the mark/sweep bulk.
  Config.DefragFreeFraction = 0.35;
  return Config;
}

/// Deterministic mark-heavy live set: long linked lists (deep chains the
/// work-stealing deques must bound), wide fan-out hubs (instant frontier
/// explosions), pinned survivors (never move) and a few large objects,
/// plus unrooted churn so collections also sweep.
struct Workload {
  explicit Workload(Heap &Hp, uint64_t Seed, double Scale) : Hp(Hp) {
    const unsigned NumLists = 12;
    const unsigned ListLen = static_cast<unsigned>(25000 * Scale);
    const unsigned NumHubs = 6;
    const unsigned HubRefs = static_cast<unsigned>(15000 * Scale);
    const unsigned NumLarge = 4;

    // Every allocation can trigger a moving collection, so references
    // held across allocations live in heap roots and are re-read after
    // each allocate; a raw ObjRef would dangle at the first evacuation.
    for (unsigned L = 0; L != NumLists && !Hp.outOfMemory(); ++L) {
      unsigned HeadRoot = Hp.createRoot(nullptr);
      Roots.push_back(HeadRoot);
      for (unsigned I = 0; I != ListLen; ++I) {
        bool Pin = (I % 97) == 0;
        ObjRef Node = Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/2, Pin);
        if (!Node)
          break;
        stampPayload(Node, stamp(Seed, L, I));
        if (ObjRef Head = Hp.root(HeadRoot))
          Hp.writeRef(Node, 0, Head);
        Hp.setRoot(HeadRoot, Node);
        // Churn in multi-line bursts between groups of survivors. The
        // grouping matters: interleaving a survivor into every other
        // line would, under conservative line marking, keep every line
        // reachable-or-implicit and let sweeps reclaim nothing. Dense
        // survivor runs + dead churn runs leave blocks mostly free, so
        // they become defrag candidates and full collections carry real
        // evacuation work.
        if (I % 16 == 15)
          for (unsigned C = 0; C != 32; ++C)
            Hp.allocate(216, 0);
      }
    }
    for (unsigned H = 0; H != NumHubs && !Hp.outOfMemory(); ++H) {
      ObjRef Hub =
          Hp.allocate(/*PayloadBytes=*/16, static_cast<uint16_t>(HubRefs));
      if (!Hub)
        break;
      unsigned HubRoot = Hp.createRoot(Hub);
      Roots.push_back(HubRoot);
      for (unsigned I = 0; I != HubRefs; ++I) {
        ObjRef Leaf = Hp.allocate(32, 0);
        if (!Leaf)
          break;
        stampPayload(Leaf, stamp(Seed ^ 0x4B5ULL, H, I));
        Hp.writeRef(Hp.root(HubRoot), I, Leaf);
      }
    }
    for (unsigned I = 0; I != NumLarge && !Hp.outOfMemory(); ++I) {
      ObjRef Big = Hp.allocate(static_cast<uint32_t>(64 * KiB), 1);
      if (!Big)
        break;
      stampPayload(Big, stamp(Seed, 0xB16, I));
      Roots.push_back(Hp.createRoot(Big));
    }
  }

  Heap &Hp;
  std::vector<unsigned> Roots;
};

/// Everything one worker-count configuration contributes to the gate:
/// per-GC digests plus the deterministic counter snapshot.
struct ConfigResult {
  unsigned GcThreads = 0;
  std::vector<uint64_t> Digests;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t BlocksRetired = 0;
  uint64_t LinesSwept = 0;
  uint64_t PinnedRemaps = 0;
  double GcMs = 0.0; // stdout + speedup gate only, never serialized
};

ConfigResult runConfig(unsigned GcThreads, uint64_t Seed, double Scale,
                       unsigned Reps) {
  ConfigResult R;
  R.GcThreads = GcThreads;
  Heap Hp(makeConfig(GcThreads, Seed));
  Workload W(Hp, Seed, Scale);
  HeapAuditor Auditor(Hp);

  // Settle allocation-triggered collections, then time explicit full
  // collections over the steady live set. Reps repeats only the *timing*
  // loop beyond the first rep (identical live set, no digest changes),
  // and the best reading is kept to shed scheduler noise.
  double BestMs = -1.0;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I != TimedGcs; ++I)
      Hp.collect(CollectionKind::Full);
    gate::keepMin(BestMs, gate::msSince(Start));
    if (Rep == 0) {
      // Digest once per timed collection round: the heap is in its
      // post-full-GC fixed point, identical for every worker count.
      R.Digests.push_back(Auditor.digest(/*HashPayload=*/true));
      Hp.collect(CollectionKind::Nursery);
      R.Digests.push_back(Auditor.digest(/*HashPayload=*/true));
    }
  }
  R.GcMs = BestMs;

  const HeapStats &S = Hp.stats();
  R.GcCount = S.GcCount;
  R.FullGcCount = S.FullGcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.BytesAllocated = S.BytesAllocated;
  R.ObjectsEvacuated = S.ObjectsEvacuated;
  R.BlocksRetired = S.BlocksRetired;
  R.LinesSwept = S.LinesSwept;
  R.PinnedRemaps = S.PinnedFailurePageRemaps;
  return R;
}

bool countersEqual(const ConfigResult &A, const ConfigResult &B) {
  return A.Digests == B.Digests && A.GcCount == B.GcCount &&
         A.FullGcCount == B.FullGcCount &&
         A.ObjectsAllocated == B.ObjectsAllocated &&
         A.BytesAllocated == B.BytesAllocated &&
         A.ObjectsEvacuated == B.ObjectsEvacuated &&
         A.BlocksRetired == B.BlocksRetired &&
         A.LinesSwept == B.LinesSwept && A.PinnedRemaps == B.PinnedRemaps;
}

/// One (mutator threads x GC workers) cell: the post-run digest plus the
/// deterministic heap counters. Schedule-dependent values (safepoint
/// stops, parks) are Timing-domain and deliberately absent.
struct MutatorResult {
  unsigned MutatorThreads = 0;
  unsigned GcThreads = 0;
  bool Completed = false;
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t BlocksRetired = 0;
  uint64_t LinesSwept = 0;
};

MutatorResult runMutatorConfig(unsigned MutatorThreads, unsigned GcThreads,
                               uint64_t Seed, double Scale,
                               AdversaryKind Adversary) {
  MutatorResult R;
  R.MutatorThreads = MutatorThreads;
  R.GcThreads = GcThreads;

  const Profile *P = findProfile("luindex");
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  // Every lane carries a full live set, so the heap scales with lanes.
  // Adversarial lanes inflate it further (the frag ladder pads every
  // small object to a line-straddling size), so they get more headroom.
  unsigned Factor = Adversary == AdversaryKind::None ? 4 : 12;
  Config.HeapBytes = P->LiveSetBytes * Factor * MutatorLanes;
  Config.GcThreads = GcThreads;
  Runtime Rt(Config);

  MutatorPoolOptions PoolOpts;
  PoolOpts.Lanes = MutatorLanes;
  PoolOpts.Threads = MutatorThreads;
  PoolOpts.Seed = Seed;
  PoolOpts.VolumeScale = Scale;
  PoolOpts.Adversary = Adversary;
  MutatorPool Pool(Rt, *P, PoolOpts);
  R.Completed = Pool.run();

  // Settle on a full-collection fixed point before digesting, so the
  // digest reflects the heap the lane schedule built, not whatever churn
  // the last slice left unreclaimed.
  Rt.collect(true);
  HeapAuditor Auditor(Rt.heap());
  R.Digest = Auditor.digest(/*HashPayload=*/true);

  const HeapStats &S = Rt.stats();
  R.GcCount = S.GcCount;
  R.FullGcCount = S.FullGcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.BytesAllocated = S.BytesAllocated;
  R.ObjectsEvacuated = S.ObjectsEvacuated;
  R.BlocksRetired = S.BlocksRetired;
  R.LinesSwept = S.LinesSwept;
  return R;
}

bool mutatorCellsEqual(const MutatorResult &A, const MutatorResult &B) {
  return A.Completed == B.Completed && A.Digest == B.Digest &&
         A.GcCount == B.GcCount && A.FullGcCount == B.FullGcCount &&
         A.ObjectsAllocated == B.ObjectsAllocated &&
         A.BytesAllocated == B.BytesAllocated &&
         A.ObjectsEvacuated == B.ObjectsEvacuated &&
         A.BlocksRetired == B.BlocksRetired && A.LinesSwept == B.LinesSwept;
}

} // namespace

int main(int argc, char **argv) {
  const gate::Options Opt = gate::parseArgs(
      argc, argv, "parallel_gc", gate::TakesScale | gate::Timed, 3);
  const uint64_t Seed = Opt.Seed;
  const double Scale = Opt.Scale;

  std::printf("%-10s %10s %10s %12s %10s %9s\n", "gc-threads", "full-gcs",
              "evacuated", "lines-swept", "digests", "gc-ms");
  ConfigResult Results[NumConfigs];
  for (unsigned C = 0; C != NumConfigs; ++C) {
    Results[C] = runConfig(WorkerCounts[C], Seed, Scale, Opt.Reps);
    const ConfigResult &R = Results[C];
    std::printf("%-10u %10llu %10llu %12llu %10zu %9.2f\n", R.GcThreads,
                (unsigned long long)R.FullGcCount,
                (unsigned long long)R.ObjectsEvacuated,
                (unsigned long long)R.LinesSwept, R.Digests.size(),
                R.GcMs);
  }

  // Determinism gate: every configuration must reproduce the serial
  // heap's digests and counters exactly.
  bool Identical = true;
  for (unsigned C = 1; C != NumConfigs; ++C)
    if (!countersEqual(Results[0], Results[C])) {
      Identical = false;
      std::printf("MISMATCH: %u-worker heap differs from serial\n",
                  Results[C].GcThreads);
    }

  // Mutator matrix: L lanes driven by every (mutator threads x GC
  // workers) combination must converge on one digest and one set of
  // deterministic counters - the turnstile schedule, not the thread
  // interleaving, owns the heap's evolution.
  auto RunCell = [&](std::vector<MutatorResult> &Cells, unsigned MutThreads,
                     unsigned GcThreads, AdversaryKind Adversary) {
    Cells.push_back(
        runMutatorConfig(MutThreads, GcThreads, Seed, Scale, Adversary));
    const MutatorResult &R = Cells.back();
    std::printf("%-12u %-10u %10llu %10llu   %016llx\n", R.MutatorThreads,
                R.GcThreads, (unsigned long long)R.GcCount,
                (unsigned long long)R.ObjectsEvacuated,
                (unsigned long long)R.Digest);
  };
  auto AllAgree = [](const std::vector<MutatorResult> &Cells,
                     const char *What) {
    bool Same = true;
    for (const MutatorResult &R : Cells)
      if (!mutatorCellsEqual(Cells.front(), R) || !R.Completed) {
        Same = false;
        std::printf("MISMATCH: %s%u mutator threads x %u workers "
                    "diverges\n",
                    What, R.MutatorThreads, R.GcThreads);
      }
    return Same;
  };
  std::printf("\n%-12s %-10s %10s %10s %18s\n", "mut-threads",
              "gc-threads", "gcs", "evacuated", "digest");
  std::vector<MutatorResult> Matrix;
  for (unsigned M = 0; M != NumMutatorThreadCounts; ++M)
    for (unsigned C = 0; C != NumConfigs; ++C)
      RunCell(Matrix, MutatorThreadCounts[M], WorkerCounts[C],
              AdversaryKind::None);
  bool MutatorIdentical = AllAgree(Matrix, "");

  // Adversary corner cells: lane determinism must also hold when every
  // lane runs an adversarial strategy (the frag ladder maximizes
  // cross-line churn, the worst case for schedule-dependent bugs). The
  // digest legitimately differs from the benign matrix; the gate is
  // that all four corner cells agree with each other.
  std::printf("\n%-12s %-10s %10s %10s %18s  (frag adversary)\n",
              "mut-threads", "gc-threads", "gcs", "evacuated", "digest");
  std::vector<MutatorResult> AdvMatrix;
  for (unsigned MutThreads : {1u, 4u})
    for (unsigned GcThreads : {1u, 8u})
      RunCell(AdvMatrix, MutThreads, GcThreads, AdversaryKind::Frag);
  bool AdversaryIdentical = AllAgree(AdvMatrix, "frag ");

  double Speedup =
      Results[2].GcMs > 0.0 ? Results[0].GcMs / Results[2].GcMs : 0.0;
  bool FewThreads = std::thread::hardware_concurrency() < 4;
  bool GateArmed = !Opt.NoTimingGate && !FewThreads;
  std::printf("\nserial %.2f ms vs 4-worker %.2f ms -> %.2fx speedup "
              "(gate %s: need >= 1.80)\n",
              Results[0].GcMs, Results[2].GcMs, Speedup,
              FewThreads && !Opt.NoTimingGate ? "disarmed: < 4 hw threads"
                                              : gate::armedLabel(Opt));

  // Deterministic JSON: counters and digests only, fixed field order,
  // no wall times. Same seed => byte-identical file.
  FILE *Out = gate::openOut(Opt);
  JsonWriter W(Out);
  gate::writeHead(W, "perf02_parallel_gc", Opt);
  W.key("timed_gcs");
  W.value(TimedGcs);
  W.key("configs");
  W.openArray(JsonWriter::Style::Line);
  for (unsigned C = 0; C != NumConfigs; ++C) {
    const ConfigResult &R = Results[C];
    W.openObject(JsonWriter::Style::Inline);
    W.key("gc_threads");
    W.value(R.GcThreads);
    W.key("gc_count");
    W.value(R.GcCount);
    W.key("full_gc_count");
    W.value(R.FullGcCount);
    W.key("objects_allocated");
    W.value(R.ObjectsAllocated);
    W.key("bytes_allocated");
    W.value(R.BytesAllocated);
    W.key("objects_evacuated");
    W.value(R.ObjectsEvacuated);
    W.key("blocks_retired");
    W.value(R.BlocksRetired);
    W.key("lines_swept");
    W.value(R.LinesSwept);
    W.key("pinned_remaps");
    W.value(R.PinnedRemaps);
    W.lineBreak(5); // Digest rows wrap under the counters.
    W.key("digests");
    W.openArray(JsonWriter::Style::Inline);
    for (uint64_t Digest : R.Digests)
      W.valueHex(Digest);
    W.close();
    W.close();
  }
  W.close();
  W.key("identical_across_worker_counts");
  W.value(Identical);
  W.key("mutator_lanes");
  W.value(MutatorLanes);
  auto WriteCells = [&W](const char *Key,
                         const std::vector<MutatorResult> &Cells) {
    W.key(Key);
    W.openArray(JsonWriter::Style::Line);
    for (const MutatorResult &R : Cells) {
      W.openObject(JsonWriter::Style::Inline);
      W.key("mutator_threads");
      W.value(R.MutatorThreads);
      W.key("gc_threads");
      W.value(R.GcThreads);
      W.key("gc_count");
      W.value(R.GcCount);
      W.key("full_gc_count");
      W.value(R.FullGcCount);
      W.key("objects_allocated");
      W.value(R.ObjectsAllocated);
      W.key("bytes_allocated");
      W.value(R.BytesAllocated);
      W.key("objects_evacuated");
      W.value(R.ObjectsEvacuated);
      W.key("blocks_retired");
      W.value(R.BlocksRetired);
      W.key("lines_swept");
      W.value(R.LinesSwept);
      W.key("digest");
      W.valueHex(R.Digest);
      W.close();
    }
    W.close();
  };
  WriteCells("mutator_matrix", Matrix);
  W.key("identical_across_mutator_threads");
  W.value(MutatorIdentical);
  W.key("adversary");
  W.value(adversaryName(AdversaryKind::Frag));
  WriteCells("adversary_matrix", AdvMatrix);
  W.key("identical_across_adversary_cells");
  W.value(AdversaryIdentical);
  gate::finishOut(W, Out, Opt);

  if (!Identical || !MutatorIdentical || !AdversaryIdentical)
    return 2;
  if (GateArmed && Speedup < 1.8) {
    std::printf("SPEEDUP GATE FAILED: %.2fx < 1.80x\n", Speedup);
    return 3;
  }
  return 0;
}
