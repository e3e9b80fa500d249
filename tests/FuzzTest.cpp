//===- tests/FuzzTest.cpp - Randomized differential stress tests ----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Two randomized differential testers:
//
//  * PcmDeviceFuzz drives a device with random line reads and writes
//    while mirroring every durable write into a shadow array; after any
//    number of wear-outs, clusterings, and OS drains, every readable
//    line must match the shadow.
//
//  * HeapFuzz drives a heap with random allocations, pointer updates,
//    root churn, collections, and dynamic failures while mirroring the
//    object graph into a shadow structure keyed by stable object ids;
//    after every collection the heap graph must match the shadow exactly.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "os/OsKernel.h"
#include "pcm/PcmDevice.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

using namespace wearmem;

//===----------------------------------------------------------------------===//
// Device vs shadow array
//===----------------------------------------------------------------------===//

struct DeviceFuzzParam {
  bool Clustering;
  unsigned RegionPages;
  uint64_t Seed;
};

class PcmDeviceFuzz : public ::testing::TestWithParam<DeviceFuzzParam> {};

TEST_P(PcmDeviceFuzz, MatchesShadowThroughWearout) {
  DeviceFuzzParam Param = GetParam();
  PcmDeviceConfig Config;
  Config.NumPages = 8;
  Config.MeanLineLifetime = 30; // Failures happen often.
  Config.LifetimeVariation = 0.3;
  Config.FailureBufferCapacity = 16;
  Config.ClusteringEnabled = Param.Clustering;
  Config.RegionPages = Param.RegionPages;
  Config.Seed = Param.Seed;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);

  // The up-call records retired lines; the shadow stops tracking them.
  std::vector<bool> Dead(Device.numLines(), false);
  Kernel.registerHandler(
      [&Dead](const std::vector<FailureRecord> &Pending) {
        for (const FailureRecord &Record : Pending)
          Dead[lineOfAddr(Record.LineAddr)] = true;
      });

  std::vector<std::array<uint8_t, PcmLineSize>> Shadow(Device.numLines());
  Rng Rand(Param.Seed * 77 + 5);
  uint64_t DurableWrites = 0;
  for (int Op = 0; Op != 30000; ++Op) {
    LineIndex Line = Rand.nextBelow(Device.numLines());
    // Consult the *current* failure map like a correct OS would. The
    // kernel handler above may retire more lines during the write.
    if (Device.softwareFailureMap().isFailed(Line))
      continue;
    if (Rand.nextBool(0.6)) {
      std::array<uint8_t, PcmLineSize> Data;
      for (auto &Byte : Data)
        Byte = static_cast<uint8_t>(Rand.next());
      WriteResult Result = Device.writeLine(Line, Data.data());
      ASSERT_NE(Result, WriteResult::DeadLine);
      if (Result == WriteResult::Ok) {
        ++DurableWrites;
        // Durable even if the line failed mid-write: either it was
        // remapped (clustering) or the kernel retired it and the data
        // lives nowhere - in that case the line reads as dead below.
        Shadow[Line] = Data;
      }
    } else {
      uint8_t Out[PcmLineSize];
      Device.readLine(Line, Out);
      // A line the kernel retired after its last write is unreadable;
      // everything else must match the shadow.
      if (!Device.softwareFailureMap().isFailed(Line))
        ASSERT_EQ(std::memcmp(Out, Shadow[Line].data(), PcmLineSize), 0)
            << "line " << Line << " after op " << Op;
    }
  }
  EXPECT_GT(DurableWrites, 10000u);
  // Wear really happened.
  EXPECT_GT(Device.stats().WearFailures, 20u);

  // Full final audit of all surviving lines.
  for (LineIndex Line = 0; Line != Device.numLines(); ++Line) {
    if (Device.softwareFailureMap().isFailed(Line))
      continue;
    uint8_t Out[PcmLineSize];
    Device.readLine(Line, Out);
    ASSERT_EQ(std::memcmp(Out, Shadow[Line].data(), PcmLineSize), 0)
        << "final audit, line " << Line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PcmDeviceFuzz,
    ::testing::Values(DeviceFuzzParam{false, 1, 11},
                      DeviceFuzzParam{false, 1, 12},
                      DeviceFuzzParam{true, 1, 13},
                      DeviceFuzzParam{true, 2, 14},
                      DeviceFuzzParam{true, 2, 15},
                      DeviceFuzzParam{true, 4, 16}));

//===----------------------------------------------------------------------===//
// Heap vs shadow graph
//===----------------------------------------------------------------------===//

struct HeapFuzzParam {
  CollectorKind Collector;
  double Rate;
  unsigned ClusterPages;
  uint64_t Seed;
};

class HeapFuzz : public ::testing::TestWithParam<HeapFuzzParam> {};

TEST_P(HeapFuzz, GraphMatchesShadow) {
  HeapFuzzParam Param = GetParam();
  RuntimeConfig Config;
  Config.Collector = Param.Collector;
  Config.HeapBytes = 6 * MiB;
  Config.FailureRate = Param.Rate;
  Config.ClusteringRegionPages = Param.ClusterPages;
  Config.Seed = Param.Seed;
  Runtime Rt(Config);
  Rng Rand(Param.Seed ^ 0xF00D);

  // Shadow model: node id -> (payload id, children ids). Ids are stored
  // in the heap objects' payloads, so the graph can be compared after
  // arbitrary moves.
  struct ShadowNode {
    uint64_t Id;
    std::vector<uint64_t> Children;
  };
  constexpr unsigned NumRoots = 24;
  constexpr unsigned MaxRefs = 3;
  std::vector<Handle> Roots;
  std::vector<ShadowNode> ShadowRoots(NumRoots);
  uint64_t NextId = 1;

  auto makeNode = [&](ShadowNode &Shadow) -> ObjRef {
    ObjRef Obj = Rt.allocate(
        16, MaxRefs, /*Pinned=*/Rand.nextBool(0.01));
    if (!Obj)
      return nullptr;
    Shadow.Id = NextId;
    Shadow.Children.assign(MaxRefs, 0);
    *reinterpret_cast<uint64_t *>(objectPayload(Obj)) = NextId++;
    return Obj;
  };

  for (unsigned I = 0; I != NumRoots; ++I) {
    ObjRef Obj = makeNode(ShadowRoots[I]);
    ASSERT_NE(Obj, nullptr);
    Roots.push_back(Handle(Rt, Obj));
  }

  auto verify = [&]() {
    for (unsigned I = 0; I != NumRoots; ++I) {
      ObjRef Obj = Roots[I].get();
      ASSERT_EQ(*reinterpret_cast<uint64_t *>(objectPayload(Obj)),
                ShadowRoots[I].Id);
      for (unsigned Slot = 0; Slot != MaxRefs; ++Slot) {
        ObjRef Child = Runtime::readRef(Obj, Slot);
        uint64_t ChildId =
            Child ? *reinterpret_cast<uint64_t *>(objectPayload(Child))
                  : 0;
        ASSERT_EQ(ChildId, ShadowRoots[I].Children[Slot])
            << "root " << I << " slot " << Slot;
      }
    }
  };

  Rng FailureRand(Param.Seed + 1);
  for (int Op = 0; Op != 4000; ++Op) {
    unsigned RootIdx = static_cast<unsigned>(Rand.nextBelow(NumRoots));
    double Dice = Rand.nextDouble();
    if (Dice < 0.55) {
      // Attach a fresh child (old one, if any, becomes garbage since the
      // fuzz graph is a forest of depth 1).
      ShadowNode Child;
      ObjRef ChildObj = makeNode(Child);
      ASSERT_NE(ChildObj, nullptr);
      unsigned Slot = static_cast<unsigned>(Rand.nextBelow(MaxRefs));
      Rt.writeRef(Roots[RootIdx].get(), Slot, ChildObj);
      ShadowRoots[RootIdx].Children[Slot] = Child.Id;
    } else if (Dice < 0.75) {
      // Clear a slot.
      unsigned Slot = static_cast<unsigned>(Rand.nextBelow(MaxRefs));
      Rt.writeRef(Roots[RootIdx].get(), Slot, nullptr);
      ShadowRoots[RootIdx].Children[Slot] = 0;
    } else if (Dice < 0.9) {
      // Garbage pressure.
      for (int I = 0; I != 100; ++I)
        ASSERT_NE(Rt.allocate(static_cast<uint32_t>(
                                  24 + Rand.nextBelow(400)),
                              1),
                  nullptr);
    } else if (Dice < 0.97) {
      Rt.collect(Rand.nextBool(0.5));
      verify();
    } else if (isImmix(Param.Collector)) {
      // A line dies under the application's feet.
      Rt.injectRandomDynamicFailure(FailureRand);
      verify();
    }
  }
  Rt.collect(true);
  verify();
  Rt.heap().verifyIntegrity();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HeapFuzz,
    ::testing::Values(
        HeapFuzzParam{CollectorKind::StickyImmix, 0.0, 0, 1},
        HeapFuzzParam{CollectorKind::StickyImmix, 0.25, 2, 2},
        HeapFuzzParam{CollectorKind::StickyImmix, 0.50, 2, 3},
        HeapFuzzParam{CollectorKind::StickyImmix, 0.10, 0, 4},
        HeapFuzzParam{CollectorKind::Immix, 0.25, 2, 5},
        HeapFuzzParam{CollectorKind::MarkSweep, 0.0, 0, 6},
        HeapFuzzParam{CollectorKind::StickyMarkSweep, 0.0, 0, 7}),
    [](const ::testing::TestParamInfo<HeapFuzzParam> &Info) {
      char Buf[64];
      const char *Name =
          Info.param.Collector == CollectorKind::StickyImmix  ? "SIX"
          : Info.param.Collector == CollectorKind::Immix      ? "IX"
          : Info.param.Collector == CollectorKind::MarkSweep  ? "MS"
                                                              : "SMS";
      std::snprintf(Buf, sizeof(Buf), "%s_f%02d_cl%u_s%llu", Name,
                    static_cast<int>(Info.param.Rate * 100),
                    Info.param.ClusterPages,
                    static_cast<unsigned long long>(Info.param.Seed));
      return std::string(Buf);
    });

//===----------------------------------------------------------------------===//
// Incremental SATB marking vs stop-the-world
//===----------------------------------------------------------------------===//
//
// Differential fuzz for the incremental mark cycle: a seeded schedule of
// reference-swap storms, root rewrites, and dynamic line failures runs
// once interleaved with budgeted mark increments, once with the cycle
// drained by the dedicated marker thread (step boundaries become flush
// handshakes, so the racing marker sees sealed SATB segments at fuzzed
// points), and once as plain mutation closed by a stop-the-world full
// collection. The swaps permute satellite objects without dropping any
// (each transiently survives only in the SATB deletion log), so all legs
// must converge to bit-identical physical heaps; failures landing
// mid-cycle park until the close in the marking legs and are injected at
// the matching post-collection point in the stop-the-world leg.

#include "gc/HeapAuditor.h"
#include "workload/Storm.h"

namespace {

struct SatbOp {
  enum Kind : uint8_t { Swap, RootStore, Fail, StepBoundary } K;
  unsigned A, B, C, D;
};

/// One leg of the differential run. The schedule is precomputed so all
/// legs perform byte-identical mutation; only the mark pacing differs.
uint64_t runSatbLeg(MarkPacing Pacing, unsigned GcThreads, uint64_t Seed,
                    const std::vector<SatbOp> &Schedule) {
  HeapConfig Cfg;
  Cfg.Collector = CollectorKind::StickyImmix;
  Cfg.BudgetPages = (24 * MiB) / PcmPageSize;
  Cfg.GcThreads = GcThreads;
  Cfg.Failures.Rate = 0.05;
  Cfg.Failures.Seed = Seed;
  Cfg.Pacing = Pacing;
  Cfg.MarkBudget = 128;
  Heap Hp(Cfg);
  const bool Marking = Pacing != MarkPacing::StopTheWorld;

  constexpr unsigned NumLists = 4;
  constexpr unsigned ListLen = 1200;
  constexpr unsigned NumVictims = 6;
  std::vector<unsigned> Heads;
  for (unsigned L = 0; L != NumLists; ++L) {
    unsigned HeadRoot = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != ListLen; ++I) {
      ObjRef Node = Hp.allocate(40, 2);
      if (!Node)
        break;
      *reinterpret_cast<uint64_t *>(objectPayload(Node)) =
          (uint64_t(L) << 32) | I;
      if (I % 3 == 0) {
        if (ObjRef Sat = Hp.allocate(24, 0)) {
          *reinterpret_cast<uint64_t *>(objectPayload(Sat)) =
              0xFA7ull << 40 | (uint64_t(L) << 20) | I;
          Hp.writeRef(Node, 1, Sat);
        }
      }
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(HeadRoot, Node);
    }
    Heads.push_back(HeadRoot);
  }
  // Pinned fail targets, one per simulated mutator lane: they never
  // move, so the same addresses fail in both legs.
  std::vector<ObjRef> Victims;
  for (unsigned V = 0; V != NumVictims; ++V) {
    ObjRef Obj = Hp.allocate(64, 0, /*Pinned=*/true);
    EXPECT_NE(Obj, nullptr);
    Hp.createRoot(Obj);
    Victims.push_back(Obj);
  }
  EXPECT_FALSE(Hp.outOfMemory());

  auto walkList = [&](unsigned L, unsigned Depth) {
    ObjRef Node = Hp.root(Heads[L]);
    for (unsigned I = 0; I != Depth && Node; ++I) {
      ObjRef Next = Heap::readRef(Node, 0);
      if (!Next)
        break;
      Node = Next;
    }
    return Node;
  };

  if (Marking) {
    EXPECT_TRUE(Hp.beginIncrementalMarkCycle());
  }
  std::vector<ObjRef> Parked; // STW leg: failures held to the close point.
  for (const SatbOp &Op : Schedule) {
    switch (Op.K) {
    case SatbOp::Swap: {
      ObjRef X = walkList(Op.A % NumLists, Op.C);
      ObjRef Y = walkList(Op.B % NumLists, Op.D);
      if (!X || !Y || X == Y)
        break;
      ObjRef Tx = Heap::readRef(X, 1);
      ObjRef Ty = Heap::readRef(Y, 1);
      Hp.writeRef(X, 1, Ty);
      Hp.writeRef(Y, 1, Tx);
      break;
    }
    case SatbOp::RootStore:
      Hp.setRoot(Heads[Op.A % NumLists], Hp.root(Heads[Op.A % NumLists]));
      break;
    case SatbOp::Fail:
      // Mid-cycle line death. Marking legs: parks until the drain
      // after the close. Stop-the-world: recorded and injected at the
      // equivalent point (right after the closing collection).
      if (Marking)
        Hp.injectDynamicFailureBatch({Victims[Op.A % NumVictims]});
      else
        Parked.push_back(Victims[Op.A % NumVictims]);
      break;
    case SatbOp::StepBoundary:
      // The same fuzzed pacing point means a budgeted step when the
      // mutator drains and a flush handshake when the marker does.
      paceCycle(Hp, Pacing);
      break;
    }
  }
  if (Marking) {
    Hp.finishIncrementalMarkCycle();
  } else {
    Hp.collect(CollectionKind::Full);
    for (ObjRef V : Parked)
      Hp.injectDynamicFailureBatch({V});
  }
  Hp.collect(CollectionKind::Full); // Settle.
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
  return Auditor.digest(/*HashPayload=*/true);
}

} // namespace

class SatbFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatbFuzz, IncrementalMatchesStopTheWorld) {
  uint64_t Seed = GetParam();
  Rng Rand(Seed * 131 + 17);
  // Precompute the schedule: ~30 batches of swap/root-store storms, a
  // step boundary between batches (occasionally several, occasionally
  // none - increments must tolerate both), and a handful of mid-cycle
  // failures on distinct victims.
  std::vector<SatbOp> Schedule;
  std::vector<unsigned> FreshVictims{0, 1, 2, 3, 4, 5};
  for (unsigned Batch = 0; Batch != 30; ++Batch) {
    unsigned Ops = 20 + static_cast<unsigned>(Rand.nextBelow(30));
    for (unsigned I = 0; I != Ops; ++I) {
      if (Rand.nextBool(0.12)) {
        Schedule.push_back(
            {SatbOp::RootStore,
             static_cast<unsigned>(Rand.nextBelow(4)), 0, 0, 0});
      } else {
        Schedule.push_back(
            {SatbOp::Swap, static_cast<unsigned>(Rand.nextBelow(4)),
             static_cast<unsigned>(Rand.nextBelow(4)),
             static_cast<unsigned>(Rand.nextBelow(41)),
             static_cast<unsigned>(Rand.nextBelow(41))});
      }
    }
    if (!FreshVictims.empty() && Rand.nextBool(0.15)) {
      unsigned Pick =
          static_cast<unsigned>(Rand.nextBelow(FreshVictims.size()));
      Schedule.push_back({SatbOp::Fail, FreshVictims[Pick], 0, 0, 0});
      FreshVictims.erase(FreshVictims.begin() + Pick);
    }
    unsigned Steps = static_cast<unsigned>(Rand.nextBelow(3));
    for (unsigned S = 0; S != Steps; ++S)
      Schedule.push_back({SatbOp::StepBoundary, 0, 0, 0, 0});
  }

  uint64_t Stw = runSatbLeg(MarkPacing::StopTheWorld, 1, Seed, Schedule);
  uint64_t Inc1 = runSatbLeg(MarkPacing::Incremental, 1, Seed, Schedule);
  uint64_t Inc4 = runSatbLeg(MarkPacing::Incremental, 4, Seed, Schedule);
  EXPECT_EQ(Inc1, Stw) << "seed " << Seed;
  EXPECT_EQ(Inc4, Stw) << "seed " << Seed;
  // The marker-thread pacing of the same schedule: the free-running
  // drain must be invisible in the final heap.
  uint64_t Conc1 = runSatbLeg(MarkPacing::Concurrent, 1, Seed, Schedule);
  uint64_t Conc4 = runSatbLeg(MarkPacing::Concurrent, 4, Seed, Schedule);
  EXPECT_EQ(Conc1, Stw) << "seed " << Seed;
  EXPECT_EQ(Conc4, Stw) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatbFuzz,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));
