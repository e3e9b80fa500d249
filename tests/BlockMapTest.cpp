//===- tests/BlockMapTest.cpp - Lock-free block lookup tests --------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// ImmixSpace::blockOf reads a per-space BlockMap without a lock. These
// tests pin down what it must answer: every byte of a block maps to that
// block, anything else (static data, another space's blocks, released
// blocks) maps to nullptr, a re-granted base maps to its new Block, and
// lookups racing concurrent TLAB refills always see a block that was
// handed out before they looked.
//
//===----------------------------------------------------------------------===//

#include "heap/ImmixSpace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

struct Space {
  explicit Space(size_t Pages = 256, double Rate = 0.0)
      : Os(Pages, makeFailures(Rate)) {
    Config.BudgetPages = Pages;
    Immix = std::make_unique<ImmixSpace>(
        Os, Config, Stats, [this](size_t P) {
          return Immix->pagesHeld() + P <= Config.BudgetPages;
        });
  }

  static FailureConfig makeFailures(double Rate) {
    FailureConfig F;
    F.Rate = Rate;
    F.Seed = 99;
    return F;
  }

  HeapConfig Config;
  HeapStats Stats;
  FailureAwareOs Os;
  std::unique_ptr<ImmixSpace> Immix;
};

} // namespace

TEST(BlockMapTest, EveryByteOfABlockMapsToIt) {
  Space S;
  std::vector<Block *> Taken;
  for (int I = 0; I != 4; ++I) {
    Block *B = S.Immix->takeFree();
    ASSERT_NE(B, nullptr);
    Taken.push_back(B);
  }
  size_t Size = S.Config.BlockSize;
  for (Block *B : Taken) {
    EXPECT_EQ(S.Immix->blockOf(B->base()), B);
    EXPECT_EQ(S.Immix->blockOf(B->base() + 1), B);
    EXPECT_EQ(S.Immix->blockOf(B->base() + Size / 2 + 17), B);
    EXPECT_EQ(S.Immix->blockOf(B->base() + Size - 1), B);
  }
}

TEST(BlockMapTest, NonHeapAddressesMiss) {
  Space S;
  ASSERT_NE(S.Immix->takeFree(), nullptr);
  alignas(64) static uint8_t Static[64];
  uint8_t Stack[64];
  EXPECT_EQ(S.Immix->blockOf(nullptr), nullptr);
  EXPECT_EQ(S.Immix->blockOf(Static), nullptr);
  EXPECT_EQ(S.Immix->blockOf(Stack), nullptr);
  // Above any user-space address the map covers.
  EXPECT_EQ(S.Immix->blockOf(reinterpret_cast<const uint8_t *>(
                uintptr_t(0xFFFFFFFFFFFF0000ULL))),
            nullptr);
}

TEST(BlockMapTest, ReleasedBlocksMissAndRegrantsMapToTheNewBlock) {
  Space S;
  std::vector<const uint8_t *> Bases;
  for (int I = 0; I != 6; ++I) {
    Block *B = S.Immix->takeFree();
    ASSERT_NE(B, nullptr);
    Bases.push_back(B->base());
  }
  // Nothing was allocated, so the sweep lists every block as free and
  // the release hands all of them back to the OS pool.
  ImmixSweepTotals Totals = S.Immix->sweep(/*Epoch=*/1);
  ASSERT_EQ(Totals.FreeBlocks, Bases.size());
  ASSERT_EQ(S.Immix->releaseExcessFreeBlocks(0), Bases.size());
  EXPECT_EQ(S.Immix->blockCount(), 0u);
  for (const uint8_t *Base : Bases) {
    EXPECT_EQ(S.Immix->blockOf(Base), nullptr);
    EXPECT_EQ(S.Immix->blockOf(Base + S.Config.BlockSize - 1), nullptr);
  }
  // The OS recycles the returned chunks first: the same bases come back
  // as new Blocks, and the map must name the new ones.
  std::set<const uint8_t *> Old(Bases.begin(), Bases.end());
  size_t Regranted = 0;
  for (int I = 0; I != 6; ++I) {
    Block *B = S.Immix->takeFree();
    ASSERT_NE(B, nullptr);
    Regranted += Old.count(B->base());
    EXPECT_EQ(S.Immix->blockOf(B->base()), B);
    EXPECT_EQ(S.Immix->blockOf(B->base() + S.Config.BlockSize - 1), B);
  }
  EXPECT_GT(Regranted, 0u) << "the OS pool should re-grant a released base";
}

TEST(BlockMapTest, TwoSpacesNeverSeeEachOthersBlocks) {
  Space A, B;
  std::vector<Block *> InA, InB;
  for (int I = 0; I != 4; ++I) {
    InA.push_back(A.Immix->takeFree());
    InB.push_back(B.Immix->takeFree());
    ASSERT_NE(InA.back(), nullptr);
    ASSERT_NE(InB.back(), nullptr);
  }
  for (Block *Blk : InA) {
    EXPECT_EQ(A.Immix->blockOf(Blk->base() + 8), Blk);
    EXPECT_EQ(B.Immix->blockOf(Blk->base() + 8), nullptr);
  }
  for (Block *Blk : InB) {
    EXPECT_EQ(B.Immix->blockOf(Blk->base() + 8), Blk);
    EXPECT_EQ(A.Immix->blockOf(Blk->base() + 8), nullptr);
  }
}

TEST(BlockMapTest, LookupsRaceTlabRefillsCleanly) {
  // Four lanes grow the space through takeFree while four readers look
  // up every block published so far (and a foreign address) in a loop.
  // A published block was registered before takeFree returned it, so a
  // reader must always find it; TSan checks the map's publication.
  constexpr unsigned Lanes = 4, Readers = 4, PerLane = 64;
  Space S(/*Pages=*/Lanes * PerLane * 8 + 64);
  std::vector<std::atomic<Block *>> Published(Lanes * PerLane);
  std::atomic<unsigned> Count{0};
  std::atomic<unsigned> LanesDone{0};
  std::atomic<uint64_t> Misses{0};
  alignas(64) static uint8_t Foreign[64];

  std::vector<std::thread> Threads;
  for (unsigned L = 0; L != Lanes; ++L)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != PerLane; ++I) {
        Block *B = S.Immix->takeFree();
        if (!B)
          break;
        unsigned Slot = Count.fetch_add(1, std::memory_order_relaxed);
        Published[Slot].store(B, std::memory_order_release);
      }
      LanesDone.fetch_add(1, std::memory_order_release);
    });
  for (unsigned R = 0; R != Readers; ++R)
    Threads.emplace_back([&, R] {
      uint64_t Local = 0;
      unsigned Next = R;
      bool Last = false;
      while (!Last) {
        Last = LanesDone.load(std::memory_order_acquire) == Lanes;
        unsigned Seen = Count.load(std::memory_order_relaxed);
        for (unsigned I = 0; I != Seen; ++I) {
          Block *B = Published[(I + Next) % Seen].load(
              std::memory_order_acquire);
          if (!B)
            continue; // Slot claimed, block not stored yet.
          Local += S.Immix->blockOf(B->base() + (I * 64) %
                                                    S.Config.BlockSize) != B;
        }
        Local += S.Immix->blockOf(Foreign) != nullptr;
        ++Next;
      }
      Misses.fetch_add(Local, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Misses.load(), 0u);
  EXPECT_EQ(Count.load(), Lanes * PerLane);
  EXPECT_EQ(S.Immix->blockCount(), Lanes * PerLane);
}
