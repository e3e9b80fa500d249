//===- tests/MarkWorkListFuzzTest.cpp - Work-list schedule fuzzing --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Drives MarkWorkList directly over a synthetic graph - long chains that
// keep a worker's Local buffer tiny (so idle peers depend on on-demand
// publishing) and wide fans that overflow the bounded deques - with
// random yields and short sleeps inside the scan callback, on as many
// workers as hardware threads and on twice as many. Every reachable node
// must be popped exactly once, unbudgeted phases must terminate, and
// budgeted increments (setQuota) must each stay within their quota and
// together drain the graph. The ctest TIMEOUT turns a hang into a
// failure.
//
//===----------------------------------------------------------------------===//

#include "gc/GcWorkers.h"
#include "support/Random.h"

#include "StormChecks.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

/// Chains hang off the roots, fans hang off every 97th chain node, and a
/// tail of nodes is unreachable.
struct Graph {
  explicit Graph(uint64_t Seed) {
    constexpr unsigned Chains = 6, ChainLen = 1500, FanOut = 120;
    constexpr unsigned Unreachable = 500;
    Rng R(Seed);
    auto NewNode = [&] {
      Children.emplace_back();
      return static_cast<unsigned>(Children.size() - 1);
    };
    for (unsigned C = 0; C != Chains; ++C) {
      unsigned Prev = NewNode();
      Roots.push_back(Prev);
      for (unsigned I = 1; I != ChainLen; ++I) {
        unsigned Node = NewNode();
        Children[Prev].push_back(Node);
        if (I % 97 == 0)
          for (unsigned F = 0; F != FanOut; ++F) {
            unsigned Leaf = NewNode();
            Children[Node].push_back(Leaf);
          }
        // Occasional cross edges make claims race.
        if (R.nextBelow(16) == 0 && Node > 1)
          Children[Node].push_back(
              static_cast<unsigned>(R.nextBelow(Node - 1)));
        Prev = Node;
      }
    }
    Reachable = Children.size();
    for (unsigned I = 0; I != Unreachable; ++I)
      Children[NewNode()].push_back(0);
    Bytes.resize(Children.size());
  }

  uint8_t *item(unsigned Node) { return &Bytes[Node]; }
  unsigned node(const uint8_t *Item) const {
    return static_cast<unsigned>(Item - Bytes.data());
  }

  std::vector<std::vector<unsigned>> Children;
  std::vector<unsigned> Roots;
  size_t Reachable = 0;
  std::vector<uint8_t> Bytes; ///< One address per node: the work items.
};

/// One fuzzed trace of \p G on \p Workers workers. With \p Quota != 0
/// the trace runs as budgeted increments; returns the pop count of every
/// node.
std::vector<unsigned> fuzzedTrace(Graph &G, unsigned Workers, int64_t Quota,
                                  uint64_t Seed) {
  size_t N = G.Children.size();
  std::vector<std::atomic<uint8_t>> Claimed(N);
  std::vector<std::atomic<unsigned>> Popped(N);
  // Tiny chunks and deques: every publish path (full Local, on-demand,
  // overflow spill) runs constantly.
  MarkWorkList List(Workers, /*ChunkItems=*/4, /*MaxDequeChunks=*/2);
  GcWorkerPool Pool(Workers);
  std::vector<Rng> Rngs;
  for (unsigned Wk = 0; Wk != Workers; ++Wk)
    Rngs.emplace_back(Seed * 131 + Wk);

  auto Claim = [&](unsigned Node) {
    return Claimed[Node].exchange(1, std::memory_order_acq_rel) == 0;
  };
  auto Jitter = [](Rng &R) {
    uint64_t Roll = R.nextBelow(64);
    if (Roll < 8)
      std::this_thread::yield();
    else if (Roll == 8)
      std::this_thread::sleep_for(
          std::chrono::microseconds(R.nextBelow(50)));
  };
  std::atomic<uint64_t> StepPops{0};
  auto Drain = [&](unsigned Wk) {
    Rng &R = Rngs[Wk];
    uint8_t *Item;
    while (List.pop(Wk, Item)) {
      StepPops.fetch_add(1, std::memory_order_relaxed);
      unsigned Node = G.node(Item);
      Popped[Node].fetch_add(1, std::memory_order_relaxed);
      Jitter(R);
      for (unsigned Child : G.Children[Node])
        if (Claim(Child)) {
          Jitter(R);
          List.push(Wk, G.item(Child));
        }
    }
  };
  auto Seeds = [&](unsigned Wk) {
    for (size_t I = Wk; I < G.Roots.size(); I += Workers)
      if (Claim(G.Roots[I]))
        List.push(Wk, G.item(G.Roots[I]));
  };

  if (Quota == 0) {
    Pool.runOnAll([&](unsigned Wk) {
      Seeds(Wk);
      Drain(Wk);
    });
    EXPECT_TRUE(List.quiesced());
  } else {
    Pool.runOnAll(Seeds);
    size_t Steps = 0;
    do {
      List.reopen();
      List.setQuota(Quota);
      StepPops.store(0, std::memory_order_relaxed);
      Pool.runOnAll(Drain);
      EXPECT_LE(StepPops.load(), static_cast<uint64_t>(Quota))
          << "an increment overran its quota";
      List.reopen();
      // Every increment either drains the graph or makes progress; the
      // bound catches a livelocked quota path.
      if (++Steps == 4 * G.Reachable) {
        ADD_FAILURE() << "budgeted trace stopped moving";
        break;
      }
    } while (!List.quiesced());
  }

  std::vector<unsigned> Counts(N);
  for (size_t I = 0; I != N; ++I)
    Counts[I] = Popped[I].load();
  return Counts;
}

void expectExactlyOnce(const Graph &G, const std::vector<unsigned> &Counts,
                       unsigned Workers, int64_t Quota) {
  size_t Wrong = 0;
  for (size_t I = 0; I != Counts.size(); ++I)
    Wrong += Counts[I] != (I < G.Reachable ? 1u : 0u);
  EXPECT_EQ(Wrong, 0u) << Workers << " workers, quota " << Quota
                       << ": nodes popped other than exactly once "
                          "(reachable) or never (unreachable)";
}

std::vector<unsigned> workerCounts() {
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  return {std::min(Hw, 16u), oversubscribedWorkers()};
}

} // namespace

TEST(MarkWorkListFuzzTest, EveryItemPoppedExactlyOnceUnderJitter) {
  for (unsigned Workers : workerCounts())
    for (uint64_t Seed : {1u, 2u, 3u}) {
      Graph G(Seed);
      expectExactlyOnce(G, fuzzedTrace(G, Workers, /*Quota=*/0, Seed),
                        Workers, 0);
    }
}

TEST(MarkWorkListFuzzTest, BudgetedIncrementsTerminateAndDrain) {
  for (unsigned Workers : workerCounts())
    for (int64_t Quota : {3, 64}) {
      Graph G(static_cast<uint64_t>(Quota));
      expectExactlyOnce(
          G, fuzzedTrace(G, Workers, Quota, static_cast<uint64_t>(Quota)),
          Workers, Quota);
    }
}
