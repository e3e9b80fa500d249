//===- heap/ImmixSpace.h - Mark-region space and allocator ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Immix mark-region heap space (Blackburn & McKinley, PLDI 2008) with
/// the paper's failure-aware extensions (Section 4):
///
///  * blocks acquired from the OS carry per-page failure maps; overlapped
///    lines enter the Failed line state and are never allocated into;
///  * the bump allocator skips failed lines exactly as it skips live ones;
///  * overflow (medium-object) allocation searches the remainder of the
///    overflow block for a fitting hole before falling back to requesting
///    a *perfect* free block from the OS (a fussy request);
///  * defragmentation candidacy is extended to blocks hit by dynamic
///    failures.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_HEAP_IMMIXSPACE_H
#define WEARMEM_HEAP_IMMIXSPACE_H

#include "heap/Block.h"
#include "heap/HeapConfig.h"
#include "heap/Object.h"
#include "os/Os.h"

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace wearmem {

class ImmixSpace;

/// A thread-local bump allocator over Immix blocks, with a separate
/// overflow cursor for medium objects. Also used (with a distinct hole
/// epoch) as the evacuation allocator during collections.
class ImmixAllocator {
public:
  ImmixAllocator(ImmixSpace &Space, const HeapConfig &Config,
                 HeapStats &Stats)
      : Space(Space), Config(Config), Stats(Stats) {}

  /// Epochs used to *find holes*. For mutator allocation both equal the
  /// current mark epoch. During a full-collection evacuation,
  /// \p SweepEpoch is the previous epoch (the state of the last sweep, so
  /// not-yet-marked live lines are not treated as free) and \p MarkEpoch
  /// is the current one (so lines the trace already re-marked in place
  /// are not treated as free either).
  void setHoleEpochs(uint8_t SweepEpoch, uint8_t MarkEpoch) {
    this->SweepEpoch = SweepEpoch;
    this->MarkEpoch = MarkEpoch;
  }

  /// Evacuation is opportunistic: it must not borrow perfect pages just
  /// to copy a medium object, so the evacuation allocator disables the
  /// fussy overflow fallback and simply fails (the object stays put).
  void setAllowPerfectFallback(bool Allow) {
    AllowPerfectFallback = Allow;
  }

  /// Returns \p Size bytes of zeroed, line-hole-respecting memory, or
  /// nullptr if the space cannot supply a block (collection required).
  uint8_t *alloc(size_t Size);

  /// Drops block ownership (called at collection start); the blocks'
  /// remaining holes are rediscovered by the next sweep.
  void retire();

  /// Invalidates cached bump regions after lines failed dynamically.
  void invalidateCache();

  /// The mutator lane this allocator serves. Blocks acquired for the
  /// small-object TLAB are tagged with the lane so dynamic-failure
  /// interrupts can be routed to the owning thread; -1 (the evacuation
  /// allocator, legacy single-mutator paths) leaves blocks untagged.
  void setLane(int Lane) { this->Lane = Lane; }
  int lane() const { return Lane; }

  /// \name TLAB introspection (auditor, thread-targeted fault shapes)
  /// @{
  Block *currentBlock() const { return Cur; }
  Block *overflowBlock() const { return Ovf; }
  const uint8_t *cursor() const { return Cursor; }
  const uint8_t *limit() const { return Limit; }
  const uint8_t *ovfCursor() const { return OvfCursor; }
  const uint8_t *ovfLimit() const { return OvfLimit; }
  /// @}

private:
  uint8_t *allocFast(size_t Size);
  uint8_t *allocSmallSlow(size_t Size);
  uint8_t *allocOverflow(size_t Size);
  bool installHole(Block *B, const Hole &H, uint8_t *&Cursor,
                   uint8_t *&Limit);

  /// Tags \p B as owned by this allocator's lane (no-op for lane -1).
  void tagOwner(Block *B);
  /// Clears the owner tag when a TLAB block is abandoned.
  void untagOwner(Block *B);

  ImmixSpace &Space;
  const HeapConfig &Config;
  HeapStats &Stats;
  uint8_t SweepEpoch = 1;
  uint8_t MarkEpoch = 1;
  bool AllowPerfectFallback = true;
  int Lane = -1;

  Block *Cur = nullptr;
  unsigned CurSearchLine = 0;
  uint8_t *Cursor = nullptr;
  uint8_t *Limit = nullptr;

  Block *Ovf = nullptr;
  unsigned OvfSearchLine = 0;
  uint8_t *OvfCursor = nullptr;
  uint8_t *OvfLimit = nullptr;
};

/// Sweep summary across the space.
struct ImmixSweepTotals {
  size_t FreeBlocks = 0;
  size_t RecyclableBlocks = 0;
  size_t FullBlocks = 0;
  size_t RetiredBlocks = 0;
  size_t FreeLines = 0;
  size_t TotalLines = 0;
  size_t FailedLines = 0;
};

/// Address-to-block map of one space, read without a lock: a two-level
/// table of Block pointers indexed by Addr >> log2(BlockSize), in the
/// style of an allocator pagemap. The root and the leaves are zero-filled
/// anonymous mappings, so only the pages holding live entries ever become
/// resident. Writers (set) must be serialised by the caller; a leaf, once
/// installed, lives as long as the map, so a reader's two acquire loads
/// never see a freed leaf.
class BlockMap {
public:
  explicit BlockMap(size_t BlockSize);
  ~BlockMap();
  BlockMap(const BlockMap &) = delete;
  BlockMap &operator=(const BlockMap &) = delete;

  /// The block registered at \p Addr's block base, or nullptr.
  Block *lookup(const void *Addr) const {
    uintptr_t Index = reinterpret_cast<uintptr_t>(Addr) >> Shift;
    if (Index >> (RootBits + LeafBits))
      return nullptr; // Above the mapped address range: not ours.
    Block **Leaf = std::atomic_ref<Block **>(Root[Index >> LeafBits])
                       .load(std::memory_order_acquire);
    if (!Leaf)
      return nullptr;
    return std::atomic_ref<Block *>(Leaf[Index & LeafMask])
        .load(std::memory_order_acquire);
  }

  /// Registers \p B at block base \p Base (nullptr unregisters).
  void set(const void *Base, Block *B);

private:
  /// Two levels cover a 48-bit address space; a leaf maps 2^LeafBits
  /// consecutive blocks (2 GiB of heap at 32 KiB blocks).
  static constexpr unsigned AddressBits = 48;
  static constexpr unsigned LeafBits = 16;
  static constexpr uintptr_t LeafMask = (uintptr_t(1) << LeafBits) - 1;

  unsigned Shift;
  unsigned RootBits;
  Block ***Root;
  /// Installed leaves, for the destructor (the root is mostly empty).
  std::vector<Block **> Leaves;
};

/// The block-structured space itself.
class ImmixSpace {
public:
  /// \p Gate is consulted (with a page count) before growing the space;
  /// it implements the heap budget.
  using BudgetGate = std::function<bool(size_t)>;

  ImmixSpace(FailureAwareOs &Os, const HeapConfig &Config, HeapStats &Stats,
             BudgetGate Gate);

  /// A block with reusable holes, or nullptr. Skips blocks that are being
  /// evacuated.
  Block *takeRecyclable();

  /// A recyclable block containing a hole of at least \p NeedLines lines
  /// (found at the given epochs; \p Out receives it). Scans a bounded
  /// number of list entries, reinserting unsuitable blocks at the far end
  /// in O(1) and resuming each block's hole search from its fitting
  /// cursor. This is the overflow allocator's pressure-relief: when no
  /// completely free block remains, medium objects can still drain
  /// recycled holes instead of demanding perfect memory or collection.
  Block *takeRecyclableFitting(unsigned NeedLines, uint8_t SweepEpoch,
                               uint8_t MarkEpoch, Hole &Out);

  /// A completely empty block (possibly imperfect), from the local free
  /// list or the OS; nullptr when the budget is exhausted.
  Block *takeFree();

  /// A completely empty *perfect* block, from the local free list or a
  /// fussy OS request; nullptr when the debt cap is hit. Used by the
  /// failure-aware overflow fallback.
  Block *takePerfectFree();

  /// The block containing \p Addr, or nullptr if the address is not in
  /// this space (another space's block, a released block, or no heap
  /// memory at all). Lock-free: two acquire loads in the space's
  /// BlockMap, safe to race TLAB refills on other lanes. Entries are
  /// filled before a block is handed out and cleared only when a block
  /// is released at a safepoint.
  Block *blockOf(const uint8_t *Addr) const { return Map.lookup(Addr); }

  /// Chooses defragmentation candidates for a full collection: blocks
  /// with fresh dynamic failures always; otherwise the most fragmented
  /// recyclable blocks, bounded by available copy headroom.
  void selectDefragCandidates();

  /// Clears candidate flags (at sweep).
  void clearDefragCandidates();

  /// Rebuilds the free/recyclable lists from the line marks at \p Epoch.
  /// With a non-empty \p Par, the per-block recount (the O(lines) part)
  /// runs sharded across GC workers into per-block result slots; the
  /// classification/retirement merge then walks blocks serially in
  /// creation order, so list contents and retirement decisions are
  /// byte-identical to a serial sweep under any worker count.
  ImmixSweepTotals sweep(uint8_t Epoch, const GcParallelFor &Par = {});

  /// Returns completely empty blocks beyond \p KeepFree to the OS pool
  /// (the paper's "global pool of pages for use by the whole runtime"),
  /// so page-grained allocators can compete for them. Blocks that
  /// suffered a dynamic failure are retained until their candidate flag
  /// clears. \p OnRelease (optional) observes each block just before it
  /// is handed back, so bookkeeping keyed on block bases (the dynamic
  /// failure ledger) can be pruned. Returns the number of blocks
  /// released.
  size_t releaseExcessFreeBlocks(
      size_t KeepFree,
      const std::function<void(const Block &)> &OnRelease = nullptr);

  size_t pagesHeld() const {
    return Blocks.size() * Config.pagesPerBlock();
  }
  size_t blockCount() const { return Blocks.size(); }

  /// Retired blocks still held (their pages are lost capacity).
  size_t retiredBlockCount() const { return RetiredCount; }

  /// Iterates all blocks (diagnostics and candidate selection).
  template <typename Fn> void forEachBlock(Fn F) {
    for (auto &B : Blocks)
      F(*B);
  }
  template <typename Fn> void forEachBlock(Fn F) const {
    for (const auto &B : Blocks)
      F(static_cast<const Block &>(*B));
  }

private:
  Block *createBlock(PageGrant &&Grant);

  FailureAwareOs &Os;
  const HeapConfig &Config;
  HeapStats &Stats;
  BudgetGate Gate;

  /// Guards the free/recycle lists and Blocks against concurrent TLAB
  /// refills from multiple mutator lanes, and serialises writes to Map.
  /// Lookups (blockOf) never take it. Collection-time paths (sweep,
  /// defrag selection) run at a safepoint and stay lock-free.
  std::mutex RegistryMu;
  BlockMap Map;

  std::vector<std::unique_ptr<Block>> Blocks;
  std::vector<Block *> FreeList;
  /// Deque, not vector: takeRecyclableFitting pops probes off the back
  /// and re-homes rejected (or evacuating) blocks at the front, both
  /// O(1). With a vector the front reinsert was O(n) per probe sequence,
  /// making every medium allocation under fragmentation quadratic-ish.
  std::deque<Block *> RecycleList;
  size_t RetiredCount = 0;

#ifdef WEARMEM_DEBUG_TRACE
public:
  /// Debug registry of released block base addresses (cleared when the
  /// address is re-granted as a block).
  std::unordered_map<uintptr_t, uint64_t> DebugReleased;
  uint64_t DebugReleaseTick = 0;
#endif
};

} // namespace wearmem

#endif // WEARMEM_HEAP_IMMIXSPACE_H
