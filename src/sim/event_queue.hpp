// The "heap" timer-queue backend: a pooled 4-ary min-heap.
//
// Storage is a slab of pooled slots — generation-tagged EventId handles
// over stable chunked slots — plus a 4-ary min-heap of (time, sequence)
// keys.  The layout buys three things over the earlier binary-heap +
// unordered_set design:
//
//  * pending()/cancel() resolve a handle in O(1) — decode slot index,
//    compare the slot's key — with no hashing on the hot push/pop path;
//  * cancel() destroys the callable *eagerly*, so a cancelled timer's
//    captures (tasks, shared_ptrs) are released on the spot instead of
//    lingering until the entry would have surfaced; only an inert
//    16-byte heap entry remains, skimmed away when it reaches the root;
//  * steady-state operation is allocation-free: freed slots are recycled
//    through a free list and callables with small captures live inline in
//    their slot (see inline_fn.hpp).
//
// Cache discipline: a heap entry is 16 bytes (time + packed sequence/slot
// word), a slot is exactly one 64-byte cache line, and slots live in
// fixed chunks with stable addresses — growing the slab never relocates a
// stored callable, and heap sifts touch only the contiguous entry array
// (no per-move back-pointer maintenance).
//
// Ordering is (time, insertion sequence), so simultaneous events fire in
// FIFO order — essential for reproducible runs.  Generation tags make
// stale handles (fired, cancelled, or recycled slots) harmlessly inert.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/timer_queue.hpp"

namespace sda::sim {

/// Priority queue of timed callbacks with O(log n) push/pop, O(1) cancel
/// (amortized — each cancelled entry is skimmed from the heap exactly
/// once), and O(1) pending().  The Engine's default TimerQueue backend.
class EventQueue final : public TimerQueue {
 public:
  EventId push(Time t, EventFn fn) override;
  bool cancel(EventId id) override;
  bool pending(EventId id) const noexcept override {
    return find_live(id) != nullptr;
  }
  bool empty() const noexcept override { return live_ == 0; }
  std::size_t size() const noexcept override { return live_; }
  Time peek_time() const override;
  Popped pop_slot() override;
  void validate() const override;
  const char* backend_name() const noexcept override { return "heap"; }

  using TimerQueue::pop;
  using TimerQueue::slot_of;

 private:
  /// Slot indices use the low kSlotBits of an ordering key; the rest is
  /// the insertion sequence.  ~1M simultaneous pending events and 2^44
  /// total pushes are both far beyond any simulated run.
  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// All-ones sequence field tags a free slot's key; its low bits then
  /// hold the free-list link (kSlotMask = end of list).  next_seq_ never
  /// reaches this value.
  static constexpr std::uint64_t kFreeSeq =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Slots are allocated in chunks so their addresses — and the callables
  /// stored inside — never move as the slab grows.  The first chunk is
  /// small (most simulations keep well under 64 events pending); every
  /// later chunk is a fixed 32 KiB.
  static constexpr std::uint32_t kFirstChunkSize = 64;  // 4 KiB starter slab
  static constexpr unsigned kChunkShift = 9;  // 512 slots = 32 KiB per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// 16 bytes.  key = (seq << kSlotBits) | slot; comparing keys directly
  /// yields FIFO order on time ties because seq occupies the high bits and
  /// is unique.
  struct HeapEntry {
    Time time;
    std::uint64_t key;
  };

  /// Exactly one cache line: 56 bytes of callable + the occupant's key.
  /// An ordering entry is live iff its key matches its slot's — cancel and
  /// pop free the slot (new key), instantly orphaning the entry.
  /// Default state is free with a null free-list link (all-ones key).
  struct alignas(64) Slot {
    EventFn fn;
    std::uint64_t key = ~std::uint64_t{0};
  };

  static constexpr std::uint32_t entry_slot(std::uint64_t key) noexcept {
    return static_cast<std::uint32_t>(key) & kSlotMask;
  }
  static constexpr bool slot_is_free(std::uint64_t key) noexcept {
    return (key >> kSlotBits) == kFreeSeq;
  }

  /// (time, insertion sequence) total order — the determinism contract.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  Slot& slot_at(std::uint32_t i) noexcept {
    if (i < kFirstChunkSize) return chunks_[0][i];
    const std::uint32_t r = i - kFirstChunkSize;
    return chunks_[1 + (r >> kChunkShift)][r & (kChunkSize - 1)];
  }
  const Slot& slot_at(std::uint32_t i) const noexcept {
    if (i < kFirstChunkSize) return chunks_[0][i];
    const std::uint32_t r = i - kFirstChunkSize;
    return chunks_[1 + (r >> kChunkShift)][r & (kChunkSize - 1)];
  }

  /// Slots constructible before another chunk allocation is needed.
  std::uint32_t slot_capacity() const noexcept {
    if (chunks_.empty()) return 0;
    return kFirstChunkSize +
           static_cast<std::uint32_t>(chunks_.size() - 1) * kChunkSize;
  }

  // The slot operations below are defined here — not in a .cpp — so they
  // inline into push/cancel/pop (they sit on the hottest loop in the
  // simulator; an out-of-line bind_slot costs a measurable fraction of
  // BM_EventQueuePushPop).

  /// Resolves a handle to its live slot, or nullptr when stale/unknown.
  const Slot* find_live(EventId id) const noexcept {
    if (!id) return nullptr;
    const std::uint64_t slot_plus_1 = id.value & 0xffffffffu;
    if (slot_plus_1 == 0 || slot_plus_1 > slot_count_) return nullptr;
    const Slot& s = slot_at(static_cast<std::uint32_t>(slot_plus_1 - 1));
    if (slot_is_free(s.key)) return nullptr;
    if (static_cast<std::uint32_t>(s.key >> kSlotBits) !=
        static_cast<std::uint32_t>(id.value >> 32)) {
      return nullptr;
    }
    return &s;
  }
  Slot* find_live(EventId id) noexcept {
    return const_cast<Slot*>(std::as_const(*this).find_live(id));
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kSlotMask) {
      const std::uint32_t s = free_head_;
      free_head_ = entry_slot(slot_at(s).key);  // free-list link in low bits
      return s;
    }
    return alloc_slot_grow();
  }
  /// Returns a slot to the free list; the caller has dealt with fn.
  void free_slot(std::uint32_t s) noexcept {
    slot_at(s).key = (kFreeSeq << kSlotBits) | free_head_;
    free_head_ = s;
  }

  /// Stores @p fn in a fresh slot, stamping the next insertion sequence.
  /// Returns the slot's ordering key, which heap_ indexes by time.
  /// Takes the callable by rvalue reference so it moves exactly once —
  /// caller's frame straight into the slot.
  std::uint64_t bind_slot(EventFn&& fn) {
    const std::uint32_t s = alloc_slot();
    Slot& slot = slot_at(s);
    const std::uint64_t key = (next_seq_++ << kSlotBits) | s;
    slot.key = key;
    slot.fn = std::move(fn);
    ++live_;
    return key;
  }

  /// Public handle for the slot @p key occupies (push()'s return value).
  static EventId id_for(std::uint64_t key) noexcept {
    const auto gen = static_cast<std::uint32_t>(key >> kSlotBits);
    return EventId{(static_cast<std::uint64_t>(gen) << 32) |
                   (static_cast<std::uint64_t>(entry_slot(key)) + 1)};
  }

  /// Cold path of alloc_slot(): free list empty, may grow the slab.
  std::uint32_t alloc_slot_grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t live_ = 0;          // live events (orphans may linger in heap_)
  std::uint32_t slot_count_ = 0;  // slots handed out at least once
  std::uint32_t free_head_ = kSlotMask;
  std::uint64_t next_seq_ = 0;
  /// SDA_VALIDATE bookkeeping: pop watermark (each pop must be >= the
  /// previous pop or the earliest time pushed since — anything lower means
  /// broken order) and a mutation counter driving the validate cadence.
  Time last_pop_time_ = std::numeric_limits<Time>::lowest();
  std::uint64_t mutations_ = 0;

  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Removes the root entry, refilling from the heap tail.
  void pop_root() noexcept;
  /// Discards orphaned (cancelled) entries until the root is live again —
  /// keeps peek_time()/pop() O(1) at the front.  Each cancelled entry is
  /// skimmed exactly once, so cancel() stays O(1) amortized.
  void skim() noexcept;

  /// SDA_VALIDATE hook shared by the mutating operations: cheap checks
  /// every call, the O(n) validate() on a deterministic cadence.
  void oracle_after_mutation();

  std::vector<HeapEntry> heap_;
};

}  // namespace sda::sim
