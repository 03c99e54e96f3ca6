// Pluggable timer-queue backends for the discrete-event engine.
//
// sim::TimerQueue is the interface the Engine schedules against: push a
// callback at an absolute time, cancel by handle, pop the earliest.  One
// backend ships with the simulator: "heap", the pooled 4-ary min-heap
// (sim::EventQueue), O(log n) push/pop.
//
// Backends are constructed by name through a self-registering registry
// (util::Registry — the same pattern as the strategy registries), so the
// `timer_queue=` ExperimentConfig key reaches user-registered backends —
// such as a decorator that times the heap — without touching library
// code.
//
// Determinism contract: every backend must pop events in exactly
// (time, insertion-sequence) order and must allocate slots through the
// shared detail::SlotPool below.  Identical push/cancel/pop sequences then
// produce identical EventId values and identical slot indices — which is
// why run fingerprints are bit-identical across backends, and why the
// sharded fabric's slot-keyed side tables (sim::Fabric) work unchanged
// with any of them.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/inline_fn.hpp"
#include "src/util/registry.hpp"

namespace sda::sim {

/// Simulation timestamps. The paper's unit is the mean local-task execution
/// time (mu_local = 1).
using Time = double;

/// Callback executed when an event fires.
using EventFn = InlineFn;

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Packs (generation << 32 | slot + 1); a handle outlives its event
/// harmlessly because the slot's generation moves on when it is freed.
struct EventId {
  std::uint64_t value = 0;

  friend bool operator==(EventId a, EventId b) noexcept {
    return a.value == b.value;
  }
  /// A default-constructed id never names a live event.
  explicit operator bool() const noexcept { return value != 0; }
};

namespace detail {

/// Slab of pooled event slots shared by every timer-queue backend: stable
/// chunked storage for the callables, generation-tagged handles, O(1)
/// alloc/free through a free list.  Keeping allocation *here* — and only
/// the ordering structure in the backends — is what makes EventIds (and
/// hence fingerprints) bit-identical across backends.
class SlotPool {
 public:
  /// Live (scheduled, not-yet-fired, not-cancelled) events.
  std::size_t live_count() const noexcept { return live_; }

 protected:
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
  // inline into every backend's push/cancel/pop (they sit on the hottest
  // loop in the simulator; an out-of-line bind_slot costs a measurable
  // fraction of BM_EventQueuePushPop).

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
  /// Returns the slot's ordering key; the backend indexes it by time.
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
  std::size_t live_ = 0;          // live events (orphans may linger elsewhere)
  std::uint32_t slot_count_ = 0;  // slots handed out at least once
  std::uint32_t free_head_ = kSlotMask;
  std::uint64_t next_seq_ = 0;
  /// SDA_VALIDATE bookkeeping: pop watermark (each pop must be >= the
  /// previous pop or the earliest time pushed since — anything lower means
  /// broken order) and a mutation counter driving the validate cadence.
  Time last_pop_time_ = std::numeric_limits<Time>::lowest();
  std::uint64_t mutations_ = 0;
};

}  // namespace detail

/// Priority queue of timed callbacks — the Engine's pluggable backend.
class TimerQueue {
 public:
  virtual ~TimerQueue() = default;

  /// Schedules @p fn at absolute time @p t; returns a handle for cancel().
  virtual EventId push(Time t, EventFn fn) = 0;

  /// Cancels a pending event, destroying its callable immediately.
  /// Returns false when the handle is unknown, already fired, or already
  /// cancelled; true when the event was live.
  virtual bool cancel(EventId id) = 0;

  /// True when a handle names a scheduled, not-yet-fired event.
  virtual bool pending(EventId id) const noexcept = 0;

  /// True when no live events remain.
  virtual bool empty() const noexcept = 0;

  /// Number of live (scheduled, not-yet-fired, not-cancelled) events.
  virtual std::size_t size() const noexcept = 0;

  /// Time of the earliest live event. Requires !empty().
  virtual Time peek_time() const = 0;

  /// pop result carrying the pool slot the event occupied.  The slot is
  /// recycled by the time this returns, so it is useful only as a key into
  /// caller-side side tables populated at push time (see sim::Fabric).
  struct Popped {
    Time time;
    EventFn fn;
    std::uint32_t slot;
  };

  /// Removes and returns the earliest live event, reporting the slot index
  /// it occupied.  Requires !empty().
  virtual Popped pop_slot() = 0;

  /// SDA_VALIDATE oracle: full structural self-check; O(n); aborts with a
  /// structured dump on any violation (see core/invariants.hpp).
  virtual void validate() const = 0;

  /// Registry spelling of this backend ("heap", ...).
  virtual const char* backend_name() const noexcept = 0;

  /// Removes and returns the earliest live event as (time, callback).
  /// Requires !empty().
  std::pair<Time, EventFn> pop() {
    Popped p = pop_slot();
    return {p.time, std::move(p.fn)};
  }

  /// Slot index a live handle from push() occupies — the side-table key
  /// matching Popped::slot.  Meaningful only while the event is pending.
  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id.value & 0xffffffffu) - 1;
  }
};

// --- backend registry -----------------------------------------------------
//
// Same shape (and same generic machinery) as the strategy registries:
// built-ins self-register on first use; register_timer_queue extends the
// factory so a user backend is reachable from every config-driven surface
// — ExperimentConfig's `timer_queue=` key, sda_run, and the sharded
// fabric.  register_timer_queue is not thread-safe against concurrent
// make_timer_queue calls: register custom backends up front.

using TimerQueueFactory =
    util::UniqueFn<std::unique_ptr<TimerQueue>(const std::string&)>;

/// Registers a backend under @p name.  Throws std::invalid_argument when
/// the name (or prefix) is already registered.
void register_timer_queue(const std::string& name, TimerQueueFactory factory,
                          util::NameMatch match = util::NameMatch::kExact,
                          const std::string& display = {});

/// Display names of every registered backend, in registration order.
std::vector<std::string> list_timer_queue_names();

/// Factory: "heap" plus anything registered (case-insensitive).
/// Throws std::invalid_argument on unknown names, listing the registered
/// backends and suggesting near-misses.
std::unique_ptr<TimerQueue> make_timer_queue(const std::string& name);

}  // namespace sda::sim
