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
// Determinism contract: a registered queue delegates to "heap"
// (make_timer_queue("heap")) for ordering and slot allocation, adding
// behaviour only around the calls — as the end-to-end benchmark's traced
// decorator does.  Identical push/cancel/pop sequences then pop in
// (time, insertion-sequence) order with identical EventId values and slot
// indices, which is why run fingerprints are bit-identical with or
// without a decorator, and why the sharded fabric's slot-keyed side
// tables (sim::Fabric) work unchanged.
#pragma once

#include <cstdint>
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
