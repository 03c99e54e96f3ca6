#include "src/sim/fabric.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace sda::sim {

namespace {

constexpr Time kIdle = std::numeric_limits<Time>::infinity();

/// Indices of the per-phase stop flags (Fabric::stop_).
constexpr int kRunPhase = 0;
constexpr int kDrainPhase = 1;

Time next_event_time(const Engine& e) {
  return e.events_pending() > 0 ? e.next_time() : kIdle;
}

// Exact time comparison is deliberate in both orderings: the key contract
// is "same bit pattern -> same bucket", which feq()'s tolerance would
// destroy (two almost-equal times must order the same way on every shard
// count).  This mirrors EventQueue's HeapEntry ordering.
bool message_before(const Message& a, const Message& b) noexcept {
  if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
  return a.key < b.key;
}

bool record_before(const SinkRecord& a, const SinkRecord& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.key < b.key;
}

/// Sorts one shard's window records by (time, path).  The shard fires its
/// events in time order, so the run is sorted by time already and the
/// check is usually all that runs; the sort runs only when events at one
/// timestamp fired out of path order.
void sort_run(std::vector<SinkRecord>& run) {
  if (!std::is_sorted(run.begin(), run.end(), record_before)) {
    std::sort(run.begin(), run.end(), record_before);
  }
}

/// A sorted run still being merged: [it, end).
struct Cursor {
  SinkRecord* it;
  SinkRecord* end;
};

/// K-way merge of sorted runs into @p sink in (time, path) order.  The
/// run count is the shard count plus one, so a linear scan for the
/// smallest head beats a heap.  Keys are unique, so the order is total.
template <class Sink>
void merge_runs(std::vector<Cursor>& runs, Sink&& sink) {
  std::erase_if(runs, [](const Cursor& c) { return c.it == c.end; });
  while (!runs.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (record_before(*runs[i].it, *runs[best].it)) best = i;
    }
    sink(*runs[best].it);
    if (++runs[best].it == runs[best].end) {
      runs[best] = runs.back();
      runs.pop_back();
    }
  }
}

/// CPU hint for a spin-wait iteration (lets the sibling hyperthread run).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

void SpinBarrier::arrive_and_wait() noexcept {
  // Pause iterations before parking: 1.5-3 ms on a 2020s x86 server core
  // (a pause costs 20-40 ns there).  The spin must outlast a futex
  // wake-up (50-150 us on a virtualised host) plus a window's imbalance:
  // with a spin shorter than that, a woken shard arrives late at the next
  // barrier, its peers park again, and every barrier costs a wake-up.
  constexpr int kSpinIterations = 1 << 16;
  // Every 64 pauses the waiter yields, so when other processes crowd the
  // CPUs the shard it waits for can run; with two busy processes on a
  // 4-CPU host a pure pause spin made a 4-shard replication more than
  // ten times slower than parking at once.
  constexpr int kYieldMask = 63;
  // Read before arriving: the phase cannot complete without this thread.
  const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
  // acq_rel: the arrivals form one release sequence, so the last arriver
  // acquires every party's pre-barrier writes and publishes them all
  // with the release store of the next generation.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    generation_.notify_all();
    return;
  }
  if (spin_) {
    for (int i = 1; i <= kSpinIterations; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      if ((i & kYieldMask) == 0) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
  }
  while (generation_.load(std::memory_order_acquire) == gen) {
    generation_.wait(gen, std::memory_order_acquire);
  }
}

void PathKey::throw_out_of_domain(int depth, std::uint64_t v) {
  // A message chain deeper, or an event emitting more, than the model
  // allows (see header): a bug, not a capacity tuning knob.
  if (depth >= kMaxDepth) {
    throw std::logic_error("PathKey::push: origin path deeper than kMaxDepth");
  }
  throw std::logic_error("PathKey::push: emission counter " +
                         std::to_string(v) + " above kMaxCounter");
}

void CrossShardQueue::push(Message m) {
  if (count_ < ring_.size()) {
    ring_[(head_ + count_) % ring_.size()] = std::move(m);
    ++count_;
  } else {
    spill_.push_back(std::move(m));
  }
}

void CrossShardQueue::drain(std::vector<Message>& out) {
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
  }
  head_ = 0;
  count_ = 0;
  for (Message& m : spill_) out.push_back(std::move(m));
  spill_.clear();
}

void NodeStatusBoard::add_outage(int node, Time down_at, Time up_at) {
  if (node < 0 || static_cast<std::size_t>(node) >= outages_.size()) return;
  outages_[static_cast<std::size_t>(node)].emplace_back(down_at, up_at);
}

bool NodeStatusBoard::is_up(int node, Time now) const noexcept {
  if (node < 0 || static_cast<std::size_t>(node) >= outages_.size()) {
    return true;
  }
  for (const auto& [down_at, up_at] : outages_[static_cast<std::size_t>(node)]) {
    if (now >= down_at && now < up_at) return false;
  }
  return true;
}

Fabric::Fabric(const Options& opt) : opt_(opt) {
  if (opt_.lanes < 1) throw std::logic_error("Fabric: lanes must be >= 1");
  if (opt_.shards < 1) throw std::logic_error("Fabric: shards must be >= 1");
  if (!(opt_.latency >= 0.0)) {
    throw std::logic_error("Fabric: latency must be finite and >= 0");
  }
  shards_.reserve(static_cast<std::size_t>(opt_.shards));
  for (int s = 0; s < opt_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->index = s;
    sh->engine = std::make_unique<Engine>(make_timer_queue(opt_.timer_queue));
    shards_.push_back(std::move(sh));
  }
  outboxes_ = std::vector<CrossShardQueue>(
      static_cast<std::size_t>(opt_.shards) *
      static_cast<std::size_t>(opt_.shards));
}

Fabric::~Fabric() = default;

void Fabric::post(int src_lane, int dst_lane, EventFn fn) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(src_lane))];
  Message m;
  m.deliver_at = s.engine->now() + opt_.latency;
  m.dst_lane = dst_lane;
  m.key = s.cur_path.child(s.next_child++);
  m.fn = std::move(fn);
  ++s.posted;
  outbox(s.index, shard_of(dst_lane)).push(std::move(m));
}

void Fabric::emit_trace(int src_lane, const metrics::TraceRecord& rec) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(src_lane))];
  s.records[static_cast<std::size_t>(s.parity)].push_back(
      SinkRecord{s.engine->now(), s.cur_path.child(s.next_child++), rec});
}

void Fabric::emit_simple(int src_lane, const task::SimpleTask& t) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(src_lane))];
  s.records[static_cast<std::size_t>(s.parity)].push_back(
      SinkRecord{s.engine->now(), s.cur_path.child(s.next_child++),
                 metrics::SimpleOutcome::of(t)});
}

void Fabric::emit_global(int src_lane, const core::GlobalTaskRecord& rec) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(src_lane))];
  s.records[static_cast<std::size_t>(s.parity)].push_back(
      SinkRecord{s.engine->now(), s.cur_path.child(s.next_child++),
                 std::make_unique<const core::GlobalTaskRecord>(rec)});
}

void Fabric::run(Time horizon) {
  for (auto& stop : stop_) stop.store(false, std::memory_order_relaxed);
  {
    util::LockGuard lock(failure_mu_);
    failure_ = nullptr;
  }
  // The first window's times are published here: starting a thread
  // orders these writes before everything the thread does.
  for (const auto& sh : shards_) sh->announced = next_event_time(*sh->engine);
  // Spinning pays only while every shard has a CPU of its own.
  const unsigned cpus = std::thread::hardware_concurrency();
  SpinBarrier sync(opt_.shards,
                   static_cast<unsigned>(opt_.shards) <= cpus);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(opt_.shards - 1));
  for (int s = 1; s < opt_.shards; ++s) {
    workers.emplace_back([this, s, horizon, &sync] {
      worker_loop(s, horizon, sync);
    });
  }
  worker_loop(0, horizon, sync);
  for (std::thread& w : workers) w.join();

  messages_posted_ = 0;
  for (const auto& sh : shards_) messages_posted_ += sh->posted;
  std::exception_ptr e;
  {
    util::LockGuard lock(failure_mu_);
    e = failure_;
    failure_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
  // Serial run_until semantics: the clock lands on the horizon even when
  // later events remain pending — per-node time-based statistics
  // (utilization, mean tasks in system) divide by this.
  for (const auto& sh : shards_) sh->engine->set_now(horizon);
}

void Fabric::worker_loop(int shard, Time horizon, SpinBarrier& sync) {
  // Every shard thread assumes the window-phase capability for its whole
  // window loop; the barrier protocol supplies the actual exclusion.
  util::RoleGuard phase(window_phase_);
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  // A model exception is kept for run() to rethrow; every shard sees the
  // phase's flag after the next barrier and unwinds at the same point.
  // Each phase has its own flag: a fast shard that throws early in the
  // next phase must not be seen by a slow shard still checking this
  // phase's flag, or that shard would leave while the others wait at
  // the next barrier for it.
  auto guarded = [this](int which, auto&& step) {
    try {
      step();
    } catch (...) {
      {
        util::LockGuard lock(failure_mu_);
        if (!failure_) failure_ = std::current_exception();
      }
      stop_[static_cast<std::size_t>(which)].store(true,
                                                   std::memory_order_relaxed);
    }
  };
  auto stopped = [this](int which) {
    return stop_[static_cast<std::size_t>(which)].load(
        std::memory_order_relaxed);
  };
  for (;;) {
    // Every shard published its time before barrier (C), or before the
    // threads started.
    Time window_min = kIdle;
    for (const auto& other : shards_) {
      window_min = std::min(window_min, other->announced);
    }
    // All shards compute the same minimum, so they all break together.
    // !(x <= y) instead of x > y: also terminates when everything is
    // idle (window_min == +inf).
    if (!(window_min <= horizon)) {
      // Nothing can fire again: every pending record's order is final.
      if (shard == 0) {
        guarded(kRunPhase, [&] {
          replay_records(kIdle, static_cast<std::size_t>(sh.parity ^ 1));
        });
      }
      break;
    }
    guarded(kRunPhase, [&] {
      if (shard == 0) ++windows_;
      run_phase(sh, window_min, horizon);
      sort_run(sh.records[static_cast<std::size_t>(sh.parity)]);
      // The first shard done here replays the previous window while the
      // others still run.  Every future record has time >= window_min
      // (events fire at >= window_min, messages deliver at >= window_min
      // + L), so records strictly before it are settled.  Every shard
      // flips its parity in lockstep, so its own names the previous
      // window's buffers on every shard.
      if (!replay_claimed_.exchange(true)) {
        replay_records(window_min, static_cast<std::size_t>(sh.parity ^ 1));
      }
    });
    sh.parity ^= 1;
    sync.arrive_and_wait();  // (B) run phase over everywhere; outboxes stable
    if (stopped(kRunPhase)) break;
    guarded(kDrainPhase, [&] {
      // Barrier (C) orders this reset before the next window's claims.
      if (shard == 0) replay_claimed_.store(false);
      drain_phase(shard);
      sh.announced = next_event_time(*sh.engine);
    });
    sync.arrive_and_wait();  // (C) every shard's next time is published
    if (stopped(kDrainPhase)) break;
  }
}

void Fabric::run_phase(Shard& sh, Time window_min, Time horizon) {
  Engine& e = *sh.engine;
  const Time lookahead = opt_.latency;
  while (e.events_pending() > 0) {
    const Time nt = e.next_time();
    if (nt > horizon) break;
    if (lookahead > 0.0) {
      // Safe window [window_min, window_min + L): a message posted at
      // t >= window_min is delivered at t + L, outside every window.
      if (!(nt < window_min + lookahead)) break;
    } else {
      // Zero lookahead: the window collapses to the events at exactly
      // the global minimum; same-timestamp message cascades resolve
      // over repeated rounds at the same window_min.
      if (!(nt <= window_min)) break;
    }
    Engine::Fired f = e.pop_next();
    if (f.slot < sh.slot_paths.size() && !sh.slot_paths[f.slot].empty()) {
      // A message: inherit the origin path recorded at delivery.
      sh.cur_path = sh.slot_paths[f.slot];
      sh.slot_paths[f.slot] = PathKey{};
    } else {
      // Lane-local root event: fresh path, unique across shards.
      sh.cur_path = PathKey{};
      sh.cur_path.push(
          ((static_cast<std::uint64_t>(sh.index) + 1) << 44) | sh.next_root++);
    }
    sh.next_child = 0;
    f.fn();
  }
}

void Fabric::drain_phase(int shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  sh.inbound.clear();
  for (int src = 0; src < opt_.shards; ++src) {
    outbox(src, shard).drain(sh.inbound);
  }
  if (sh.inbound.empty()) return;
  // Deterministic delivery order: (time, origin path) is a total order
  // (paths are unique), so the engine's FIFO tie-break over same-time
  // insertions reproduces it identically at any shard count.
  std::sort(sh.inbound.begin(), sh.inbound.end(), message_before);
  for (Message& m : sh.inbound) {
    const EventId id = sh.engine->at(m.deliver_at, std::move(m.fn));
    const std::uint32_t slot = EventQueue::slot_of(id);
    if (slot >= sh.slot_paths.size()) sh.slot_paths.resize(slot + 1);
    sh.slot_paths[slot] = m.key;
  }
  sh.inbound.clear();
}

void Fabric::replay_records(Time before, std::size_t prev) {
  // Each run's settled prefix and pending suffix.
  std::vector<Cursor> settled, pending;
  auto split = [&](std::vector<SinkRecord>& run) {
    SinkRecord* const first = run.data();
    SinkRecord* const last = first + run.size();
    SinkRecord* const mid = std::partition_point(
        first, last, [before](const SinkRecord& r) { return r.time < before; });
    settled.push_back({first, mid});
    pending.push_back({mid, last});
  };
  for (const auto& sh : shards_) split(sh->records[prev]);
  split(frontier_);
  // Keys are unique across shards and sub-rounds, so (time, path) is a
  // total order: the replay sequence is independent of both the window
  // chop and the shard count — the determinism contract.
  merge_runs(settled, [this](const SinkRecord& r) {
    if (const auto* tr = std::get_if<metrics::TraceRecord>(&r.payload)) {
      if (tracer_ != nullptr) tracer_->add(*tr);
    } else if (const auto* so =
                   std::get_if<metrics::SimpleOutcome>(&r.payload)) {
      if (collector_ != nullptr) collector_->record_simple(*so);
    } else if (const auto* gr =
                   std::get_if<std::unique_ptr<const core::GlobalTaskRecord>>(
                       &r.payload)) {
      if (collector_ != nullptr) collector_->record_global(**gr);
    }
  });
  frontier_next_.clear();
  merge_runs(pending, [this](SinkRecord& r) {
    frontier_next_.push_back(std::move(r));
  });
  frontier_.swap(frontier_next_);
  for (const auto& sh : shards_) sh->records[prev].clear();
}

std::uint64_t Fabric::events_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->engine->events_fired();
  return total;
}

std::size_t Fabric::events_pending() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->engine->events_pending();
  return total;
}

}  // namespace sda::sim
