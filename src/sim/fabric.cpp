#include "src/sim/fabric.hpp"

#include <algorithm>
#include <barrier>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

// sda-lint: allow(LAYERING) worker shards feed Collector sinks directly
#include "src/metrics/collector.hpp"

namespace sda::sim {

namespace {

constexpr Time kIdle = std::numeric_limits<Time>::infinity();

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

}  // namespace

void PathKey::push(std::uint64_t v) {
  if (depth >= kMaxDepth) {
    // A same-timestamp synchronous cascade deeper than the model allows
    // (see header): a bug, not a capacity tuning knob.
    throw std::logic_error("PathKey::push: origin path deeper than kMaxDepth");
  }
  elem[depth] = v;
  ++depth;
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

struct Fabric::Barrier {
  std::barrier<> b;
  explicit Barrier(int parties) : b(parties) {}
  void wait() { b.arrive_and_wait(); }
};

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
  s.records.push_back(
      SinkRecord{s.engine->now(), s.cur_path.child(s.next_child++), rec});
}

void Fabric::emit_simple(int src_lane, const task::SimpleTask& t) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(src_lane))];
  s.records.push_back(
      SinkRecord{s.engine->now(), s.cur_path.child(s.next_child++), t});
}

void Fabric::emit_global(int src_lane, const core::GlobalTaskRecord& rec) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(src_lane))];
  s.records.push_back(
      SinkRecord{s.engine->now(), s.cur_path.child(s.next_child++), rec});
}

void Fabric::run(Time horizon) {
  stop_flag_.store(false, std::memory_order_relaxed);
  {
    util::LockGuard lock(failure_mu_);
    failure_ = nullptr;
  }
  Barrier sync(opt_.shards);
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

void Fabric::worker_loop(int shard, Time horizon, Barrier& sync) {
  // Every shard thread assumes the window-phase capability for its whole
  // window loop; the barrier protocol supplies the actual exclusion.
  util::RoleGuard phase(window_phase_);
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const int S = opt_.shards;
  for (;;) {
    sh.announced =
        sh.engine->events_pending() > 0 ? sh.engine->next_time() : kIdle;
    sync.wait();  // (A) every shard's announced time is now visible
    Time window_min = kIdle;
    for (int s = 0; s < S; ++s) {
      window_min = std::min(window_min, shards_[static_cast<std::size_t>(s)]->announced);
    }
    // All shards compute the same minimum, so they all break together.
    // !(x <= y) instead of x > y: also terminates when everything is
    // idle (window_min == +inf).
    if (!(window_min <= horizon)) {
      // Nothing can fire again: every pending record's order is final.
      if (shard == 0) flush_records(kIdle);
      break;
    }
    if (shard == 0) {
      ++windows_;
      // Every future record has time >= window_min (events fire at
      // >= window_min, messages deliver at >= window_min + L), so
      // records strictly before it are settled and can replay now.
      // Records at exactly window_min stay pending: at L = 0 their
      // same-timestamp cascade may continue in this sub-round.
      flush_records(window_min);
    }
    try {
      run_phase(sh, window_min, horizon);
    } catch (...) {
      {
        util::LockGuard lock(failure_mu_);
        if (!failure_) failure_ = std::current_exception();
      }
      stop_flag_.store(true, std::memory_order_relaxed);
    }
    sync.wait();  // (B) run phase over everywhere; outboxes stable
    if (stop_flag_.load(std::memory_order_relaxed)) break;
    try {
      drain_phase(shard);
      if (shard == 0) collect_records();
    } catch (...) {
      {
        util::LockGuard lock(failure_mu_);
        if (!failure_) failure_ = std::current_exception();
      }
      stop_flag_.store(true, std::memory_order_relaxed);
    }
    sync.wait();  // (C) inboxes drained, sinks replayed; next window
    if (stop_flag_.load(std::memory_order_relaxed)) break;
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
    if (f.slot < sh.slot_paths.size() && sh.slot_paths[f.slot].depth != 0) {
      // A message: inherit the origin path recorded at delivery.
      sh.cur_path = sh.slot_paths[f.slot];
      sh.slot_paths[f.slot].depth = 0;
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

void Fabric::collect_records() {
  for (const auto& shp : shards_) {
    Shard& sh = *shp;
    for (SinkRecord& r : sh.records) pending_records_.push_back(std::move(r));
    sh.records.clear();
  }
}

void Fabric::flush_records(Time before) {
  if (pending_records_.empty()) return;
  // Unstable partition is fine: the flushed prefix is fully sorted below,
  // and the kept suffix gets its own sort at its own flush.
  const auto mid =
      std::partition(pending_records_.begin(), pending_records_.end(),
                     [before](const SinkRecord& r) { return r.time < before; });
  if (mid == pending_records_.begin()) return;
  // Keys are unique across shards and sub-rounds, so (time, path) is a
  // total order: the replay sequence is independent of both the window
  // chop and the shard count — the determinism contract.
  std::sort(pending_records_.begin(), mid, record_before);
  for (auto it = pending_records_.begin(); it != mid; ++it) {
    if (const auto* tr = std::get_if<metrics::TraceRecord>(&it->payload)) {
      if (tracer_ != nullptr) tracer_->add(*tr);
    } else if (const auto* st = std::get_if<task::SimpleTask>(&it->payload)) {
      if (collector_ != nullptr) collector_->record_simple(*st);
    } else if (const auto* gr =
                   std::get_if<core::GlobalTaskRecord>(&it->payload)) {
      if (collector_ != nullptr) collector_->record_global(*gr);
    }
  }
  pending_records_.erase(pending_records_.begin(), mid);
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
