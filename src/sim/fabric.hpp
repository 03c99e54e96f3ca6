// Conservative time-window parallel discrete-event simulation (PDES).
//
// A Fabric runs ONE replication across several worker threads ("shards")
// while keeping the result bit-identical to the serial engine.  The model
// is partitioned into *lanes*: lane i (i < lanes) hosts node i and all of
// its node-local machinery (scheduler, local source, per-node fault
// hooks); the extra *control lane* hosts the process manager, admission
// control and the global workload source.  Each lane is pinned to a shard
// by a fixed map (control lane -> shard 0, node lane i -> shard i mod S),
// and each shard owns a private sim::Engine.
//
// Cross-lane interaction never touches another lane's objects directly;
// it travels as a *message*: a callback plus a delivery time
// (post time + latency L, the modeled control-plane message latency and
// the PDES lookahead).  Messages are buffered in per-shard-pair
// single-producer/single-consumer queues and exchanged only at window
// boundaries.  Every shard publishes the time of its earliest pending
// event before the threads start, then loops:
//
//   loop:
//     T = minimum of the published times.  T > horizon -> done.
//     (run) every shard fires its local events with time < T + L
//         (L == 0: time == T), appending outbound messages and deferred
//         sink records, and sorts its own records.  The first shard to
//         finish claims the replay of the previous window's records
//         (below) and does it while the others still run; barrier (B).
//     (drain) every shard drains its inbound message queues (sorted by
//         the deterministic key below) into its engine and publishes the
//         time of its earliest pending event; the replay claim is reset;
//         barrier (C); repeat.
//
// Two barriers per window.  They spin for up to a few milliseconds, then
// park (SpinBarrier); with more shards than CPUs they park at once,
// because a spinning waiter would hold the CPU that the shard it waits
// for needs.
//
// Sink records: the Collector and Tracer are fed only by the replay, in
// the global (time, path) order.  Each shard keeps two record buffers
// and alternates them by window, so the buffers being replayed (window
// w-1's) are never the ones a shard writes (window w's).  Events fire in
// time order, so a shard's buffer arrives sorted by time; the shard sorts
// it by (time, path) only when it is not already in that order.  The
// replay merges the S sorted runs and the pending frontier and feeds
// every record with time < T to the sinks.  One atomic flag per window
// picks the replaying shard, so the sinks and the frontier are touched
// by exactly one thread per window, and barriers (B)/(C) order one
// window's replay before the next.  Which shard replays never changes
// what is replayed or in which order.  At L > 0 every record of a window
// is settled by the next window.  At L == 0 records at exactly T stay
// pending, because their same-timestamp cascade may continue in the next
// sub-round at the same T.
//
// Record layout: a SinkRecord is 88 bytes — time, the 24-byte PathKey,
// and a payload that is a TraceRecord (48 bytes, about 90 % of records),
// the 7 fields Collector::record_simple reads (metrics::SimpleOutcome,
// 48 bytes), or a pointer to the rare out-of-line GlobalTaskRecord.  A
// Message is 96 bytes: time, destination lane, PathKey and the 56-byte
// event closure.
//
// Safety: a message posted at time t >= T is delivered at t + L >= T + L,
// i.e. never inside the window any shard is still executing, so no shard
// can receive an event in its past.  With L == 0 the window degenerates
// to exactly the events at time T; messages posted at T are delivered at
// T and fire in the *next* iteration (same T), so zero lookahead costs
// extra rounds per timestamp instead of deadlocking, and same-timestamp
// cascades are finite because every service time is strictly positive.
//
// Determinism: every message and sink record carries a hierarchical
// *origin path* — the path of the event that produced it extended by a
// per-event emission counter.  Lexicographic (time, path) order over
// these keys reproduces the serial engine's depth-first synchronous-call
// order exactly, independent of shard count, which is what makes the
// Tracer fingerprint bit-identical for any S.  (Root events — ones
// scheduled lane-locally rather than by a message — get a fresh
// single-element path; two *distinct* root cascades colliding on the
// exact same timestamp is a measure-zero event under the model's
// continuous arrival/service/fault distributions.  `service_dist=
// deterministic` could manufacture such ties; the determinism contract
// is stated for continuous service distributions.)
//
// Key domain: a path is a 64-bit root plus at most PathKey::kMaxDepth - 1
// emission counters, each below 2^20 - 1 (see PathKey).  The longest
// chain in the model is root -> notify -> PM handler -> resubmit -> node
// handler -> emission, depth 6; a path outside the domain throws
// std::logic_error instead of silently mis-ordering.
//
// Layering note: this file lives in sim/ because it is the engine's
// parallel twin, but the deferred sink-record payloads reference
// metrics:: and core:: record types.  That is an include-only dependency
// (everything links into the single `sda` library); the alternative —
// type-erasing the payloads — would cost an allocation per record on the
// hottest path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <variant>
#include <vector>

// Engine's parallel twin: include-only payload-type dependency
// (GlobalTaskRecord), see layering note above.
// sda-lint: allow(LAYERING) payload-type-only dependency of the engine twin
#include "src/core/process_manager.hpp"  // GlobalTaskRecord
// sda-lint: allow(LAYERING) deferred SimpleOutcome payload, same note
#include "src/metrics/collector.hpp"
// sda-lint: allow(LAYERING) deferred TraceRecord payload, same note
#include "src/metrics/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/task/task.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace sda::sim {

/// Hierarchical origin path: the deterministic tie-break key for
/// same-timestamp messages and sink records (see file comment).
///
/// Fixed 24-byte form: the root element in full, then up to
/// kMaxDepth - 1 emission counters of kCounterBits bits each, stored as
/// counter + 1 (0 = absent) and packed most significant first, three to a
/// word, into two words; the low 4 bits of the second word hold the
/// depth.  Comparing (root, word 0, word 1) as unsigned integers is then
/// exactly the lexicographic order over the element sequences, with a
/// prefix before its extensions: under equal roots the first differing
/// counter decides at the highest differing bits, an absent counter (0)
/// sorts below every present one (>= 1), and the depth bits differ only
/// when every counter agrees, i.e. for equal paths or the empty path.
/// push() throws std::logic_error outside that domain.
class PathKey {
 public:
  /// Root plus at most six counters; the model's deepest chain is 6.
  static constexpr int kMaxDepth = 7;
  static constexpr int kCounterBits = 20;
  /// Largest emission counter push() accepts (counter + 1 must fit).
  static constexpr std::uint64_t kMaxCounter =
      (std::uint64_t{1} << kCounterBits) - 2;

  void push(std::uint64_t v) {
    const int d = depth();
    if (d == 0) {
      root_ = v;
    } else {
      if (d >= kMaxDepth || v > kMaxCounter) throw_out_of_domain(d, v);
      const int j = d - 1;
      words_[static_cast<std::size_t>(j / kPerWord)] |=
          (v + 1) << (64 - kCounterBits * (j % kPerWord + 1));
    }
    ++words_[1];  // the depth, in the low bits
  }

  /// Derived key for the n-th emission of the event this path names.
  PathKey child(std::uint64_t n) const {
    PathKey k = *this;
    k.push(n);
    return k;
  }

  int depth() const noexcept {
    return static_cast<int>(words_[1] & kDepthMask);
  }
  bool empty() const noexcept { return depth() == 0; }

  friend bool operator<(const PathKey& a, const PathKey& b) noexcept {
    if (a.root_ != b.root_) return a.root_ < b.root_;
    if (a.words_[0] != b.words_[0]) return a.words_[0] < b.words_[0];
    return a.words_[1] < b.words_[1];
  }
  friend bool operator==(const PathKey&, const PathKey&) = default;

 private:
  static constexpr int kPerWord = 3;
  static constexpr std::uint64_t kDepthMask = 0xf;
  static_assert(kPerWord * kCounterBits + 4 <= 64, "depth bits overlap");
  static_assert(kMaxDepth - 1 <= 2 * kPerWord && kMaxDepth <= kDepthMask,
                "counters do not fit two words");

  [[noreturn]] static void throw_out_of_domain(int depth, std::uint64_t v);

  std::uint64_t root_ = 0;
  std::array<std::uint64_t, 2> words_{};
};
static_assert(sizeof(PathKey) == 24);

/// One cross-lane interaction: run @p fn on @p dst_lane's shard at
/// @p deliver_at, ordered among same-time messages by @p key.
struct Message {
  Time deliver_at = 0.0;
  int dst_lane = 0;
  PathKey key;
  EventFn fn;
};
static_assert(sizeof(Message) <= 96, "Message grew past 96 bytes");

/// Bounded single-producer/single-consumer message buffer for one
/// (source shard, destination shard) pair.  Not a concurrent queue: the
/// producer pushes only during the run phase and the consumer drains
/// only after the window barrier, which provides the happens-before
/// edge — so the storage is plain (TSan-clean by phase separation), and
/// "SPSC" describes the access discipline, not an atomic protocol.
class CrossShardQueue {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit CrossShardQueue(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  /// Producer side (run phase).  Overflow beyond the ring capacity goes
  /// to a spill vector: correctness forbids dropping or blocking, so the
  /// bound covers the common case and bursts degrade to an allocation,
  /// never a loss.  sda-lint: allow(UNBOUNDED_QUEUE) spill is
  /// correctness-required (dropping or blocking would deadlock a window)
  void push(Message m);

  /// Consumer side (post-barrier): appends every buffered message to
  /// @p out in push order and empties the queue.
  void drain(std::vector<Message>& out);

  bool empty() const noexcept { return count_ == 0 && spill_.empty(); }
  std::size_t size() const noexcept { return count_ + spill_.size(); }
  std::size_t capacity() const noexcept { return ring_.size(); }

 private:
  std::vector<Message> ring_;  // fixed-size circular buffer
  std::size_t head_ = 0;       // oldest element
  std::size_t count_ = 0;      // elements in the ring
  std::vector<Message> spill_;  // sda-lint: allow(UNBOUNDED_QUEUE) see push()
};

/// Static crash calendar consulted by the process manager instead of
/// sched::Node::is_up(), which lives on another lane.  Filled from the
/// fault plan before the run; identical information, lane-safe.
///
/// Concurrency contract: frozen before Fabric::run() starts.  reset()
/// and add_outage() are setup-phase writes from the constructing
/// thread; during the run every shard reads is_up() concurrently, which
/// is safe only because nothing mutates.  This read-mostly freeze
/// discipline has no mutex to hang a capability on; it is documented
/// here and exercised under TSan (test_pdes) instead.
class NodeStatusBoard {
 public:
  void reset(int node_count) {
    outages_.assign(static_cast<std::size_t>(node_count), {});
  }

  /// Node @p node is down during the half-open interval [down_at, up_at).
  void add_outage(int node, Time down_at, Time up_at);

  /// True when no registered outage covers @p now (always true for nodes
  /// without outages, and for out-of-range ids).
  bool is_up(int node, Time now) const noexcept;

 private:
  std::vector<std::vector<std::pair<Time, Time>>> outages_;
};

/// Deferred metric emission: lanes buffer their records and the
/// replaying shard feeds them to the sinks in global (time, path) order
/// between windows.  The rare global-run record lives out of line so
/// that the common trace and subtask records set the size.
struct SinkRecord {
  Time time = 0.0;
  PathKey key;
  std::variant<metrics::TraceRecord, metrics::SimpleOutcome,
               std::unique_ptr<const core::GlobalTaskRecord>>
      payload;
};
static_assert(sizeof(SinkRecord) <= 96, "SinkRecord grew past 96 bytes");

/// Reusable barrier for a fixed set of threads.  A waiter spins on the
/// generation counter with a CPU pause hint, yielding now and then, for
/// a few milliseconds at most, then parks on std::atomic::wait.  A futex
/// wake-up can cost as much as a whole window of work, so the spin saves
/// it whenever the last shard arrives soon.  Constructed with spin =
/// false the waiters park at once: when there are more threads than CPUs
/// a spinning waiter takes the CPU from the thread it waits for.
///
/// Every write a thread makes before arrive_and_wait() happens-before
/// every read any party makes after the same barrier phase returns.
class SpinBarrier {
 public:
  SpinBarrier(int parties, bool spin) : parties_(parties), spin_(spin) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() noexcept;

 private:
  const int parties_;
  const bool spin_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

class Fabric {
 public:
  struct Options {
    /// Node lanes (compute + link nodes).  The control lane is `lanes`.
    int lanes = 1;
    /// Worker shards.  1 is legal: messages still flow through windows
    /// (the serial message-mode reference the sharded runs must match).
    int shards = 1;
    /// Modeled cross-lane message latency = the conservative lookahead L.
    Time latency = 0.0;
    /// Timer-queue backend name for every shard engine (see
    /// make_timer_queue()).  Fingerprints are backend-independent.
    std::string timer_queue = "heap";
  };

  explicit Fabric(const Options& opt);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  int lanes() const noexcept { return opt_.lanes; }
  int shards() const noexcept { return opt_.shards; }
  Time latency() const noexcept { return opt_.latency; }
  int control_lane() const noexcept { return opt_.lanes; }

  /// Fixed lane -> shard map (control lane -> 0, node lane i -> i mod S).
  int shard_of(int lane) const noexcept {
    return lane == opt_.lanes ? 0 : lane % opt_.shards;
  }

  Engine& engine_for_lane(int lane) noexcept {
    return *shards_[static_cast<std::size_t>(shard_of(lane))]->engine;
  }
  Engine& control_engine() noexcept { return *shards_[0]->engine; }

  /// Sinks fed by the replay between windows; either may be null.
  void set_sinks(metrics::Collector* collector, metrics::Tracer* tracer) {
    collector_ = collector;
    tracer_ = tracer;
  }
  bool tracing() const noexcept { return tracer_ != nullptr; }

  NodeStatusBoard& status_board() noexcept { return status_; }
  const NodeStatusBoard& status_board() const noexcept { return status_; }

  /// Posts a cross-lane message from the event currently executing on
  /// @p src_lane's shard; @p fn runs on @p dst_lane's shard at
  /// now + latency.  Must be called from inside a fabric-run event.
  ///
  /// post()/emit_*() carry SDA_NO_THREAD_SAFETY_ANALYSIS: they are
  /// entered from type-erased model callbacks (EventFn) fired inside the
  /// run phase, where the calling shard does hold window_phase_, but the
  /// capability cannot propagate through the std::move_only_function
  /// boundary.  The phase-separation argument in the file comment is the
  /// actual safety proof; TSan covers it dynamically.
  void post(int src_lane, int dst_lane, EventFn fn)
      SDA_NO_THREAD_SAFETY_ANALYSIS;

  /// Defers a sink record from the event currently executing on
  /// @p src_lane's shard (replayed in deterministic order by whichever
  /// shard claims the next window's replay).
  /// Same escape hatch as post(), same reason.
  void emit_trace(int src_lane, const metrics::TraceRecord& rec)
      SDA_NO_THREAD_SAFETY_ANALYSIS;
  void emit_simple(int src_lane, const task::SimpleTask& t)
      SDA_NO_THREAD_SAFETY_ANALYSIS;
  void emit_global(int src_lane, const core::GlobalTaskRecord& rec)
      SDA_NO_THREAD_SAFETY_ANALYSIS;

  /// Runs every shard to @p horizon (inclusive, like Engine::run_until)
  /// using the window protocol in the file comment.  Spawns shards-1
  /// worker threads; the caller executes shard 0.  On return every
  /// shard's clock sits at the horizon.  A model exception from any
  /// shard aborts the run on the next window boundary and is rethrown.
  void run(Time horizon);

  // --- statistics (single-threaded use, outside run()) --------------------
  std::uint64_t events_fired() const noexcept;
  std::size_t events_pending() const noexcept;
  std::uint64_t messages_posted() const noexcept { return messages_posted_; }
  // Post-join single-threaded read of a phase-guarded counter: run() has
  // returned, so no shard thread exists to race with.
  std::uint64_t windows() const noexcept SDA_NO_THREAD_SAFETY_ANALYSIS {
    return windows_;
  }

 private:
  /// Per-shard state, padded so neighbouring shards' hot fields never
  /// share a cache line.
  struct alignas(64) Shard {
    int index = 0;
    std::unique_ptr<Engine> engine;
    /// Origin path of a pending *message* event, indexed by its
    /// EventQueue slot; depth 0 = not a message (lane-local root).
    std::vector<PathKey> slot_paths;
    /// Path of the event currently executing + its emission counter.
    PathKey cur_path;
    std::uint64_t next_child = 0;
    /// Fresh-root sequence for lane-local events.
    std::uint64_t next_root = 0;
    /// Deferred sink records, one buffer per window parity: the run phase
    /// writes records[parity] while the claiming shard replays
    /// records[parity ^ 1], the previous window's.  Each is bounded by one
    /// window's emissions.
    std::array<std::vector<SinkRecord>, 2> records;
    int parity = 0;
    /// Scratch for the drain phase (kept to reuse capacity).
    std::vector<Message> inbound;
    /// Earliest pending time, published before barrier C (+inf when idle).
    Time announced = 0.0;
    std::uint64_t posted = 0;
  };

  CrossShardQueue& outbox(int src_shard, int dst_shard) noexcept
      SDA_REQUIRES(window_phase_) {
    return outboxes_[static_cast<std::size_t>(src_shard) *
                         static_cast<std::size_t>(opt_.shards) +
                     static_cast<std::size_t>(dst_shard)];
  }

  /// One worker's window loop (see file comment), shared barrier
  /// `sync`.  Assumes window_phase_ for its whole duration.
  void worker_loop(int shard, Time horizon, SpinBarrier& sync);
  /// Fires local events inside [T, window); returns on quiesce.
  void run_phase(Shard& sh, Time window_min, Time horizon)
      SDA_REQUIRES(window_phase_);
  /// Inserts inbound messages into @p sh's engine in deterministic order.
  void drain_phase(int shard) SDA_REQUIRES(window_phase_);
  /// Merges every shard's records[prev] run with the pending frontier and
  /// replays each record with time < before into the collector/tracer.
  /// Records at exactly `before` join the frontier — at zero lookahead
  /// one same-timestamp cascade spans several sub-rounds, so a record's
  /// (time, path) position is only settled once the window clock has
  /// moved strictly past its timestamp.  Pass +inf to flush all.  Called
  /// by one shard per window: the replay claim's winner, or shard 0 for
  /// the final flush.
  void replay_records(Time before, std::size_t prev)
      SDA_REQUIRES(window_phase_);

  Options opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Fake capability for the window protocol: every shard thread assumes
  /// it for the duration of worker_loop().  It does not provide mutual
  /// exclusion (all shards hold it at once) — the barrier protocol's
  /// phase separation does that; what the capability enforces at compile
  /// time is that *no code outside the window protocol* can reach the
  /// phase-guarded state below (outboxes, deferred records, the window
  /// counter).
  util::ThreadRole window_phase_;
  std::vector<CrossShardQueue> outboxes_
      SDA_GUARDED_BY(window_phase_);  // [src * S + dst]
  NodeStatusBoard status_;
  metrics::Collector* collector_ = nullptr;
  metrics::Tracer* tracer_ = nullptr;
  /// Sorted records awaiting a settled order (zero lookahead only);
  /// bounded by the records emitted at the current time frontier, and
  /// replayed as soon as the clock advances.  `frontier_next_` is the
  /// merge target, swapped in after each replay to keep both capacities.
  std::vector<SinkRecord> frontier_ SDA_GUARDED_BY(window_phase_);
  std::vector<SinkRecord> frontier_next_ SDA_GUARDED_BY(window_phase_);
  std::uint64_t messages_posted_ = 0;
  std::uint64_t windows_ SDA_GUARDED_BY(window_phase_) = 0;
  /// Set by the first shard that finishes its run phase in a window; that
  /// shard replays the previous window.  Reset in the drain phase.
  alignas(64) std::atomic<bool> replay_claimed_{false};
  /// Set when a shard throws in the run phase ([0]) or the drain phase
  /// ([1]); every shard checks the phase's flag at the barrier that ends
  /// it and unwinds together (no thread left blocking).
  std::array<std::atomic<bool>, 2> stop_{};
  util::Mutex failure_mu_;
  std::exception_ptr failure_ SDA_GUARDED_BY(failure_mu_);
};

}  // namespace sda::sim
