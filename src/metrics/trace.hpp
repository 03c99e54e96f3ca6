// Task-lifecycle tracing.
//
// A Tracer captures lifecycle events (submit / start / preempt / complete /
// abort, plus global-task begin/end) for debugging and for *determinism
// golden tests*: the fingerprint of the full event stream must be identical
// across runs with the same seed.  Tracing is opt-in per call to
// exp::run_once, but every sda_run / run_experiment replication attaches a
// Tracer(1) for its fingerprint, so add() sits on the per-event path of
// every such run (about 9.4 M calls in a Table-1 replication of 1 M time
// units).  Measured on a 4-CPU Xeon, g++ 12, RelWithDebInfo: byte-wise
// FNV-1a plus a std::deque cost 61-74 ns per add, about 0.47 s (26 %) of
// such a replication; this version costs 9-10 ns per add (BM_TracerAdd/1),
// about 0.05 s (3-5 %).
//
// Fingerprint v2 mixes each record as five 64-bit words with
// util::fnv1a_mix_word (DESIGN.md §4b, "Determinism fingerprint v2").
// Records live in a std::vector ring: capacity N keeps the N most recent,
// capacity 0 keeps everything (sda_run --trace).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/util/fnv.hpp"

namespace sda::metrics {

enum class TraceEvent : std::uint8_t {
  kSubmitted,       ///< task entered a node's queue
  kStarted,         ///< task entered service
  kPreempted,       ///< task preempted (preemptive-resume mode)
  kCompleted,       ///< task finished service
  kAborted,         ///< task aborted (local policy or external)
  kFailed,          ///< task killed by a fault (crash / transient failure)
  kGlobalSubmitted, ///< global run accepted by the process manager
  kGlobalCompleted, ///< global run finished
  kGlobalAborted,   ///< global run killed by the PM timer
  kGlobalShed,      ///< global run dropped by the recovery policy
};

/// Short lowercase tag, e.g. "start", "global-done".
const char* to_string(TraceEvent e) noexcept;

struct TraceRecord {
  sim::Time time = 0.0;
  TraceEvent event = TraceEvent::kSubmitted;
  std::uint64_t task_id = 0;  ///< 0 for global-run events
  std::uint64_t run_id = 0;   ///< 0 for local tasks
  int node = -1;              ///< -1 for global-run events
  double deadline = 0.0;      ///< virtual deadline (task) or real (global)
};

class Tracer {
 public:
  /// Keeps at most @p capacity most-recent records (0 = unbounded).
  explicit Tracer(std::size_t capacity = 0)
      : capacity_(capacity == 0 ? SIZE_MAX : capacity) {}

  void add(const TraceRecord& rec) {
    ++total_;
    util::fnv1a_mix_word(hash_, std::bit_cast<std::uint64_t>(rec.time));
    util::fnv1a_mix_word(
        hash_, (std::uint64_t{static_cast<std::uint8_t>(rec.event)} << 32) |
                   static_cast<std::uint32_t>(rec.node));
    util::fnv1a_mix_word(hash_, rec.task_id);
    util::fnv1a_mix_word(hash_, rec.run_id);
    util::fnv1a_mix_word(hash_, std::bit_cast<std::uint64_t>(rec.deadline));
    if (ring_.size() < capacity_) {
      append(rec);  // filling, or unbounded
      return;
    }
    ring_[head_] = rec;  // full: overwrite the oldest
    if (++head_ == capacity_) head_ = 0;
  }

  /// The kept records, oldest first (a copy).
  std::vector<TraceRecord> records() const;

  /// Total events ever added (>= records().size() once the ring wraps).
  std::uint64_t total() const noexcept { return total_; }

  /// Fingerprint v2 over every event ever added (including evicted ones) —
  /// the determinism fingerprint.
  std::uint64_t fingerprint() const noexcept { return hash_; }

  /// Multi-line "time event task run node deadline" text rendering.
  std::string render() const;

  void clear();

 private:
  // Out of line so add() stays small enough to inline at its call sites.
  void append(const TraceRecord& rec);

  std::size_t capacity_;  ///< SIZE_MAX when unbounded
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< oldest slot once the ring is full
  std::uint64_t total_ = 0;
  std::uint64_t hash_ = util::kFnvOffsetBasis;
};

}  // namespace sda::metrics
