// Pieces of the replication assembly (runner.cpp) that other assemblies of
// the same system must share to produce comparable fingerprints: the
// task-id space, the node-event -> trace-event map, and the rule that
// picks the direct or the fabric wiring.
#pragma once

#include <cstdint>

#include "src/exp/config.hpp"
#include "src/metrics/trace.hpp"
#include "src/sched/node.hpp"

namespace sda::exp::detail {

/// Task-id space partitioning: local sources and the process manager must
/// hand out ids that never collide (node-side bookkeeping is keyed by id).
constexpr std::uint64_t local_id_base(int node_index) {
  return (static_cast<std::uint64_t>(node_index) + 1) << 40;
}

inline metrics::TraceEvent to_trace_event(sched::Node::Event e) {
  switch (e) {
    case sched::Node::Event::kSubmitted: return metrics::TraceEvent::kSubmitted;
    case sched::Node::Event::kStarted: return metrics::TraceEvent::kStarted;
    case sched::Node::Event::kPreempted: return metrics::TraceEvent::kPreempted;
    case sched::Node::Event::kCompleted: return metrics::TraceEvent::kCompleted;
    case sched::Node::Event::kAborted: return metrics::TraceEvent::kAborted;
    case sched::Node::Event::kFailed: return metrics::TraceEvent::kFailed;
  }
  return metrics::TraceEvent::kSubmitted;
}

/// True when the run must go through the message fabric: more than one
/// shard, or a modeled control-plane latency (which changes delivery
/// times even on a single shard).  shards == 1 && net_latency == 0 runs
/// the direct wiring: one engine, synchronous calls.
inline bool message_mode(const ExperimentConfig& c) noexcept {
  return c.shards > 1 || c.net_latency > 0.0;
}

}  // namespace sda::exp::detail
