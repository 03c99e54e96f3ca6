// Traced decorators around the simulator's public injection points, and a
// serial replication assembled from public constructors with every
// handler wrapped in a span.
//
// exp::run_once keeps its node schedulers and handlers private, so the
// traced serial run rebuilds the replication itself; it must reproduce
// run_once's model digest and tracer fingerprint for the same config and
// seed (checked on every traced run).  The sharded run cannot be rebuilt
// from outside, so it goes through run_once with the decorators reached
// through the registries (`timer_queue=traced-heap`, `psp=traced-div-1`).
#pragma once

#include <cstdint>
#include <string>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/trace.hpp"

namespace perfbench {

/// Operation counts gathered by the decorators while a traced run is on.
struct LayerCounts {
  std::uint64_t tq_push = 0;
  std::uint64_t tq_pop = 0;
  std::uint64_t tq_cancel = 0;     ///< cancel() calls
  std::uint64_t tq_cancelled = 0;  ///< cancel() calls that hit a live event
  std::uint64_t tq_pending_max = 0;
  std::uint64_t edf_push = 0;
  std::uint64_t edf_pop = 0;
  std::uint64_t edf_remove = 0;
  std::uint64_t edf_ready_max = 0;
  std::uint64_t psp_assign = 0;
  std::uint64_t ssp_assign = 0;
};

/// Zeroes the counts; the decorators fold into them when destroyed.
void reset_layer_counts();
LayerCounts layer_counts();

/// Registers "traced-<name>" for timer queues and PSP/SSP strategies (the
/// decorated inner is built from <name>).  Idempotent.
void register_traced_backends();

/// Prefix the registered decorators answer to.
inline constexpr const char* kTracedPrefix = "traced-";

/// One serial replication of @p config (shards=1, net_latency=0, no
/// faults, no admission), assembled from public constructors with every
/// layer call wrapped in a Span (recorded while Recorder is on).  Fills
/// the RunResult fields the model digest reads.
sda::exp::RunResult run_serial_assembled(const sda::exp::ExperimentConfig& config,
                                    std::uint64_t seed,
                                    sda::metrics::Tracer* tracer);

}  // namespace perfbench
