// Poisson generator of local tasks at one node (paper Section 5).
//
// Local tasks arrive at each node with rate lambda_local, exponential
// execution times (mean 1/mu_local = 1, the paper's time unit), and
// uniformly distributed slack; the deadline is ar + ex + slack.  Local
// tasks always carry virtual deadline == real deadline.
//
// In the process-manager abortion regime (§7.3 case 1) every generated
// task gets a timer at its real deadline; if still unfinished, it is
// aborted and recorded as missed.
#pragma once

#include <cstdint>

#include <optional>

#include "src/metrics/collector.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"
#include "src/util/unique_fn.hpp"
#include "src/workload/arrivals.hpp"
#include "src/workload/exec_dist.hpp"

namespace sda::workload {

class LocalSource {
 public:
  struct Config {
    double lambda = 0.0;     ///< arrival rate; 0 disables the source
    double mean_exec = 1.0;  ///< 1/mu_local
    double slack_min = 1.25;
    double slack_max = 5.0;
    bool abort_at_real_deadline = false;  ///< PM-abortion regime
    int metrics_class = metrics::kLocalClass;
    /// Base for task ids; must not collide with other sources feeding the
    /// same node (the runner partitions the id space).
    std::uint64_t id_base = 0;
    /// Burstiness (interrupted-Poisson): 1 = Poisson (the paper), > 1
    /// concentrates the same mean rate into ON periods.
    double burst_factor = 1.0;
    double burst_cycle = 50.0;  ///< expected ON+OFF cycle length
    /// Service-time distribution; unset = exponential(mean_exec), the
    /// paper's model.  When set, it overrides mean_exec entirely.
    std::optional<ExecDistribution> exec;
  };

  /// The source submits into @p node and records PM-timer aborts into
  /// @p collector (completions are recorded by the runner's node handler).
  LocalSource(sim::Engine& engine, sched::Node& node,
              metrics::Collector& collector, util::Rng rng, Config config);

  /// Schedules the first arrival. No tasks are generated before start().
  void start();

  /// Redirects the PM-timer abort records away from the constructor's
  /// collector (sharded mode: only the fabric's replay writes the
  /// collector, so the hook defers the record through the fabric instead).
  void set_record_hook(util::UniqueFn<void(const task::SimpleTask&)> hook) {
    record_hook_ = std::move(hook);
  }

  std::uint64_t generated() const noexcept { return generated_; }

 private:
  void arrival();
  void record_abort(const task::SimpleTask& t);

  sim::Engine& engine_;
  sched::Node& node_;
  metrics::Collector& collector_;
  util::Rng rng_;
  Config config_;
  InterarrivalSampler arrivals_;
  util::UniqueFn<void(const task::SimpleTask&)> record_hook_;
  std::uint64_t generated_ = 0;
};

}  // namespace sda::workload
