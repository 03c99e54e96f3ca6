// The four benchmark workloads and the metric names every run reports.
//
// Every workload reports every metric (one result schema for all runs):
//   * the three simulator workloads measure replication_s/setup_s/
//     peak_rss_mb on the simulator, then the serve_* / recovery_s metrics
//     with the service part's fixed minimum on serve-socket's script;
//   * serve-socket measures the service on its templated mix, with
//     replication_s = one in-process pass of its whole input script.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/exp/config.hpp"
#include "pb/report.hpp"

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed with --trace 0), in BENCHMARK.json order.
const std::vector<MetricName>& end_to_end_metrics();
/// Per-layer metrics (printed with --trace 1), in BENCHMARK.json order.
const std::vector<MetricName>& per_layer_metrics();
/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and horizons: the self-test mode.
  bool short_mode = false;
  /// Perturbs the simulated config (load + 1%) to prove the digest gate.
  bool perturb = false;
  std::string digests_path;  ///< pinned digests file ("" = none)
  std::string work_dir;      ///< scratch directory for journals
};

/// Values by metric name; a run fills what it measures.
using Values = std::map<std::string, double>;

/// True for paper-baseline, graph-heavy and wide-sharded.
bool is_sim_workload(const std::string& workload);

/// The simulator config of a simulator workload (horizon included).
sda::exp::ExperimentConfig sim_config(const std::string& workload,
                                      bool short_mode);

/// Simulator part of a run: replications for about @p budget_s seconds.
void run_sim_part(const RunArgs& args, double budget_s, Outcome& out,
                  Values& values);

/// Model digest of one replication of a simulator workload's config.
std::uint64_t sim_digest(const RunArgs& args, std::uint64_t replication_seed);

/// Digest of the service script's decisions: the reference session's
/// state fingerprint after the whole script (the same for every workload).
std::uint64_t serve_digest(const RunArgs& args);

/// Admission-service part of a run: a paced socket session, then rounds
/// of an in-process pass and a journal replay, at least 20 and for about
/// @p budget_s seconds.
void run_serve_part(const RunArgs& args, double budget_s, Outcome& out,
                    Values& values);

}  // namespace perfbench
