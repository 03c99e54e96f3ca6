// Simulator part of the benchmark: paper-baseline, graph-heavy and
// wide-sharded replications, their correctness gates, and the traced run
// that splits a replication's wall time across layers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "src/exp/runner.hpp"
#include "src/metrics/task_class.hpp"
#include "pb/spans.hpp"
#include "pb/traced.hpp"
#include "pb/workloads.hpp"

namespace perfbench {

namespace {

using sda::exp::ExperimentConfig;
using sda::exp::RunResult;

/// Set-ups timed after each replication.
constexpr int kSetupRuns = 21;

struct Timed {
  RunResult result;
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
};

// One replication through exp::run_once, with a Tracer(1) when asked (the
// fingerprint-only tracer every sda_run replication carries).
Timed replicate(const ExperimentConfig& c, std::uint64_t seed, bool tracer) {
  sda::metrics::Tracer tr(1);
  Timed t;
  const std::int64_t t0 = now_ns();
  t.result = sda::exp::run_once(c, seed, tracer ? &tr : nullptr);
  t.wall_s = seconds_since(t0);
  t.fingerprint = tr.fingerprint();
  return t;
}

// Checks that hold for every replication regardless of seed.
void sanity_check(const RunResult& r, const ExperimentConfig& c,
                  Outcome& out) {
  const auto local = r.collector.counts(sda::metrics::kLocalClass);
  const std::uint64_t globals_done = r.globals_completed + r.globals_aborted;
  if (r.events_fired == 0 || local.finished == 0 || globals_done == 0) {
    out.fail_check("replication produced no work");
  }
  if (globals_done > r.globals_generated) {
    out.fail_check("more global runs finished than were generated");
  }
  if (c.pm_abort == sda::core::PmAbortMode::kNone && r.globals_aborted != 0) {
    out.fail_check("global runs aborted without an abort regime");
  }
}

struct MissTally {
  std::uint64_t finished[3] = {0, 0, 0};
  std::uint64_t missed[3] = {0, 0, 0};

  void add(const RunResult& r) {
    for (const int cls : r.collector.classes()) {
      const int i = cls == sda::metrics::kLocalClass     ? 0
                    : cls == sda::metrics::kSubtaskClass ? 1
                                                         : 2;
      const auto c = r.collector.counts(cls);
      finished[i] += c.finished;
      missed[i] += c.missed;
    }
  }
  double md(int i) const {
    return finished[i] ? static_cast<double>(missed[i]) /
                             static_cast<double>(finished[i])
                       : 0.0;
  }
};

// Informational, not gated: the paper's Table 1 DIV-1 point (Sec. 6) at
// load 0.5 reports MD_local ~11.7 % and MD_global ~13 %.
void print_model_accuracy(const MissTally& t) {
  const double paper_local = 0.117, paper_global = 0.13;
  std::fprintf(stderr,
               "perfbench: model accuracy (paper DIV-1, load 0.5): "
               "MD_local %.4f (paper %.3f, abs err %.4f)  MD_subtask %.4f  "
               "MD_global %.4f (paper %.3f, abs err %.4f)\n",
               t.md(0), paper_local, std::abs(t.md(0) - paper_local), t.md(1),
               t.md(2), paper_global, std::abs(t.md(2) - paper_global));
}

std::string traced_name(const std::string& inner) {
  return std::string(kTracedPrefix) + inner;
}

void run_traced(const RunArgs& args, const ExperimentConfig& cfg,
                Outcome& out, Values& v) {
  const std::uint64_t seed0 = sda::exp::replication_seed(args.seed, 0);
  const bool sharded = cfg.shards > 1 || cfg.net_latency > 0.0;

  // Untraced references: with the Tracer(1) the workload carries, and
  // without any tracer (the difference is the tracer's overhead).
  const double cpu0 = process_cpu_s();
  const Timed untraced = replicate(cfg, seed0, true);
  const double cpu_used = process_cpu_s() - cpu0;
  const Timed bare = replicate(cfg, seed0, false);
  ++out.attempted;
  const std::uint64_t digest = model_digest(untraced.result);
  if (model_digest(bare.result) != digest) {
    out.fail_check("digest differs with and without the tracer");
  }

  // Traced run: spans around every layer's injection point.
  ExperimentConfig traced_cfg = cfg;
  sda::metrics::Tracer traced_tracer(1);
  reset_layer_counts();
  Recorder::start();
  const std::int64_t t0 = now_ns();
  RunResult traced;
  if (sharded) {
    traced_cfg.timer_queue = traced_name(cfg.timer_queue);
    traced_cfg.psp = traced_name(cfg.psp);
    traced_cfg.ssp = traced_name(cfg.ssp);
    traced = sda::exp::run_once(traced_cfg, seed0, &traced_tracer);
  } else {
    traced = run_serial_assembled(cfg, seed0, &traced_tracer);
  }
  const std::int64_t wall_ns = now_ns() - t0;
  const SpanTotals totals = Recorder::stop();
  const LayerCounts counts = layer_counts();
  ++out.attempted;
  if (model_digest(traced) != digest ||
      traced_tracer.fingerprint() != untraced.fingerprint) {
    ++out.failed;
    out.fail_check("traced replication differs from exp::run_once");
  }

  const int threads = sharded ? cfg.shards : 1;
  const std::int64_t thread_ns = wall_ns * threads;
  if (totals.covered_ns > thread_ns) {
    out.fail_check("spans cover more than the traced wall time");
  }

  double speedup = 1.0;
  if (sharded) {
    ExperimentConfig one = cfg;
    one.shards = 1;
    const Timed serial = replicate(one, seed0, true);
    ++out.attempted;
    if (model_digest(serial.result) != digest ||
        serial.fingerprint != untraced.fingerprint) {
      ++out.failed;
      out.fail_check("shards=1 and shards=" + std::to_string(cfg.shards) +
                     " disagree");
    }
    speedup = serial.wall_s / untraced.wall_s;
  }

  auto self_s = [&](Layer l) {
    return static_cast<double>(totals.self_ns[static_cast<int>(l)]) * 1e-9;
  };
  const RunResult& r = untraced.result;
  v["sim.events_fired"] = static_cast<double>(r.events_fired);
  v["sim.ns_per_event"] =
      untraced.wall_s * 1e9 / static_cast<double>(r.events_fired);
  v["sim.timer_queue.push"] = static_cast<double>(counts.tq_push);
  v["sim.timer_queue.pop"] = static_cast<double>(counts.tq_pop);
  v["sim.timer_queue.cancel"] = static_cast<double>(counts.tq_cancel);
  v["sim.timer_queue.self_s"] = self_s(Layer::kTimerQueue);
  v["sim.timer_queue.pending_max"] = static_cast<double>(counts.tq_pending_max);
  v["sim.timer_queue.cancel_ratio"] =
      counts.tq_push ? static_cast<double>(counts.tq_cancelled) /
                           static_cast<double>(counts.tq_push)
                     : 0.0;
  if (sharded) {
    // run_once builds the sharded nodes' schedulers itself, so only the
    // nodes' own counters reach the EDF layer here.
    std::uint64_t submissions = 0, high_water = 0;
    for (const auto& nc : r.node_counters) {
      submissions += nc.submissions;
      high_water = std::max<std::uint64_t>(high_water, nc.queue_high_water);
    }
    v["sched.edf.push"] = static_cast<double>(submissions);
    v["sched.edf.ready_max"] = static_cast<double>(high_water);
  } else {
    v["sched.edf.push"] = static_cast<double>(counts.edf_push);
    v["sched.edf.pop"] = static_cast<double>(counts.edf_pop);
    v["sched.edf.remove"] = static_cast<double>(counts.edf_remove);
    v["sched.edf.ready_max"] = static_cast<double>(counts.edf_ready_max);
  }
  v["sched.edf.self_s"] = self_s(Layer::kEdf);
  v["core.sda.psp_assign"] = static_cast<double>(counts.psp_assign);
  v["core.sda.psp_assign.self_s"] = self_s(Layer::kPsp);
  v["core.sda.ssp_assign"] = static_cast<double>(counts.ssp_assign);
  v["core.sda.ssp_assign.self_s"] = self_s(Layer::kSsp);
  v["core.pm.self_s"] = self_s(Layer::kPm);
  v["metrics.collector.self_s"] = self_s(Layer::kCollector);
  v["metrics.tracer.self_s"] = self_s(Layer::kTracer);
  v["metrics.tracer.overhead_s"] = untraced.wall_s - bare.wall_s;
  v["sim.engine.residual_s"] =
      static_cast<double>(thread_ns - totals.self_sum_ns()) * 1e-9;
  v["trace.wall_s"] = static_cast<double>(wall_ns) * 1e-9;
  v["trace.thread_s"] = static_cast<double>(thread_ns) * 1e-9;
  v["trace.overhead_ratio"] =
      static_cast<double>(wall_ns) * 1e-9 / untraced.wall_s;
  v["sim.fabric.speedup_vs_1shard"] = speedup;
  v["sim.fabric.cpu_utilization"] = cpu_used / (untraced.wall_s * threads);
  v["workload.locals_generated"] = static_cast<double>(r.locals_generated);
  v["workload.globals_generated"] = static_cast<double>(r.globals_generated);
}

}  // namespace

bool is_sim_workload(const std::string& workload) {
  return workload == "paper-baseline" || workload == "graph-heavy" ||
         workload == "wide-sharded";
}

ExperimentConfig sim_config(const std::string& workload, bool short_mode) {
  ExperimentConfig c;
  if (workload == "paper-baseline") {
    c = sda::exp::baseline_config();
    c.psp = "div-1";
    c.ssp = "ud";
    c.sim_time = short_mode ? 20'000.0 : 1'000'000.0;
  } else if (workload == "graph-heavy") {
    c = sda::exp::graph_config();
    c.psp = "gf";
    c.ssp = "eqf";
    c.k = 256;
    c.load = 0.9;
    c.frac_local = 0.25;
    c.pm_abort = sda::core::PmAbortMode::kRealDeadline;
    c.sim_time = short_mode ? 200.0 : 4'000.0;
  } else if (workload == "wide-sharded") {
    c = sda::exp::baseline_config();
    c.k = 1024;
    c.n_min = c.n_max = 8;
    c.frac_local = 0.95;
    c.net_latency = 0.5;
    c.shards = 4;
    c.sim_time = short_mode ? 50.0 : 1'000.0;
  } else {
    throw std::invalid_argument("not a simulator workload: " + workload);
  }
  return c;
}

std::uint64_t sim_digest(const RunArgs& args, std::uint64_t replication_seed) {
  ExperimentConfig cfg = sim_config(args.workload, args.short_mode);
  if (args.perturb) cfg.load *= 1.01;
  return model_digest(replicate(cfg, replication_seed, true).result);
}

void run_sim_part(const RunArgs& args, double budget_s, Outcome& out,
                  Values& v) {
  ExperimentConfig cfg = sim_config(args.workload, args.short_mode);
  if (args.perturb) cfg.load *= 1.01;
  register_traced_backends();
  if (args.trace) {
    run_traced(args, cfg, out, v);
    return;
  }

  // Set-up: the same assembly with a horizon too short for any task to
  // finish (validation, nodes, sources, shard threads).  A block of
  // kSetupRuns set-ups follows every replication.
  ExperimentConfig setup_cfg = cfg;
  setup_cfg.sim_time = 1e-9;
  int setups_run = 0;
  auto setup = [&] {
    return replicate(setup_cfg,
                     sda::exp::replication_seed(args.seed, setups_run++), true)
        .wall_s;
  };

  // Each replication is host-normalized by the kernel runs that bracket
  // it, on as many threads as the replication; each set-up block by the
  // kernel's micro runs interleaved with it.  graph-heavy's replications
  // (tree building, hash maps, PM and SDA planning) follow the host's
  // speed modes more like the service than like an event loop, so they
  // are normalized by both kernels, as the service is.
  HostSpeed speed = args.workload == "graph-heavy"
                        ? HostSpeed(1, args.work_dir + "/kernel.scratch")
                        : HostSpeed(cfg.shards);
  Series reps, setups;
  const std::int64_t start = now_ns();
  const int min_reps = 3;
  MissTally tally;
  std::uint64_t first_digest = 0, first_fingerprint = 0;
  for (int rep = 0; rep < min_reps || seconds_since(start) < budget_s; ++rep) {
    const std::uint64_t seed = sda::exp::replication_seed(args.seed, rep);
    const Timed t = replicate(cfg, seed, true);
    reps.add(t.wall_s, speed.bracket());
    // After a fixed number of replications: the peak grows slowly with
    // the replications run (allocator fragmentation), and how many the
    // budget allows depends on the host's speed.
    if (rep + 1 == min_reps) v["peak_rss_mb"] = peak_rss_mb();
    add_interleaved(setups, speed, kSetupRuns, setup);
    tally.add(t.result);
    ++out.attempted;
    sanity_check(t.result, cfg, out);
    const std::string digest = hex64(model_digest(t.result));
    if (rep == 0) {
      first_digest = model_digest(t.result);
      first_fingerprint = t.fingerprint;
    }
    const std::string pinned =
        args.digests_path.empty()
            ? ""
            : pinned_digest(args.digests_path, args.workload,
                            args.short_mode ? "sim-short" : "sim", seed);
    if (!pinned.empty() && pinned != digest) {
      ++out.failed;
      out.fail_check(args.workload + " replication " + std::to_string(rep) +
                     " digest " + digest + " != pinned " + pinned);
    }
    std::fprintf(stderr,
                 "perfbench: %s rep %d seed %llu digest %s%s wall %.4f s, "
                 "set-up %.3g s\n",
                 args.workload.c_str(), rep,
                 static_cast<unsigned long long>(seed), digest.c_str(),
                 pinned.empty() ? " (unpinned)" : " (pinned)", t.wall_s,
                 setups.raw().back());
  }

  if (cfg.shards > 1) {
    // The fabric must reproduce the one-shard result exactly.
    ExperimentConfig one = cfg;
    one.shards = 1;
    const Timed serial =
        replicate(one, sda::exp::replication_seed(args.seed, 0), true);
    ++out.attempted;
    if (model_digest(serial.result) != first_digest ||
        serial.fingerprint != first_fingerprint) {
      ++out.failed;
      out.fail_check("shards=1 and shards=" + std::to_string(cfg.shards) +
                     " disagree");
    }
  }

  v["setup_s"] = setups.median_scaled();
  v["replication_s"] = reps.median_scaled();
  std::fprintf(stderr,
               "perfbench: %s %zu replications: median %.4f s raw, %.4f s "
               "host-normalized; set-up median %.3g s raw\n",
               args.workload.c_str(), reps.raw().size(), reps.median_raw(),
               reps.median_scaled(), setups.median_raw());
  if (args.workload == "paper-baseline") print_model_accuracy(tally);
}

}  // namespace perfbench
