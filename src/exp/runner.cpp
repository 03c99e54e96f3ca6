// One replication assembly (runner.hpp): the system's topology is written
// once, in assemble_and_run below — k compute nodes plus link nodes, one
// process manager running PSP x SSP deadline assignment, the admission
// gate, the metric sinks, the workload sources in a fixed RNG split order,
// the fault plan, and the RunResult fold.
//
// It runs on one of two wirings, selected by detail::message_mode():
//
//   DirectWiring  one sim::Engine; the process manager calls the nodes
//                 through core::DirectNodePort, node terminal handlers call
//                 the process manager, and sinks write straight into the
//                 Collector/Tracer.  Everything is a synchronous call.
//
//   FabricWiring  the conservative time-window fabric (src/sim/fabric.hpp,
//                 DESIGN.md §4c).  Node i (with its local source and fault
//                 hooks) lives on lane i; the process manager, admission
//                 gate and global source live on the control lane
//                 (shard 0).  Every cross-lane interaction is a message:
//                   PM -> node    dispatch / abort through FabricNodePort
//                                 (task clones: the PM and the node never
//                                 share a SimpleTask object);
//                   node -> PM    terminal subtask outcomes, as value
//                                 snapshots replayed by handle_remote;
//                   any -> sinks  deferred SinkRecords, merged in global
//                                 (time, origin-path) order by the first
//                                 shard to finish the next window.
//                 The PM's failover is_up() probe is answered from the
//                 fabric's NodeStatusBoard (the static crash calendar).
//
// The wiring is a template parameter, so the direct path's per-event
// handlers compile to the same direct calls as a hand-written assembly.
// The fabric costs about 2x the direct path's wall time at shards=1,
// net_latency=0 (EXPERIMENTS.md), which is why the direct wiring stays.
#include "src/exp/runner.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/exp/runner_detail.hpp"

#include "src/core/strategy.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/injector.hpp"
#include "src/sched/node.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fabric.hpp"
#include "src/util/rng.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"
#include "src/workload/rates.hpp"
#include "src/workload/taskgraph_source.hpp"

namespace sda::exp {

using detail::local_id_base;
using detail::to_trace_event;

namespace {

/// Single engine, synchronous calls, sinks written in place.
class DirectWiring {
 public:
  DirectWiring(const ExperimentConfig& config, int /*lanes*/,
               metrics::Collector& collector, metrics::Tracer* tracer)
      : engine_(sim::make_timer_queue(config.timer_queue)),
        collector_(collector), tracer_(tracer) {}

  sim::Engine& lane_engine(int /*lane*/) noexcept { return engine_; }
  sim::Engine& control_engine() noexcept { return engine_; }
  int control_lane() const noexcept { return 0; }

  core::NodePort& connect(std::vector<sched::Node*> nodes) {
    return port_.emplace(std::move(nodes));
  }

  // Sinks.  emit_trace runs only where a tracer was requested.
  void emit_trace(int /*lane*/, const metrics::TraceRecord& rec) {
    tracer_->add(rec);
  }
  void emit_simple(int /*lane*/, const task::SimpleTask& t) {
    collector_.record_simple(t);
  }
  void emit_global(int /*lane*/, const core::GlobalTaskRecord& rec) {
    collector_.record_global(rec);
  }

  // Terminal subtask outcomes, node -> process manager.
  void completed(core::ProcessManager& pm, int /*lane*/,
                 const task::TaskPtr& t) {
    pm.handle_completion(t);
  }
  void aborted_locally(core::ProcessManager& pm, int /*lane*/,
                       const task::TaskPtr& t) {
    pm.handle_local_abort(t);
  }
  void failed(core::ProcessManager& pm, int /*lane*/, const task::TaskPtr& t) {
    pm.handle_failure(t);  // recovery policy decides: retry or shed
  }

  void hook_local_source(int /*lane*/, workload::LocalSource& /*src*/) {}
  void attach_faults(fault::FaultInjector& /*injector*/) {}

  void run(sim::Time horizon) { engine_.run_until(horizon); }
  std::uint64_t events_fired() const noexcept {
    return engine_.events_fired();
  }
  std::uint64_t windows() const noexcept { return 0; }
  std::uint64_t messages_posted() const noexcept { return 0; }

 private:
  sim::Engine engine_;
  metrics::Collector& collector_;
  metrics::Tracer* tracer_;
  std::optional<core::DirectNodePort> port_;
};

/// core::NodePort that ships every process-manager/node interaction as a
/// fabric message.  Tasks are cloned at the boundary: the node executes
/// its own copy, and the PM learns the outcome from a snapshot — no
/// object is ever touched by two shards.
///
/// The per-node registries map task id -> the node's clone so an abort
/// message can find the object the node actually holds.  Each registry is
/// touched only from its node's lane (registration happens inside the
/// delivered submit message, release inside the node's terminal handlers),
/// so there is no cross-shard access to guard.
class FabricNodePort final : public core::NodePort {
 public:
  FabricNodePort(sim::Fabric& fabric, std::vector<sched::Node*> nodes)
      : fabric_(fabric), nodes_(std::move(nodes)),
        registry_(nodes_.size()) {}

  int count() const override { return static_cast<int>(nodes_.size()); }

  /// Failover probe, called from the PM's shard: answered from the static
  /// crash calendar at the control clock instead of the live node.
  bool is_up(int node) const override {
    return fabric_.status_board().is_up(node, fabric_.control_engine().now());
  }

  void submit(int node, const task::TaskPtr& t) override {
    auto clone = std::make_shared<task::SimpleTask>(*t);
    fabric_.post(fabric_.control_lane(), node, [this, node, clone] {
      registry_[static_cast<std::size_t>(node)][clone->id] = clone;
      nodes_[static_cast<std::size_t>(node)]->submit(clone);
    });
  }

  void abort(int node, const task::SimpleTask& t) override {
    const std::uint64_t id = t.id;
    fabric_.post(fabric_.control_lane(), node, [this, node, id] {
      auto& reg = registry_[static_cast<std::size_t>(node)];
      auto it = reg.find(id);
      // Unknown id: the subtask reached a terminal state before the abort
      // arrived (legitimate under message latency) — nothing to do, which
      // is exactly DirectNodePort's "not here" no-op.
      if (it == reg.end()) return;
      const task::TaskPtr victim = it->second;
      reg.erase(it);
      nodes_[static_cast<std::size_t>(node)]->abort(*victim);
    });
  }

  /// Drops the registry entry for a task that reached a terminal state on
  /// its node.  Called from the node-lane terminal handlers.
  void release(int node, std::uint64_t id) {
    registry_[static_cast<std::size_t>(node)].erase(id);
  }

 private:
  sim::Fabric& fabric_;
  std::vector<sched::Node*> nodes_;
  std::vector<std::unordered_map<std::uint64_t, task::TaskPtr>> registry_;
};

/// Lanes, messages and deferred sinks on the time-window fabric.
class FabricWiring {
 public:
  FabricWiring(const ExperimentConfig& config, int lanes,
               metrics::Collector& collector, metrics::Tracer* tracer)
      : fabric_(options(config, lanes)) {
    fabric_.set_sinks(&collector, tracer);
  }

  sim::Engine& lane_engine(int lane) noexcept {
    return fabric_.engine_for_lane(lane);
  }
  sim::Engine& control_engine() noexcept { return fabric_.control_engine(); }
  int control_lane() const noexcept { return fabric_.control_lane(); }

  core::NodePort& connect(std::vector<sched::Node*> nodes) {
    return port_.emplace(fabric_, std::move(nodes));
  }

  void emit_trace(int lane, const metrics::TraceRecord& rec) {
    fabric_.emit_trace(lane, rec);
  }
  void emit_simple(int lane, const task::SimpleTask& t) {
    fabric_.emit_simple(lane, t);
  }
  void emit_global(int lane, const core::GlobalTaskRecord& rec) {
    fabric_.emit_global(lane, rec);
  }

  // Terminal subtask outcomes run on the node's lane: release the port
  // registry and ship a value snapshot to the PM, which handle_remote
  // replays over its own copy.
  void completed(core::ProcessManager& pm, int lane, const task::TaskPtr& t) {
    notify_pm(pm, lane, t, core::RemoteSubtaskEvent::kCompleted);
  }
  void aborted_locally(core::ProcessManager& pm, int lane,
                       const task::TaskPtr& t) {
    notify_pm(pm, lane, t, core::RemoteSubtaskEvent::kLocalAbort);
  }
  void failed(core::ProcessManager& pm, int lane, const task::TaskPtr& t) {
    notify_pm(pm, lane, t, core::RemoteSubtaskEvent::kFailed);
  }

  /// PM-timer abort records must join the global (time, path) order, not
  /// jump the fence into the control-lane collector.
  void hook_local_source(int lane, workload::LocalSource& src) {
    src.set_record_hook([this, lane](const task::SimpleTask& t) {
      fabric_.emit_simple(lane, t);
    });
  }

  /// The PM answers failover is_up() probes from the static crash
  /// calendar (the same plan the injector replays), and crash/recovery
  /// events fire on each node's own lane engine.
  void attach_faults(fault::FaultInjector& injector) {
    const int lanes = fabric_.lanes();
    fabric_.status_board().reset(lanes);
    for (const fault::CrashInterval& c : injector.plan().crashes()) {
      fabric_.status_board().add_outage(c.node, c.down_at, c.up_at);
    }
    std::vector<sim::Engine*> lane_engines;
    lane_engines.reserve(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; ++i) {
      lane_engines.push_back(&fabric_.engine_for_lane(i));
    }
    injector.set_lane_engines(std::move(lane_engines));
  }

  void run(sim::Time horizon) { fabric_.run(horizon); }
  std::uint64_t events_fired() const noexcept {
    return fabric_.events_fired();
  }
  std::uint64_t windows() const noexcept { return fabric_.windows(); }
  std::uint64_t messages_posted() const noexcept {
    return fabric_.messages_posted();
  }

 private:
  static sim::Fabric::Options options(const ExperimentConfig& config,
                                      int lanes) {
    sim::Fabric::Options fo;
    fo.lanes = lanes;
    fo.shards = config.shards;
    fo.latency = config.net_latency;
    fo.timer_queue = config.timer_queue;
    return fo;
  }

  void notify_pm(core::ProcessManager& pm, int lane, const task::TaskPtr& t,
                 core::RemoteSubtaskEvent ev) {
    port_->release(lane, t->id);
    const task::SimpleTask snapshot = *t;
    fabric_.post(lane, fabric_.control_lane(), [&pm, snapshot, ev] {
      pm.handle_remote(snapshot, ev);
    });
  }

  sim::Fabric fabric_;
  std::optional<FabricNodePort> port_;
};

template <class Wiring>
RunResult assemble_and_run(const ExperimentConfig& config, std::uint64_t seed,
                           metrics::Tracer* tracer) {
  const int link_count =
      config.global_kind == GlobalKind::kGraph ? config.link_count : 0;
  const int total_nodes = config.k + link_count;

  // --- metrics ----------------------------------------------------------------
  metrics::Collector collector;
  collector.set_warmup(config.warmup_fraction * config.sim_time);
  if (config.tardiness_histograms) collector.enable_tardiness_histograms();
  if (config.distributions) collector.enable_distributions();

  Wiring w(config, total_nodes, collector, tracer);
  const int control = w.control_lane();
  util::Rng master(seed);

  // --- nodes (node i on lane i) ------------------------------------------------
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  nodes.reserve(static_cast<std::size_t>(total_nodes));
  for (int i = 0; i < total_nodes; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nc.abort_policy = config.local_abort;
    nc.preemptive = config.preemptive;
    if (!config.node_speeds.empty() && i < config.k) {
      nc.speed = config.node_speeds[static_cast<std::size_t>(i)];
    }
    nodes.push_back(std::make_unique<sched::Node>(
        w.lane_engine(i), sched::make_scheduler(config.scheduler_policy), nc));
    node_ptrs.push_back(nodes.back().get());
  }

  // --- process manager (control lane) -------------------------------------------
  core::ProcessManager::Config pmc;
  pmc.psp = core::make_psp_strategy(config.psp);
  pmc.ssp = core::make_ssp_strategy(config.ssp);
  pmc.abort_mode = config.pm_abort;
  pmc.mark_subtasks_non_abortable = config.subtasks_non_abortable;
  pmc.compute_node_count = config.k;
  if (config.max_retries_per_run >= 0) {
    pmc.recovery.max_retries_per_run = config.max_retries_per_run;
  }
  pmc.recovery.backoff_base = config.retry_backoff_base;
  pmc.recovery.backoff_factor = config.retry_backoff_factor;
  pmc.recovery.failover = config.retry_failover;
  pmc.recovery.deadline_mode = config.retry_deadline == "stale"
                                   ? core::RetryDeadline::kStale
                                   : core::RetryDeadline::kSdaRecompute;
  pmc.recovery.shed_negative_slack = config.shed_negative_slack;
  core::ProcessManager pm(w.control_engine(), w.connect(node_ptrs),
                          std::move(pmc));

  // --- admission gate ----------------------------------------------------------
  // Built before the handlers so run completions can retire ledger
  // entries.  The controller draws no RNG and schedules no events, so an
  // absent gate leaves the simulation bit-identical.
  std::unique_ptr<core::AdmissionController> admission;
  if (config.admission) {
    admission =
        std::make_unique<core::AdmissionController>(config.admission_config());
  }
  core::AdmissionController* admission_ptr = admission.get();

  // --- handler topology ----------------------------------------------------------
  pm.set_global_handler([&w, admission_ptr, control,
                         tracer](const core::GlobalTaskRecord& rec) {
    if (admission_ptr != nullptr) admission_ptr->on_finished(rec.run_id);
    w.emit_global(control, rec);
    if (tracer != nullptr) {
      const metrics::TraceEvent ev =
          rec.shed ? metrics::TraceEvent::kGlobalShed
                   : (rec.aborted ? metrics::TraceEvent::kGlobalAborted
                                  : metrics::TraceEvent::kGlobalCompleted);
      w.emit_trace(control, metrics::TraceRecord{rec.finished_at, ev, 0,
                                                 rec.run_id, -1,
                                                 rec.real_deadline});
    }
  });
  pm.set_subtask_handler(
      [&w, control](const task::SimpleTask& t) { w.emit_simple(control, t); });
  if (tracer != nullptr) {
    sim::Engine* control_engine = &w.control_engine();
    pm.set_submit_observer(
        [&w, control_engine, control](std::uint64_t run_id,
                                      sim::Time deadline) {
          w.emit_trace(control, metrics::TraceRecord{
                                    control_engine->now(),
                                    metrics::TraceEvent::kGlobalSubmitted, 0,
                                    run_id, -1, deadline});
        });
    for (auto& node : nodes) {
      const int lane = node->index();
      sim::Engine* lane_engine = &w.lane_engine(lane);
      node->set_observer([&w, lane_engine, lane](sched::Node::Event e,
                                                 const task::SimpleTask& t) {
        w.emit_trace(lane, metrics::TraceRecord{lane_engine->now(),
                                                to_trace_event(e), t.id,
                                                t.owner_run, lane,
                                                t.attrs.virtual_deadline});
      });
    }
  }

  // Locals finish at their node's sinks; subtasks report to the PM.
  for (auto& node : nodes) {
    const int lane = node->index();
    node->set_completion_handler([&w, &pm, lane](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        w.emit_simple(lane, *t);
      } else {
        w.completed(pm, lane, t);
      }
    });
    node->set_abort_handler([&w, &pm, lane](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        w.emit_simple(lane, *t);  // a locally aborted local is a miss
      } else {
        w.aborted_locally(pm, lane, t);
      }
    });
    node->set_failure_handler([&w, &pm, lane](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        w.emit_simple(lane, *t);  // a fault-killed local is a miss
      } else {
        w.failed(pm, lane, t);
      }
    });
  }

  // --- workload (the RNG split order decides every fingerprint) -------------------
  workload::RateParams rp;
  rp.k = config.k;
  rp.load = config.load;
  rp.frac_local = config.frac_local;
  rp.mu_local = config.mu_local;
  rp.expected_global_work = config.expected_global_work();
  const workload::Rates rates = workload::solve_rates(rp);

  std::vector<std::unique_ptr<workload::LocalSource>> local_sources;
  for (int i = 0; i < config.k; ++i) {
    workload::LocalSource::Config lc;
    lc.lambda = rates.lambda_local;
    lc.mean_exec = 1.0 / config.mu_local;
    lc.slack_min = config.slack_min;
    lc.slack_max = config.slack_max;
    lc.abort_at_real_deadline =
        config.pm_abort == core::PmAbortMode::kRealDeadline;
    lc.id_base = local_id_base(i);
    lc.burst_factor = config.local_burst_factor;
    lc.burst_cycle = config.local_burst_cycle;
    lc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_local, config.service_cv);
    local_sources.push_back(std::make_unique<workload::LocalSource>(
        w.lane_engine(i), *nodes[static_cast<std::size_t>(i)], collector,
        master.split(), lc));
    w.hook_local_source(i, *local_sources.back());
    local_sources.back()->start();
  }

  const auto [gslack_min, gslack_max] = config.resolved_global_slack();
  std::unique_ptr<workload::ParallelGlobalSource> parallel_source;
  std::unique_ptr<workload::GraphGlobalSource> graph_source;
  if (config.global_kind == GlobalKind::kParallel) {
    workload::ParallelGlobalSource::Config gc;
    gc.lambda = rates.lambda_global;
    gc.k = config.k;
    gc.n_min = config.n_min;
    gc.n_max = config.n_max;
    gc.mean_subtask_exec = 1.0 / config.mu_subtask;
    gc.slack_min = gslack_min;
    gc.slack_max = gslack_max;
    gc.pex = config.pex;
    gc.exec_spread = config.subtask_exec_spread;
    gc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_subtask, config.service_cv);
    // "least-queued" reads live node state, so validate() rejects it for
    // shards > 1; "uniform" never dereferences the nodes.
    gc.placement = workload::make_placement(
        config.placement,
        std::vector<const sched::Node*>(node_ptrs.begin(), node_ptrs.end()));
    gc.burst_factor = config.global_burst_factor;
    gc.burst_cycle = config.global_burst_cycle;
    gc.admission = admission_ptr;
    parallel_source = std::make_unique<workload::ParallelGlobalSource>(
        w.control_engine(), pm, master.split(), gc);
    parallel_source->start();
  } else {
    workload::GraphGlobalSource::Config gc;
    gc.lambda = rates.lambda_global;
    gc.k = config.k;
    gc.stage_widths = config.stage_widths;
    gc.mean_subtask_exec = 1.0 / config.mu_subtask;
    gc.slack_min = gslack_min;
    gc.slack_max = gslack_max;
    gc.pex = config.pex;
    for (int link = 0; link < link_count; ++link) {
      gc.link_nodes.push_back(config.k + link);
    }
    gc.mean_msg_time = config.mean_msg_time;
    gc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_subtask, config.service_cv);
    graph_source = std::make_unique<workload::GraphGlobalSource>(
        w.control_engine(), pm, master.split(), gc);
    graph_source->start();
  }

  // --- fault injection --------------------------------------------------------
  // The fault stream is split from the master only when faults are on, and
  // only after every workload source took its split: a fail-free config
  // draws exactly the same substreams as a build without this block, so
  // fault_rate = 0 reproduces the seed numbers bit-for-bit.
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults_enabled()) {
    util::Rng fault_master = master.split();
    fault::FaultConfig fc;
    fc.subtask_failure_rate = config.fault_rate;
    fc.crash_mean_uptime = config.crash_mean_uptime;
    fc.crash_mean_downtime = config.crash_mean_downtime;
    fc.crash_discards_queue = config.crash_discards_queue;
    fc.msg_loss_rate = config.msg_loss_rate;
    fc.msg_extra_delay_mean = config.msg_extra_delay_mean;
    fault::FaultPlan plan = fault::FaultPlan::generate(
        fc, config.k, config.sim_time, fault_master.split());
    injector = std::make_unique<fault::FaultInjector>(
        w.control_engine(), node_ptrs, config.k, std::move(plan),
        fault_master.split());
    w.attach_faults(*injector);
    injector->arm();
  }

  // --- run -------------------------------------------------------------------
  w.run(config.sim_time);

  // --- results ----------------------------------------------------------------
  RunResult result;
  result.collector = std::move(collector);
  double util = 0.0, link_util = 0.0;
  std::uint64_t local_aborts = 0, preemptions = 0;
  for (const auto& node : nodes) {
    (node->index() < config.k ? util : link_util) += node->utilization();
    result.node_utilizations.push_back(node->utilization());
    result.node_counters.push_back(node->perf_counters());
    local_aborts += node->aborted_locally();
    preemptions += node->preemptions();
  }
  result.mean_utilization = util / static_cast<double>(config.k);
  if (link_count > 0) {
    result.mean_link_utilization = link_util / static_cast<double>(link_count);
  }
  result.events_fired = w.events_fired();
  result.fabric_windows = w.windows();
  result.fabric_messages = w.messages_posted();
  for (const auto& src : local_sources) {
    result.locals_generated += src->generated();
  }
  result.globals_generated =
      parallel_source ? parallel_source->generated()
                      : (graph_source ? graph_source->generated() : 0);
  result.globals_completed = pm.completed_runs();
  result.globals_aborted = pm.aborted_runs();
  result.local_scheduler_aborts = local_aborts;
  result.resubmissions = pm.resubmissions();
  result.preemptions = preemptions;
  if (injector) {
    result.node_crashes = injector->crashes();
    result.transient_failures = injector->transient_failures();
    result.messages_lost = injector->messages_lost();
  }
  result.fault_retries = pm.fault_retries();
  result.failovers = pm.failovers();
  result.globals_shed = pm.shed_runs();
  if (admission_ptr != nullptr) {
    result.admission_enabled = true;
    result.admission = admission_ptr->stats();
    result.plan_cache = admission_ptr->cache_stats();
    result.admission_final_state = admission_ptr->state();
    if (parallel_source) {
      result.globals_not_admitted = parallel_source->not_admitted();
    }
  }
  return result;
}

}  // namespace

RunResult run_once(const ExperimentConfig& config, std::uint64_t seed,
                   metrics::Tracer* tracer) {
  // Reject inconsistent configs with actionable errors before any part of
  // the system is assembled (callers going through run_experiment have
  // already paid this, but run_once is a public entry point of its own).
  config.validate_or_throw();
  if (detail::message_mode(config)) {
    return assemble_and_run<FabricWiring>(config, seed, tracer);
  }
  return assemble_and_run<DirectWiring>(config, seed, tracer);
}

metrics::Report run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, util::ThreadPool::shared(), nullptr);
}

metrics::Report run_experiment(const ExperimentConfig& config,
                               util::ThreadPool& pool,
                               std::vector<std::uint64_t>* fingerprints) {
  config.validate_or_throw();
  // Replications are fully independent simulations, so fan them out over
  // the pool; results are folded in replication order below, keeping the
  // report bit-identical to the sequential fold regardless of pool size.
  const std::size_t reps = static_cast<std::size_t>(config.replications);
  std::vector<metrics::Collector> collectors(reps);
  std::vector<std::uint64_t> fps(fingerprints != nullptr ? reps : 0);
  auto one_rep = [&](std::size_t rep) {
    const std::uint64_t seed =
        replication_seed(config.seed, static_cast<int>(rep));
    if (fingerprints != nullptr) {
      // Capacity 1: only the rolling fingerprint matters, not the records.
      metrics::Tracer tracer(1);
      collectors[rep] = std::move(run_once(config, seed, &tracer).collector);
      fps[rep] = tracer.fingerprint();
    } else {
      collectors[rep] = std::move(run_once(config, seed).collector);
    }
  };
  if (detail::message_mode(config)) {
    // A sharded replication already spawns `shards` worker threads; fanning
    // replications over the pool on top of that would oversubscribe every
    // core.  Replication order is the fold order either way.
    for (std::size_t rep = 0; rep < reps; ++rep) one_rep(rep);
  } else {
    pool.parallel_for(reps, one_rep);
  }
  if (fingerprints != nullptr) *fingerprints = std::move(fps);
  metrics::Report report;
  for (const metrics::Collector& c : collectors) report.add_replication(c);
  return report;
}

}  // namespace sda::exp
