#include "pb/traced.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/process_manager.hpp"
#include "src/core/strategy.hpp"
#include "src/exp/runner_detail.hpp"
#include "src/metrics/collector.hpp"
#include "src/sched/node.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/timer_queue.hpp"
#include "pb/spans.hpp"
#include "src/util/rng.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"
#include "src/workload/rates.hpp"
#include "src/workload/taskgraph_source.hpp"

namespace perfbench {

using namespace sda;

namespace {

std::mutex g_counts_mu;
LayerCounts g_counts;  // guarded by g_counts_mu

void fold(const LayerCounts& c) {
  std::lock_guard<std::mutex> lock(g_counts_mu);
  g_counts.tq_push += c.tq_push;
  g_counts.tq_pop += c.tq_pop;
  g_counts.tq_cancel += c.tq_cancel;
  g_counts.tq_cancelled += c.tq_cancelled;
  g_counts.tq_pending_max = std::max(g_counts.tq_pending_max, c.tq_pending_max);
  g_counts.edf_push += c.edf_push;
  g_counts.edf_pop += c.edf_pop;
  g_counts.edf_remove += c.edf_remove;
  g_counts.edf_ready_max = std::max(g_counts.edf_ready_max, c.edf_ready_max);
  g_counts.psp_assign += c.psp_assign;
  g_counts.ssp_assign += c.ssp_assign;
}

class TracedTimerQueue final : public sim::TimerQueue {
 public:
  explicit TracedTimerQueue(std::unique_ptr<sim::TimerQueue> inner)
      : inner_(std::move(inner)) {}
  ~TracedTimerQueue() override { fold(counts_); }
  TracedTimerQueue(const TracedTimerQueue&) = delete;
  TracedTimerQueue& operator=(const TracedTimerQueue&) = delete;

  sim::EventId push(sim::Time t, sim::EventFn fn) override {
    Span span(Layer::kTimerQueue);
    ++counts_.tq_push;
    const sim::EventId id = inner_->push(t, std::move(fn));
    counts_.tq_pending_max =
        std::max<std::uint64_t>(counts_.tq_pending_max, inner_->size());
    return id;
  }
  bool cancel(sim::EventId id) override {
    Span span(Layer::kTimerQueue);
    ++counts_.tq_cancel;
    const bool hit = inner_->cancel(id);
    if (hit) ++counts_.tq_cancelled;
    return hit;
  }
  bool pending(sim::EventId id) const noexcept override {
    return inner_->pending(id);
  }
  bool empty() const noexcept override { return inner_->empty(); }
  std::size_t size() const noexcept override { return inner_->size(); }
  sim::Time peek_time() const override {
    Span span(Layer::kTimerQueue);
    return inner_->peek_time();
  }
  Popped pop_slot() override {
    Span span(Layer::kTimerQueue);
    ++counts_.tq_pop;
    return inner_->pop_slot();
  }
  void validate() const override { inner_->validate(); }
  const char* backend_name() const noexcept override {
    return inner_->backend_name();
  }

 private:
  std::unique_ptr<sim::TimerQueue> inner_;
  LayerCounts counts_;
};

class TracedScheduler final : public sched::Scheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<sched::Scheduler> inner)
      : inner_(std::move(inner)) {}
  ~TracedScheduler() override { fold(counts_); }
  TracedScheduler(const TracedScheduler&) = delete;
  TracedScheduler& operator=(const TracedScheduler&) = delete;

  void push(sched::TaskPtr t) override {
    Span span(Layer::kEdf);
    ++counts_.edf_push;
    inner_->push(std::move(t));
    counts_.edf_ready_max =
        std::max<std::uint64_t>(counts_.edf_ready_max, inner_->size());
  }
  sched::TaskPtr pop() override {
    Span span(Layer::kEdf);
    ++counts_.edf_pop;
    return inner_->pop();
  }
  const task::SimpleTask* peek() const override {
    Span span(Layer::kEdf);
    return inner_->peek();
  }
  sched::TaskPtr remove(const task::SimpleTask& t) override {
    Span span(Layer::kEdf);
    ++counts_.edf_remove;
    return inner_->remove(t);
  }
  std::size_t size() const override { return inner_->size(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sched::Scheduler> inner_;
  LayerCounts counts_;
};

// Strategies are shared by the process manager across shard threads only
// through const assign(); the counters are therefore atomics.
class TracedPsp final : public core::PspStrategy {
 public:
  explicit TracedPsp(std::unique_ptr<core::PspStrategy> inner)
      : inner_(std::move(inner)) {}
  ~TracedPsp() override {
    LayerCounts c;
    c.psp_assign = calls_.load();
    fold(c);
  }
  TracedPsp(const TracedPsp&) = delete;
  TracedPsp& operator=(const TracedPsp&) = delete;

  core::Time assign(const core::PspContext& ctx, int branch,
                    core::Time branch_pex) const override {
    Span span(Layer::kPsp);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->assign(ctx, branch, branch_pex);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::PspStrategy> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

class TracedSsp final : public core::SspStrategy {
 public:
  explicit TracedSsp(std::unique_ptr<core::SspStrategy> inner)
      : inner_(std::move(inner)) {}
  ~TracedSsp() override {
    LayerCounts c;
    c.ssp_assign = calls_.load();
    fold(c);
  }
  TracedSsp(const TracedSsp&) = delete;
  TracedSsp& operator=(const TracedSsp&) = delete;

  core::Time assign(const core::SspContext& ctx) const override {
    Span span(Layer::kSsp);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->assign(ctx);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::SspStrategy> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

std::string strip_prefix(const std::string& name) {
  return name.substr(std::string(kTracedPrefix).size());
}

}  // namespace

void reset_layer_counts() {
  std::lock_guard<std::mutex> lock(g_counts_mu);
  g_counts = LayerCounts{};
}

LayerCounts layer_counts() {
  std::lock_guard<std::mutex> lock(g_counts_mu);
  return g_counts;
}

void register_traced_backends() {
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_timer_queue(
        kTracedPrefix,
        [](const std::string& name) -> std::unique_ptr<sim::TimerQueue> {
          return std::make_unique<TracedTimerQueue>(
              sim::make_timer_queue(strip_prefix(name)));
        },
        util::NameMatch::kPrefix, "traced-<backend>");
    core::register_psp(
        kTracedPrefix,
        [](const std::string& name) -> std::unique_ptr<core::PspStrategy> {
          return std::make_unique<TracedPsp>(
              core::make_psp_strategy(strip_prefix(name)));
        },
        util::NameMatch::kPrefix, "traced-<psp>");
    core::register_ssp(
        kTracedPrefix,
        [](const std::string& name) -> std::unique_ptr<core::SspStrategy> {
          return std::make_unique<TracedSsp>(
              core::make_ssp_strategy(strip_prefix(name)));
        },
        util::NameMatch::kPrefix, "traced-<ssp>");
  });
}

// Mirrors the serial path of exp::run_once (src/exp/runner.cpp) step for
// step — construction order and RNG split order decide the trace — with
// each layer reached through a traced decorator or a spanned handler.
sda::exp::RunResult run_serial_assembled(const sda::exp::ExperimentConfig& config,
                                    std::uint64_t seed,
                                    metrics::Tracer* tracer) {
  config.validate_or_throw();
  if (exp::detail::message_mode(config) || config.faults_enabled() ||
      config.admission) {
    throw std::invalid_argument(
        "run_serial_assembled: serial, fault-free, ungated configs only");
  }

  sim::Engine engine(std::make_unique<TracedTimerQueue>(
      sim::make_timer_queue(config.timer_queue)));
  util::Rng master(seed);

  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  const int link_count =
      config.global_kind == exp::GlobalKind::kGraph ? config.link_count : 0;
  const int total_nodes = config.k + link_count;
  for (int i = 0; i < total_nodes; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nc.abort_policy = config.local_abort;
    nc.preemptive = config.preemptive;
    if (!config.node_speeds.empty() && i < config.k) {
      nc.speed = config.node_speeds[static_cast<std::size_t>(i)];
    }
    nodes.push_back(std::make_unique<sched::Node>(
        engine,
        std::make_unique<TracedScheduler>(
            sched::make_scheduler(config.scheduler_policy)),
        nc));
    node_ptrs.push_back(nodes.back().get());
  }

  core::ProcessManager::Config pmc;
  pmc.psp = std::make_shared<TracedPsp>(core::make_psp_strategy(config.psp));
  pmc.ssp = std::make_shared<TracedSsp>(core::make_ssp_strategy(config.ssp));
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
  core::ProcessManager pm(engine, node_ptrs, std::move(pmc));

  metrics::Collector collector;
  collector.set_warmup(config.warmup_fraction * config.sim_time);
  if (config.tardiness_histograms) collector.enable_tardiness_histograms();
  if (config.distributions) collector.enable_distributions();
  pm.set_global_handler([&, tracer](const core::GlobalTaskRecord& rec) {
    {
      Span span(Layer::kCollector);
      collector.record_global(rec);
    }
    if (tracer != nullptr) {
      Span span(Layer::kTracer);
      const metrics::TraceEvent ev =
          rec.shed ? metrics::TraceEvent::kGlobalShed
                   : (rec.aborted ? metrics::TraceEvent::kGlobalAborted
                                  : metrics::TraceEvent::kGlobalCompleted);
      tracer->add(metrics::TraceRecord{rec.finished_at, ev, 0, rec.run_id, -1,
                                       rec.real_deadline});
    }
  });
  pm.set_subtask_handler([&](const task::SimpleTask& t) {
    Span span(Layer::kCollector);
    collector.record_simple(t);
  });
  if (tracer != nullptr) {
    pm.set_submit_observer(
        [&engine, tracer](std::uint64_t run_id, sim::Time deadline) {
          Span span(Layer::kTracer);
          tracer->add(metrics::TraceRecord{engine.now(),
                                           metrics::TraceEvent::kGlobalSubmitted,
                                           0, run_id, -1, deadline});
        });
    for (auto& node : nodes) {
      const int node_index = node->index();
      node->set_observer([&engine, tracer, node_index](
                             sched::Node::Event e, const task::SimpleTask& t) {
        Span span(Layer::kTracer);
        tracer->add(metrics::TraceRecord{engine.now(),
                                         exp::detail::to_trace_event(e), t.id,
                                         t.owner_run, node_index,
                                         t.attrs.virtual_deadline});
      });
    }
  }

  // Locals go to the collector; subtasks to the process manager.
  auto route = [&collector](const task::TaskPtr& t, auto&& to_pm) {
    if (t->kind == task::TaskKind::kLocal) {
      Span span(Layer::kCollector);
      collector.record_simple(*t);
    } else {
      Span span(Layer::kPm);
      to_pm(t);
    }
  };
  for (auto& node : nodes) {
    node->set_completion_handler([&](const task::TaskPtr& t) {
      route(t, [&pm](const task::TaskPtr& x) { pm.handle_completion(x); });
    });
    node->set_abort_handler([&](const task::TaskPtr& t) {
      route(t, [&pm](const task::TaskPtr& x) { pm.handle_local_abort(x); });
    });
    node->set_failure_handler([&](const task::TaskPtr& t) {
      route(t, [&pm](const task::TaskPtr& x) { pm.handle_failure(x); });
    });
  }

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
    lc.id_base = exp::detail::local_id_base(i);
    lc.burst_factor = config.local_burst_factor;
    lc.burst_cycle = config.local_burst_cycle;
    lc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_local, config.service_cv);
    local_sources.push_back(std::make_unique<workload::LocalSource>(
        engine, *nodes[static_cast<std::size_t>(i)], collector,
        master.split(), lc));
    local_sources.back()->start();
  }

  const auto [gslack_min, gslack_max] = config.resolved_global_slack();
  std::unique_ptr<workload::ParallelGlobalSource> parallel_source;
  std::unique_ptr<workload::GraphGlobalSource> graph_source;
  if (config.global_kind == exp::GlobalKind::kParallel) {
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
    gc.placement = workload::make_placement(
        config.placement,
        std::vector<const sched::Node*>(node_ptrs.begin(), node_ptrs.end()));
    gc.burst_factor = config.global_burst_factor;
    gc.burst_cycle = config.global_burst_cycle;
    parallel_source = std::make_unique<workload::ParallelGlobalSource>(
        engine, pm, master.split(), gc);
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
        engine, pm, master.split(), gc);
    graph_source->start();
  }

  engine.run_until(config.sim_time);

  sda::exp::RunResult result;
  result.collector = std::move(collector);
  for (const auto& node : nodes) {
    result.node_counters.push_back(node->perf_counters());
  }
  result.events_fired = engine.events_fired();
  for (const auto& src : local_sources) {
    result.locals_generated += src->generated();
  }
  result.globals_generated =
      parallel_source ? parallel_source->generated()
                      : (graph_source ? graph_source->generated() : 0);
  result.globals_completed = pm.completed_runs();
  result.globals_aborted = pm.aborted_runs();
  return result;
}

}  // namespace perfbench
