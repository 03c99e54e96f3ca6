#include "pb/workloads.hpp"

namespace perfbench {

const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> names = {
      {"replication_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"serve_p50_us", "us"},
      {"serve_p99_us", "us"},
      {"serve_capacity_per_s", "1/s"},
      {"recovery_s", "s"},
  };
  return names;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> names = {
      {"sim.events_fired", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.timer_queue.push", "count"},
      {"sim.timer_queue.pop", "count"},
      {"sim.timer_queue.cancel", "count"},
      {"sim.timer_queue.self_s", "s"},
      {"sim.timer_queue.pending_max", "count"},
      {"sim.timer_queue.cancel_ratio", "ratio"},
      {"sched.edf.push", "count"},
      {"sched.edf.pop", "count"},
      {"sched.edf.remove", "count"},
      {"sched.edf.self_s", "s"},
      {"sched.edf.ready_max", "count"},
      {"core.sda.psp_assign", "count"},
      {"core.sda.psp_assign.self_s", "s"},
      {"core.sda.ssp_assign", "count"},
      {"core.sda.ssp_assign.self_s", "s"},
      {"core.pm.self_s", "s"},
      {"metrics.collector.self_s", "s"},
      {"metrics.tracer.self_s", "s"},
      {"metrics.tracer.overhead_s", "s"},
      {"sim.engine.residual_s", "s"},
      {"trace.wall_s", "s"},
      {"trace.thread_s", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"sim.fabric.speedup_vs_1shard", "ratio"},
      {"sim.fabric.cpu_utilization", "ratio"},
      {"workload.locals_generated", "count"},
      {"workload.globals_generated", "count"},
      {"exp.serve.handle_line_ns.p50", "ns"},
      {"exp.serve.handle_line_ns.p99", "ns"},
      {"exp.serve.samples", "count"},
      {"exp.serve.open_loop_p50_us", "us"},
      {"exp.serve.open_loop_p99_us", "us"},
      {"exp.serve.generator_late_p99_us", "us"},
      {"exp.protocol.parse_ns", "ns"},
      {"exp.net.overhead_us", "us"},
      {"exp.net.paced_p99_us", "us"},
      {"exp.net.flood_per_s", "1/s"},
      {"exp.journal.overhead_ns", "ns"},
      {"exp.journal.fsyncs", "count"},
      {"core.admission.decide_ns.p50", "ns"},
      {"core.admission.decide_ns.p99", "ns"},
      {"core.admission.admitted", "count"},
      {"core.admission.degraded", "count"},
      {"core.admission.rejected", "count"},
      {"core.admission.shed", "count"},
      {"core.admission.queued", "count"},
      {"core.admission.backpressure", "count"},
      {"core.plan_cache.hit_ratio", "ratio"},
      {"core.plan_cache.lookups", "count"},
      {"core.plan_cache.evictions", "count"},
  };
  return names;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-baseline", "graph-heavy", "wide-sharded", "serve-socket"};
  return names;
}

}  // namespace perfbench
