// Self-tests of the benchmark itself:
//   * span self-time arithmetic is exact on a synthetic nested span set;
//   * a short mode of every workload passes its checks, untraced and traced;
//   * a perturbed simulator config fails the pinned-digest check;
//   * the metric names sda_perfbench prints are the ones BENCHMARK.json lists.
// Exit code 0 when every test passes.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "pb/spans.hpp"
#include "pb/workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_span_arithmetic() {
  using perfbench::Layer;
  perfbench::SpanStack st;
  // pm [0, 100) containing psp [10, 20) and edf [30, 70), edf containing
  // timer_queue [40, 45) and [50, 52); then a root timer_queue [200, 207).
  st.open(Layer::kPm, 0);
  st.open(Layer::kPsp, 10);
  st.close(20);
  st.open(Layer::kEdf, 30);
  st.open(Layer::kTimerQueue, 40);
  st.close(45);
  st.open(Layer::kTimerQueue, 50);
  st.close(52);
  st.close(70);
  st.close(100);
  st.open(Layer::kTimerQueue, 200);
  st.close(207);
  const perfbench::SpanTotals& t = st.totals();
  auto self = [&](Layer l) { return t.self_ns[static_cast<int>(l)]; };
  expect(self(Layer::kPm) == 100 - 10 - 40, "pm self = span - children");
  expect(self(Layer::kPsp) == 10, "leaf span self = its duration");
  expect(self(Layer::kEdf) == 40 - 5 - 2, "edf self excludes nested timer queue");
  expect(self(Layer::kTimerQueue) == 5 + 2 + 7, "timer queue self sums its spans");
  expect(t.spans[static_cast<int>(Layer::kTimerQueue)] == 3, "span counts");
  expect(t.covered_ns == 107, "covered = union of root spans");
  expect(t.self_sum_ns() == t.covered_ns, "self times add up to covered time");
}

perfbench::Outcome run(const std::string& workload, bool trace, bool perturb) {
  perfbench::RunArgs args;
  args.workload = workload;
  args.seed = 1;
  args.seconds = 1.0;
  args.trace = trace;
  args.short_mode = true;
  args.perturb = perturb;
  args.digests_path = std::string(PERFBENCH_SOURCE_DIR) + "/digests.txt";
  args.work_dir = ".perfbench_selftest";
  std::filesystem::create_directories(args.work_dir);
  perfbench::Outcome out;
  perfbench::Values values;
  if (perfbench::is_sim_workload(workload)) {
    perfbench::run_sim_part(args, 0.0, out, values);
  }
  if (!perturb) perfbench::run_serve_part(args, 0.0, out, values);
  return out;
}

void test_short_workloads() {
  for (const std::string& w : perfbench::workload_names()) {
    for (const bool trace : {false, true}) {
      const perfbench::Outcome out = run(w, trace, false);
      expect(out.correct && out.failed == 0 && out.attempted > 0,
             "short " + w + (trace ? " traced" : " untraced") + " passes its checks");
    }
  }
}

void test_perturbed_digest_fails() {
  for (const char* w : {"paper-baseline", "graph-heavy"}) {
    const perfbench::Outcome out = run(w, false, true);
    expect(!out.correct && out.failed > 0,
           std::string("perturbed ") + w + " config fails the digest check");
  }
}

void test_metric_names_match_benchmark_json() {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  expect(!json.empty(), "BENCHMARK.json readable");
  auto listed = [&](const std::string& name) {
    return json.find("\"name\": \"" + name + "\"") != std::string::npos;
  };
  for (const auto& m : perfbench::end_to_end_metrics()) {
    expect(listed(m.name), std::string("end-to-end metric listed: ") + m.name);
  }
  for (const auto& m : perfbench::per_layer_metrics()) {
    expect(listed(m.name), std::string("per-layer metric listed: ") + m.name);
  }
  for (const std::string& w : perfbench::workload_names()) {
    expect(listed(w), "workload listed: " + w);
  }
}

}  // namespace

int main() {
  test_span_arithmetic();
  test_metric_names_match_benchmark_json();
  test_perturbed_digest_fails();
  test_short_workloads();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
