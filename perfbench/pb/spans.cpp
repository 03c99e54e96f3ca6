#include "pb/spans.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kTimerQueue: return "sim.timer_queue";
    case Layer::kEdf: return "sched.edf";
    case Layer::kPsp: return "core.sda.psp_assign";
    case Layer::kSsp: return "core.sda.ssp_assign";
    case Layer::kPm: return "core.pm";
    case Layer::kCollector: return "metrics.collector";
    case Layer::kTracer: return "metrics.tracer";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t SpanTotals::self_sum_ns() const noexcept {
  std::int64_t sum = 0;
  for (const std::int64_t v : self_ns) sum += v;
  return sum;
}

void SpanTotals::add(const SpanTotals& other) noexcept {
  for (int i = 0; i < kLayerCount; ++i) {
    self_ns[i] += other.self_ns[i];
    spans[i] += other.spans[i];
  }
  covered_ns += other.covered_ns;
}

void SpanStack::open(Layer layer, std::int64_t t_ns) {
  stack_.push_back(Frame{layer, t_ns, 0});
}

void SpanStack::close(std::int64_t t_ns) {
  if (stack_.empty()) throw std::logic_error("SpanStack::close: no open span");
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t_ns - f.start;
  const auto i = static_cast<std::size_t>(f.layer);
  totals_.self_ns[i] += duration - f.child;
  ++totals_.spans[i];
  if (stack_.empty()) {
    totals_.covered_ns += duration;
  } else {
    stack_.back().child += duration;
  }
}

namespace {

std::atomic<std::uint64_t> g_generation{0};  // 0 = recording off
std::uint64_t g_next_generation = 1;
std::mutex g_mu;
std::vector<std::unique_ptr<SpanStack>> g_stacks;  // guarded by g_mu

struct ThreadSlot {
  std::uint64_t generation = 0;
  SpanStack* stack = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

void Recorder::start() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_stacks.clear();
  g_generation.store(g_next_generation++, std::memory_order_release);
}

SpanTotals Recorder::stop() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_generation.store(0, std::memory_order_release);
  SpanTotals total;
  for (const auto& s : g_stacks) {
    if (s->depth() != 0) throw std::logic_error("Recorder::stop: open span");
    total.add(s->totals());
  }
  g_stacks.clear();
  return total;
}

SpanStack* Recorder::local() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (gen == 0) return nullptr;
  if (t_slot.generation != gen) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_stacks.push_back(std::make_unique<SpanStack>());
    t_slot.stack = g_stacks.back().get();
    t_slot.generation = gen;
  }
  return t_slot.stack;
}

}  // namespace perfbench
