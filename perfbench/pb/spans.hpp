// Outside-in span accounting for the traced benchmark run.
//
// Spans are opened by the benchmark's own decorators around calls into a
// layer's public injection points (timer queue, node scheduler, PSP/SSP
// strategy, process-manager / collector / tracer handlers).  A layer's
// self time is its span's duration minus the part of that interval its
// child spans cover, so the self times of all layers plus the time no
// span covers (sim.engine.residual_s) add up to the traced wall time
// exactly: the arithmetic is on integer nanoseconds.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kTimerQueue,  ///< sim::TimerQueue push/pop/cancel/peek
  kEdf,         ///< sched::Scheduler push/pop/remove/peek
  kPsp,         ///< core::PspStrategy::assign
  kSsp,         ///< core::SspStrategy::assign
  kPm,          ///< core::ProcessManager handle_* calls from node handlers
  kCollector,   ///< metrics::Collector record_* calls from handlers
  kTracer,      ///< metrics::Tracer observers
  kCount
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

/// Metric-name stem of a layer ("sim.timer_queue", "sched.edf", ...).
const char* layer_name(Layer layer) noexcept;

/// Per-layer self time and span count, plus the time covered by
/// outermost spans.  Pure integer arithmetic.
struct SpanTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> spans{};
  std::int64_t covered_ns = 0;  ///< union of root spans on one thread

  std::int64_t self_sum_ns() const noexcept;
  void add(const SpanTotals& other) noexcept;
};

/// Nested spans of one thread.  open/close take explicit timestamps so the
/// arithmetic can be checked on synthetic span sets.
class SpanStack {
 public:
  void open(Layer layer, std::int64_t t_ns);
  /// Closes the innermost open span.  Requires depth() > 0.
  void close(std::int64_t t_ns);
  std::size_t depth() const noexcept { return stack_.size(); }
  const SpanTotals& totals() const noexcept { return totals_; }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;  ///< time covered by direct children
  };
  std::vector<Frame> stack_;
  SpanTotals totals_;
};

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) noexcept {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Process-wide recorder: each thread records into its own SpanStack while
/// recording is on; stop() merges every thread's totals.  Threads that
/// recorded must have finished their spans (joined) before stop().
class Recorder {
 public:
  static void start();
  static SpanTotals stop();
  /// The calling thread's stack, or nullptr when recording is off.
  static SpanStack* local();
};

/// RAII span on the calling thread; no-op when recording is off.
class Span {
 public:
  explicit Span(Layer layer) : stack_(Recorder::local()) {
    if (stack_ != nullptr) stack_->open(layer, now_ns());
  }
  ~Span() {
    if (stack_ != nullptr) stack_->close(now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack* stack_;
};

}  // namespace perfbench
