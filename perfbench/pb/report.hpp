// Result record of one benchmark run, statistics helpers, and the model
// digest that pins a replication's simulated outcome.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exp/runner.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints as its last line: correctness, operation counts and
/// the metrics of the requested kind.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check and prints why on stderr.
  void fail_check(const std::string& why);
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string json() const;
};


/// Median of @p v (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);
/// "[a, b, ...]", every value with all its digits.
std::string json_list(const std::vector<double>& v);

/// Host-speed calibration.  Wall times on a shared virtualised host drift
/// by +-20 % within minutes, and switch between speed modes about 40 %
/// apart within seconds, as neighbours load the machine.  A fixed CPU
/// kernel that does not use the simulator (a 1,024-entry binary heap of
/// timestamps plus random updates of a 512 KiB table, the access pattern
/// of a discrete-event loop, small enough not to move the peak RSS) runs
/// before and after every timed operation, and the operation is rescaled
/// to a host on which the kernel takes kCalibrationNominalS.
inline constexpr double kCalibrationNominalS = 0.02;

/// The kernel's work and state: a xorshift generator, the heap and the
/// table.
class CalibrationKernel {
 public:
  explicit CalibrationKernel(std::uint64_t seed);
  ~CalibrationKernel();
  CalibrationKernel(const CalibrationKernel&) = delete;
  CalibrationKernel& operator=(const CalibrationKernel&) = delete;
  void run(int steps);

 private:
  std::uint64_t next();
  double unit();

  std::uint64_t x_;
  std::uint64_t acc_ = 0;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap_;
  std::vector<std::uint64_t> table_;
};

/// Wall seconds of one run of the calibration kernel on @p threads
/// threads in lockstep (a barrier after every slice of work), the shape of
/// the sharded fabric's windows: a stall of any one CPU delays all.
double calibration_s(int threads = 1);

/// A second kernel with the admission service's character: it formats and
/// parses protocol-like lines, keeps them in a hash map, and appends them
/// to a scratch file in small writes.  About 20 ms on the reference host.
class ServiceKernel {
 public:
  /// Writes to (and at the end removes) the file @p scratch_path.
  explicit ServiceKernel(std::string scratch_path);
  ~ServiceKernel();
  ServiceKernel(const ServiceKernel&) = delete;
  ServiceKernel& operator=(const ServiceKernel&) = delete;
  /// One run; returns its wall seconds.
  double run_s();

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t x_ = 0x853c49e6748fea9bULL;
  std::unordered_map<std::uint64_t, std::string> lines_;
};

/// Runs the kernel between the timed operations of a measurement.
class HostSpeed {
 public:
  explicit HostSpeed(int threads = 1) : threads_(threads), last_s_(run()) {}
  /// With a service kernel too: each kernel time is the geometric mean of
  /// the two kernels' times.  The service's operations slow down by more
  /// than the event-loop kernel when the host changes mode, and by less
  /// than the service kernel, whose own run-to-run noise is larger.
  HostSpeed(int threads, std::string service_scratch)
      : threads_(threads),
        service_(std::make_unique<ServiceKernel>(std::move(service_scratch))),
        last_s_(run()) {}
  /// Call right after a timed operation: runs the kernel again and returns
  /// the mean of the two runs that bracket the operation.
  double bracket() {
    const double before = last_s_;
    last_s_ = run();
    return 0.5 * (before + last_s_);
  }
  /// Runs 1/400 of the kernel on this thread (about 50 us) and returns its
  /// wall time times 400.  The host switches between speed modes every few
  /// milliseconds, so an operation of microseconds is normalized by micro
  /// runs interleaved with it rather than by bracket().
  double micro();

 private:
  double run() {
    const double loop_s = calibration_s(threads_);
    return service_ ? std::sqrt(loop_s * service_->run_s()) : loop_s;
  }

  int threads_;
  std::unique_ptr<ServiceKernel> service_;
  double last_s_;
  CalibrationKernel micro_kernel_{0x2545f4914f6cdd1dULL};
};

/// Values of one measured quantity, each with the kernel time bracketing
/// the operation that produced it.
class Series {
 public:
  void add(double value, double kernel_s) {
    raw_.push_back(value);
    scaled_.push_back(value * kCalibrationNominalS / kernel_s);
  }
  /// Median of the host-normalized values.
  double median_scaled() const { return median(scaled_); }
  double median_raw() const { return median(raw_); }
  const std::vector<double>& raw() const { return raw_; }
  bool empty() const { return raw_.empty(); }

 private:
  std::vector<double> raw_, scaled_;
};

/// Times @p n runs of @p op (which returns its wall seconds), each followed
/// by a micro run of the kernel, and adds the median run to @p series,
/// normalized by the median micro run.
template <class Op>
void add_interleaved(Series& series, HostSpeed& speed, int n, Op op) {
  std::vector<double> runs, kernel;
  for (int i = 0; i < n; ++i) {
    runs.push_back(op());
    kernel.push_back(speed.micro());
  }
  series.add(median(runs), median(kernel));
}

/// Peak resident set of this process's address space, in MiB.
double peak_rss_mb();
/// CPU seconds (user + system) this process has used.
double process_cpu_s();

/// FNV-1a digest of a replication's simulated outcome: per-class
/// finished/missed/aborted counts and missed work, events fired, and
/// global runs completed/aborted.  Independent of tracer format.
std::uint64_t model_digest(const sda::exp::RunResult& r);
std::string hex64(std::uint64_t v);

/// Pinned digests, one line each: `<workload> <part> <seed> <hex>`.
/// Returns "" when (workload, part, seed) is not pinned.
std::string pinned_digest(const std::string& path, const std::string& workload,
                          const std::string& part, std::uint64_t seed);

}  // namespace perfbench
