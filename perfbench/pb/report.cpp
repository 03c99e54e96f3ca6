#include "pb/report.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <chrono>
#include <functional>
#include <queue>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "pb/spans.hpp"
#include "src/metrics/task_class.hpp"
#include "src/util/fnv.hpp"

namespace perfbench {

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::fail_check(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Outcome::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += number(v[i]);
  }
  return s + "]";
}

namespace {

std::atomic<std::uint64_t> g_calibration_sink{0};  // keeps the kernel's work

// Slices of about 100 us: the fabric's windows are of that order.
constexpr int kSlices = 200;
constexpr int kStepsPerSlice = 800;
constexpr int kMicroSteps = 400;

}  // namespace

CalibrationKernel::CalibrationKernel(std::uint64_t seed)
    : x_(seed), table_(std::size_t{1} << 16) {  // 512 KiB
  for (int i = 0; i < 1024; ++i) heap_.push(unit());
}

CalibrationKernel::~CalibrationKernel() {
  g_calibration_sink.fetch_add(acc_, std::memory_order_relaxed);
}

std::uint64_t CalibrationKernel::next() {
  x_ ^= x_ << 13;
  x_ ^= x_ >> 7;
  x_ ^= x_ << 17;
  return x_;
}

double CalibrationKernel::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void CalibrationKernel::run(int steps) {
  for (int i = 0; i < steps; ++i) {
    const double t = heap_.top();
    heap_.pop();
    heap_.push(t + unit());
    std::uint64_t& cell = table_[next() & (table_.size() - 1)];
    cell += static_cast<std::uint64_t>(i);
    acc_ += cell;
  }
}

double calibration_s(int threads) {
  std::barrier sync(threads);
  auto work = [&sync](std::uint64_t seed) {
    CalibrationKernel kernel(seed);
    for (int slice = 0; slice < kSlices; ++slice) {
      kernel.run(kStepsPerSlice);
      sync.arrive_and_wait();
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) {
    workers.emplace_back(work, 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t));
  }
  work(0x9e3779b97f4a7c15ULL);
  for (std::thread& w : workers) w.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

ServiceKernel::ServiceKernel(std::string scratch_path)
    : path_(std::move(scratch_path)),
      fd_(::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)) {
  if (fd_ < 0) throw std::runtime_error("cannot open " + path_);
}

ServiceKernel::~ServiceKernel() {
  ::close(fd_);
  ::unlink(path_.c_str());
}

double ServiceKernel::run_s() {
  constexpr int kLines = 8'500;
  constexpr std::size_t kKeep = 4096;  // lines kept in the map
  const std::int64_t t0 = now_ns();
  ::lseek(fd_, 0, SEEK_SET);  // the file stays at one run's size
  std::string out;
  char line[112];
  for (int i = 0; i < kLines; ++i) {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    const int n = std::snprintf(
        line, sizeof line, "sub id=%llu at=%.6f deadline=%.3f tree=t@%d:%.3f\n",
        static_cast<unsigned long long>(x_ & 0xfffff),
        static_cast<double>(x_ >> 20) * 1e-9, static_cast<double>(x_ >> 40) * 1e-4,
        static_cast<int>(x_ & 15), static_cast<double>(x_ >> 50) * 1e-3);
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(line + 7, &end, 10);
    const double at = std::strtod(end + 4, &end);
    lines_.insert_or_assign(id, std::string(line, static_cast<std::size_t>(n)));
    if (lines_.size() > kKeep) lines_.erase(lines_.begin());
    if (at >= 0.0) out.append(line, static_cast<std::size_t>(n));
    if ((i & 15) == 15) {
      if (::write(fd_, out.data(), out.size()) < 0) {
        throw std::runtime_error("cannot write " + path_);
      }
      out.clear();
    }
  }
  return seconds_since(t0);
}

double HostSpeed::micro() {
  const std::int64_t t0 = now_ns();
  micro_kernel_.run(kMicroSteps);
  return seconds_since(t0) * (kSlices * kStepsPerSlice / kMicroSteps);
}

double peak_rss_mb() {
  // VmHWM, the peak of this address space.  getrusage's ru_maxrss is not
  // used: it keeps the peak of the process image before execve, so a
  // benchmark started from a larger parent would report the parent's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t model_digest(const sda::exp::RunResult& r) {
  std::uint64_t h = sda::util::kFnvOffsetBasis;
  for (const int cls : r.collector.classes()) {
    const sda::metrics::ClassCounts c = r.collector.counts(cls);
    sda::util::fnv1a_mix_value(h, cls);
    sda::util::fnv1a_mix_value(h, c.finished);
    sda::util::fnv1a_mix_value(h, c.missed);
    sda::util::fnv1a_mix_value(h, c.aborted);
    sda::util::fnv1a_mix_value(h, c.work_missed);
  }
  sda::util::fnv1a_mix_value(h, r.events_fired);
  sda::util::fnv1a_mix_value(h, r.globals_completed);
  sda::util::fnv1a_mix_value(h, r.globals_aborted);
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string pinned_digest(const std::string& path, const std::string& workload,
                          const std::string& part, std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, p, hex;
    std::uint64_t s = 0;
    if (fields >> w >> p >> s >> hex && w == workload && p == part &&
        s == seed) {
      return hex;
    }
  }
  return "";
}

}  // namespace perfbench
