#include "src/metrics/trace.hpp"

#include <sstream>

namespace sda::metrics {

const char* to_string(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kSubmitted: return "submit";
    case TraceEvent::kStarted: return "start";
    case TraceEvent::kPreempted: return "preempt";
    case TraceEvent::kCompleted: return "done";
    case TraceEvent::kAborted: return "abort";
    case TraceEvent::kFailed: return "fail";
    case TraceEvent::kGlobalSubmitted: return "global-submit";
    case TraceEvent::kGlobalCompleted: return "global-done";
    case TraceEvent::kGlobalAborted: return "global-abort";
    case TraceEvent::kGlobalShed: return "global-shed";
  }
  return "?";
}

void Tracer::append(const TraceRecord& rec) { ring_.push_back(rec); }

std::vector<TraceRecord> Tracer::records() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  const auto head = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  out.insert(out.end(), head, ring_.end());
  out.insert(out.end(), ring_.begin(), head);
  return out;
}

std::string Tracer::render() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  for (const TraceRecord& r : records()) {
    os << r.time << ' ' << to_string(r.event);
    if (r.task_id != 0) os << " task=" << r.task_id;
    if (r.run_id != 0) os << " run=" << r.run_id;
    if (r.node >= 0) os << " node=" << r.node;
    os << " dl=" << r.deadline << '\n';
  }
  return os.str();
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
  hash_ = util::kFnvOffsetBasis;
}

}  // namespace sda::metrics
