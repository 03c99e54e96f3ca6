// The timer-queue backend registry (src/sim/timer_queue.*): built-in
// "heap" lookup, case-insensitive names, did-you-mean errors, and the
// end-to-end path from ExperimentConfig's `timer_queue=` key to every
// engine of a run, serial and sharded.  The heap itself is covered by
// test_event_queue.
//
// This test runs under ThreadSanitizer in scripts/check_sanitizers.sh
// (the tsan ctest preset includes it), so keep the horizons short.
#include "src/sim/timer_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/trace.hpp"

namespace {

using namespace sda;
using sim::EventId;
using sim::Time;
using sim::TimerQueue;

std::unique_ptr<TimerQueue> make(const std::string& name) {
  return sim::make_timer_queue(name);
}

// --- registry ---------------------------------------------------------------

TEST(TimerQueueRegistry, ListsBuiltins) {
  const std::vector<std::string> names = sim::list_timer_queue_names();
  ASSERT_GE(names.size(), 1u);
  EXPECT_NE(std::find(names.begin(), names.end(), "heap"), names.end());
}

TEST(TimerQueueRegistry, CaseInsensitive) {
  EXPECT_STREQ(make("HEAP")->backend_name(), "heap");
  EXPECT_STREQ(make("Heap")->backend_name(), "heap");
}

TEST(TimerQueueRegistry, UnknownNameListsBackendsAndSuggests) {
  try {
    make("heep");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("heep"), std::string::npos) << what;
    EXPECT_NE(what.find("heap"), std::string::npos) << what;
  }
}

// --- end-to-end fingerprint identity ----------------------------------------

std::uint64_t fingerprint_of(exp::ExperimentConfig c, const std::string& tq,
                             int shards, std::uint64_t seed) {
  c.timer_queue = tq;
  c.shards = shards;
  metrics::Tracer tracer(1);  // rolling fingerprint only
  (void)exp::run_once(c, seed, &tracer);
  return tracer.fingerprint();
}

/// A registered backend reaches every engine of a run through the
/// `timer_queue=` key and, delegating to the heap, leaves the run's
/// fingerprint untouched.  Instances built per run: validate()'s name
/// probe, plus one engine serially or one engine per shard on the fabric.
TEST(TimerQueueFingerprint, RegisteredBackendReachesEveryEngine) {
  static std::atomic<int> built{0};
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_timer_queue(
        "counted-heap", [](const std::string&) -> std::unique_ptr<TimerQueue> {
          ++built;
          return make("heap");
        });
  });
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 60.0;  // short horizon: this also runs under TSan
  c.k = 8;
  c.replications = 1;
  for (const std::uint64_t seed : {1ULL, 42ULL}) {
    const std::uint64_t heap_serial = fingerprint_of(c, "heap", 1, seed);
    built = 0;
    EXPECT_EQ(fingerprint_of(c, "counted-heap", 1, seed), heap_serial)
        << "serial, seed=" << seed;
    EXPECT_EQ(built.load(), 1 + 1);
    built = 0;
    EXPECT_EQ(fingerprint_of(c, "counted-heap", 4, seed), heap_serial)
        << "shards=4, seed=" << seed;
    EXPECT_EQ(built.load(), 1 + 4);
  }
}

}  // namespace
