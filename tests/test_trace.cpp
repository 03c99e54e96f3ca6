// Tests for the trace subsystem and the whole-run determinism fingerprint.
#include "src/metrics/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/exp/runner.hpp"
#include "src/sched/edf.hpp"
#include "src/sim/engine.hpp"

namespace {

using namespace sda;
using metrics::TraceEvent;
using metrics::Tracer;
using metrics::TraceRecord;

TEST(Tracer, RecordsInOrder) {
  Tracer t;
  t.add(TraceRecord{1.0, TraceEvent::kSubmitted, 7, 0, 2, 5.0});
  t.add(TraceRecord{2.0, TraceEvent::kStarted, 7, 0, 2, 5.0});
  t.add(TraceRecord{3.0, TraceEvent::kCompleted, 7, 0, 2, 5.0});
  ASSERT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t.records()[1].event, TraceEvent::kStarted);
}

TEST(Tracer, RingBufferEvictsOldButKeepsFingerprint) {
  Tracer bounded(2);
  Tracer unbounded;
  for (int i = 0; i < 10; ++i) {
    const TraceRecord rec{static_cast<double>(i), TraceEvent::kSubmitted,
                          static_cast<std::uint64_t>(i + 1), 0, 0, 1.0};
    bounded.add(rec);
    unbounded.add(rec);
  }
  EXPECT_EQ(bounded.records().size(), 2u);
  EXPECT_EQ(bounded.total(), 10u);
  EXPECT_DOUBLE_EQ(bounded.records().front().time, 8.0);
  // Eviction never changes the fingerprint.
  EXPECT_EQ(bounded.fingerprint(), unbounded.fingerprint());
}

// Fingerprint v2 of a fixed stream, computed independently of the C++ code:
//
//   import struct
//   M, P, h = (1 << 64) - 1, 0x100000001b3, 0xcbf29ce484222325
//   bits = lambda d: struct.unpack('<Q', struct.pack('<d', d))[0]
//   for t, e, task, run, node, dl in [(1.0, 0, 7, 0, 2, 5.0),
//                                     (2.5, 1, 7, 3, 2, 5.0),
//                                     (4.0, 7, 0, 3, -1, 12.0)]:
//       for w in (bits(t), (e << 32) | (node & 0xffffffff), task, run,
//                 bits(dl)):
//           h = ((h ^ w) * P) & M
//   print(hex(h))  # 0x7d713530b0c5f384
TEST(Tracer, FingerprintV2KnownAnswer) {
  Tracer t(1);
  t.add(TraceRecord{1.0, TraceEvent::kSubmitted, 7, 0, 2, 5.0});
  t.add(TraceRecord{2.5, TraceEvent::kStarted, 7, 3, 2, 5.0});
  t.add(TraceRecord{4.0, TraceEvent::kGlobalCompleted, 0, 3, -1, 12.0});
  EXPECT_EQ(t.fingerprint(), 0x7d713530b0c5f384ULL);
}

std::uint64_t fingerprint_of(const TraceRecord& rec) {
  Tracer t(1);
  t.add(rec);
  return t.fingerprint();
}

TEST(Tracer, FingerprintSensitiveToContent) {
  const TraceRecord base{1.0, TraceEvent::kStarted, 7, 3, 2, 5.0};
  const std::uint64_t fp = fingerprint_of(base);
  TraceRecord r = base;
  r.time = 1.5;
  EXPECT_NE(fingerprint_of(r), fp) << "time";
  r = base;
  r.event = TraceEvent::kCompleted;
  EXPECT_NE(fingerprint_of(r), fp) << "event";
  r = base;
  r.task_id = 8;
  EXPECT_NE(fingerprint_of(r), fp) << "task_id";
  r = base;
  r.run_id = 4;
  EXPECT_NE(fingerprint_of(r), fp) << "run_id";
  r = base;
  r.node = 3;
  EXPECT_NE(fingerprint_of(r), fp) << "node";
  r = base;
  r.deadline = 5.5;
  EXPECT_NE(fingerprint_of(r), fp) << "deadline";

  // Global-run records carry node -1; it must not hash like node 0.
  const TraceRecord global{1.0, TraceEvent::kGlobalSubmitted, 0, 3, -1, 5.0};
  TraceRecord node0 = global;
  node0.node = 0;
  EXPECT_NE(fingerprint_of(global), fingerprint_of(node0)) << "node -1 vs 0";

  // event and node share one word; swapping their values must not collide.
  const TraceRecord started_on_3{1.0, TraceEvent::kStarted, 7, 0, 3, 5.0};
  const TraceRecord done_on_1{1.0, TraceEvent::kCompleted, 7, 0, 1, 5.0};
  EXPECT_NE(fingerprint_of(started_on_3), fingerprint_of(done_on_1))
      << "event/node swap";
}

// Adds records with times 0..n-1 and returns the kept times, oldest first.
std::vector<double> kept_times(Tracer& t, int n) {
  for (int i = 0; i < n; ++i) {
    t.add(TraceRecord{static_cast<double>(i), TraceEvent::kSubmitted,
                      static_cast<std::uint64_t>(i + 1), 0, 0, 1.0});
  }
  std::vector<double> times;
  for (const TraceRecord& r : t.records()) times.push_back(r.time);
  return times;
}

TEST(Tracer, RingKeepsNewestOldestFirstAfterWrap) {
  Tracer one(1);
  EXPECT_EQ(kept_times(one, 5), (std::vector<double>{4.0}));
  Tracer three(3);
  EXPECT_EQ(kept_times(three, 2), (std::vector<double>{0.0, 1.0}));  // filling
  Tracer wrapped(3);
  EXPECT_EQ(kept_times(wrapped, 7), (std::vector<double>{4.0, 5.0, 6.0}));
  Tracer exact(3);
  EXPECT_EQ(kept_times(exact, 6), (std::vector<double>{3.0, 4.0, 5.0}));
  Tracer unbounded;
  EXPECT_EQ(kept_times(unbounded, 5),
            (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
}

TEST(Tracer, ClearResets) {
  Tracer t;
  const auto empty_fp = t.fingerprint();
  t.add(TraceRecord{});
  t.clear();
  EXPECT_EQ(t.records().size(), 0u);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(t.fingerprint(), empty_fp);

  // A wrapped ring starts over at slot 0: records stay oldest first.
  Tracer ring(3);
  kept_times(ring, 4);
  ring.clear();
  EXPECT_EQ(kept_times(ring, 2), (std::vector<double>{0.0, 1.0}));
}

TEST(Tracer, RenderMentionsEventsAndIds) {
  Tracer t;
  t.add(TraceRecord{1.5, TraceEvent::kAborted, 42, 9, 3, 5.0});
  const std::string out = t.render();
  EXPECT_NE(out.find("abort"), std::string::npos);
  EXPECT_NE(out.find("task=42"), std::string::npos);
  EXPECT_NE(out.find("run=9"), std::string::npos);
  EXPECT_NE(out.find("node=3"), std::string::npos);
}

TEST(Tracer, EventNames) {
  EXPECT_STREQ(to_string(TraceEvent::kSubmitted), "submit");
  EXPECT_STREQ(to_string(TraceEvent::kGlobalAborted), "global-abort");
}

TEST(NodeObserver, LifecycleSequence) {
  sim::Engine engine;
  sched::Node node(engine, std::make_unique<sched::EdfScheduler>(), {});
  std::vector<sched::Node::Event> events;
  node.set_observer([&](sched::Node::Event e, const task::SimpleTask&) {
    events.push_back(e);
  });
  node.submit(task::make_local_task(1, 0, 0.0, 1.0, 5.0));
  engine.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], sched::Node::Event::kSubmitted);
  EXPECT_EQ(events[1], sched::Node::Event::kStarted);
  EXPECT_EQ(events[2], sched::Node::Event::kCompleted);
}

TEST(NodeObserver, AbortEventOnExternalAbort) {
  sim::Engine engine;
  sched::Node node(engine, std::make_unique<sched::EdfScheduler>(), {});
  std::vector<sched::Node::Event> events;
  node.set_observer([&](sched::Node::Event e, const task::SimpleTask&) {
    events.push_back(e);
  });
  auto t = task::make_local_task(1, 0, 0.0, 10.0, 5.0);
  node.submit(t);
  engine.at(1.0, [&] { node.abort(*t); });
  engine.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back(), sched::Node::Event::kAborted);
}

TEST(RunDeterminism, SameSeedSameFingerprint) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 3000.0;
  c.psp = "div-1";
  Tracer a(64), b(64);
  exp::run_once(c, 42, &a);
  exp::run_once(c, 42, &b);
  EXPECT_GT(a.total(), 10000u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.total(), b.total());
}

TEST(RunDeterminism, DifferentSeedDifferentFingerprint) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 1000.0;
  Tracer a(64), b(64);
  exp::run_once(c, 1, &a);
  exp::run_once(c, 2, &b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(RunDeterminism, StrategyChangesTrace) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 1000.0;
  Tracer a(64), b(64);
  exp::run_once(c, 1, &a);
  c.psp = "gf";
  exp::run_once(c, 1, &b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());  // deadlines differ
}

}  // namespace
