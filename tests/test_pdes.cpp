// Conservative time-window PDES (src/sim/fabric.*, exp/runner's fabric wiring):
// the tentpole contract is that one replication's determinism fingerprint
// is bit-identical at every shard count — shards=1 (the original serial
// engine) and shards in {2, 4, 8} (the message fabric) must produce the
// same trace, for every PSP x SSP pair, with and without faults, at zero
// and nonzero lookahead.  Also unit-covers the fabric's building blocks
// (PathKey ordering, CrossShardQueue, NodeStatusBoard).
//
// This test runs under ThreadSanitizer in scripts/check_sanitizers.sh
// (the tsan ctest preset includes it), so keep the horizons short: TSan
// multiplies runtime ~10x.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/trace.hpp"
#include "src/sim/fabric.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace sda;
using exp::ExperimentConfig;

struct RunSummary {
  std::uint64_t fingerprint = 0;
  std::uint64_t locals_generated = 0;
  std::uint64_t globals_generated = 0;
  std::uint64_t globals_completed = 0;
  std::uint64_t globals_aborted = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t fault_retries = 0;
};

/// One replication at the given shard count; everything compared across
/// shard counts must live in here.  (events_fired is deliberately absent:
/// the fabric schedules one extra event per cross-lane message, so the
/// raw event count is not shard-invariant — the *trace* is.)
RunSummary run_at(ExperimentConfig c, int shards, std::uint64_t seed) {
  c.shards = shards;
  metrics::Tracer tracer(1);  // rolling fingerprint only
  const exp::RunResult r = exp::run_once(c, seed, &tracer);
  RunSummary s;
  s.fingerprint = tracer.fingerprint();
  s.locals_generated = r.locals_generated;
  s.globals_generated = r.globals_generated;
  s.globals_completed = r.globals_completed;
  s.globals_aborted = r.globals_aborted;
  s.node_crashes = r.node_crashes;
  s.transient_failures = r.transient_failures;
  s.fault_retries = r.fault_retries;
  return s;
}

void expect_shard_invariant(const ExperimentConfig& c, std::uint64_t seed,
                            const std::vector<int>& shard_counts,
                            const std::string& label) {
  const RunSummary ref = run_at(c, shard_counts.front(), seed);
  EXPECT_GT(ref.locals_generated + ref.globals_generated, 0u) << label;
  for (std::size_t i = 1; i < shard_counts.size(); ++i) {
    const int s = shard_counts[i];
    const RunSummary got = run_at(c, s, seed);
    EXPECT_EQ(got.fingerprint, ref.fingerprint)
        << label << ": shards=" << s << " vs shards=" << shard_counts.front();
    EXPECT_EQ(got.locals_generated, ref.locals_generated) << label << " s=" << s;
    EXPECT_EQ(got.globals_generated, ref.globals_generated) << label << " s=" << s;
    EXPECT_EQ(got.globals_completed, ref.globals_completed) << label << " s=" << s;
    EXPECT_EQ(got.globals_aborted, ref.globals_aborted) << label << " s=" << s;
    EXPECT_EQ(got.node_crashes, ref.node_crashes) << label << " s=" << s;
    EXPECT_EQ(got.transient_failures, ref.transient_failures) << label << " s=" << s;
    EXPECT_EQ(got.fault_retries, ref.fault_retries) << label << " s=" << s;
  }
}

/// k=8 so every shard count in {1, 2, 4, 8} divides the lanes evenly (and
/// 8 is a legal shard count at all: shards <= node count).
ExperimentConfig pdes_base() {
  ExperimentConfig c = exp::baseline_config();
  c.k = 8;
  c.sim_time = 300.0;
  c.replications = 1;
  c.warmup_fraction = 0.05;
  return c;
}

// --- the tentpole matrix: every strategy pair, every shard count ----------

TEST(PdesDeterminism, AllStrategyPairsAllShardCounts) {
  const char* psps[] = {"ud", "div-2", "div-4", "gf"};
  const char* ssps[] = {"ud", "ed", "eqs", "eqf"};
  for (const char* psp : psps) {
    for (const char* ssp : ssps) {
      ExperimentConfig c = pdes_base();
      c.psp = psp;
      c.ssp = ssp;
      expect_shard_invariant(c, 12345, {1, 2, 4, 8},
                             std::string(psp) + "/" + ssp);
    }
  }
}

// --- abortion regimes ------------------------------------------------------

TEST(PdesDeterminism, PmAbortAndLocalAbortRegimes) {
  ExperimentConfig c = pdes_base();
  c.psp = "gf";
  c.ssp = "ed";
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  c.load = 0.8;  // enough pressure that aborts actually happen
  expect_shard_invariant(c, 777, {1, 2, 4, 8}, "abort-regimes");
}

// --- seeded faults ---------------------------------------------------------

TEST(PdesDeterminism, SeededFaultsAndRecovery) {
  ExperimentConfig c = pdes_base();
  c.fault_rate = 0.05;
  c.crash_mean_uptime = 120.0;
  c.crash_mean_downtime = 15.0;
  c.retry_backoff_base = 0.5;
  c.retry_backoff_factor = 2.0;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  expect_shard_invariant(c, 4242, {1, 2, 4, 8}, "faults");
}

TEST(PdesDeterminism, GraphWorkloadWithLinksAndMessageFaults) {
  ExperimentConfig c = exp::graph_config();
  c.k = 6;
  c.link_count = 2;  // 8 lanes total
  c.msg_loss_rate = 0.03;
  c.msg_extra_delay_mean = 0.05;
  c.sim_time = 300.0;
  c.replications = 1;
  expect_shard_invariant(c, 99, {1, 2, 4, 8}, "graph+links");
}

// --- lookahead -------------------------------------------------------------

// net_latency > 0 changes the *model* (control-plane messages arrive
// late), so the reference here is shards=1 in message mode — the window
// protocol with one worker — and the claim is shard-invariance at equal
// latency, not equality with latency 0.
TEST(PdesDeterminism, PositiveLookaheadIsShardInvariant) {
  ExperimentConfig c = pdes_base();
  c.net_latency = 0.5;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  // 3 shards split the 8 lanes unevenly (3, 3 and 2 lanes).
  expect_shard_invariant(c, 2024, {1, 2, 3, 4, 8}, "latency=0.5");
}

// The window sequence is a function of the model and the lookahead, not
// of the shard count or of how many barriers a window crosses; so is the
// number of cross-lane messages.  The pinned values are the counts of
// the original three-barrier window loop on this config and seed.
TEST(PdesDeterminism, WindowAndMessageCountsAreShardInvariant) {
  constexpr std::uint64_t kPinnedWindows = 512;
  constexpr std::uint64_t kPinnedMessages = 540;
  ExperimentConfig c = pdes_base();
  c.net_latency = 0.5;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  for (const int shards : {1, 2, 3, 4, 8}) {
    c.shards = shards;
    metrics::Tracer tracer(1);
    const exp::RunResult r = exp::run_once(c, 2024, &tracer);
    EXPECT_EQ(r.fabric_windows, kPinnedWindows) << "shards=" << shards;
    EXPECT_EQ(r.fabric_messages, kPinnedMessages) << "shards=" << shards;
  }
}

// Zero lookahead must degrade to per-timestamp rounds, not deadlock; this
// completing at all (under load, with message traffic) is the regression
// test for the L=0 window rule.
TEST(PdesDeterminism, ZeroLookaheadCompletesWithoutDeadlock) {
  ExperimentConfig c = pdes_base();
  c.load = 0.7;
  const RunSummary s = run_at(c, 8, 31337);
  EXPECT_GT(s.globals_completed, 0u);
}

// --- run_experiment dispatch ----------------------------------------------

TEST(PdesDeterminism, RunExperimentMatchesSerialReport) {
  ExperimentConfig c = pdes_base();
  c.replications = 2;
  util::ThreadPool pool(2);

  std::vector<std::uint64_t> serial_fps;
  c.shards = 1;
  const metrics::Report serial = exp::run_experiment(c, pool, &serial_fps);

  std::vector<std::uint64_t> sharded_fps;
  c.shards = 4;
  const metrics::Report sharded = exp::run_experiment(c, pool, &sharded_fps);

  ASSERT_EQ(serial_fps.size(), 2u);
  EXPECT_EQ(serial_fps, sharded_fps);
  // Same records in, same aggregates out.
  EXPECT_EQ(serial.overall_missed_work().mean,
            sharded.overall_missed_work().mean);  // sda-lint: allow(FLOAT_EQ)
}

/// Everything a replication's Collector counts for one class.
struct ClassTotals {
  std::uint64_t finished = 0;
  std::uint64_t missed = 0;
  std::uint64_t aborted = 0;
  double work_total = 0.0;
  double work_missed = 0.0;
  bool operator==(const ClassTotals&) const = default;
};

std::map<int, ClassTotals> class_totals(const metrics::Collector& col) {
  std::map<int, ClassTotals> out;
  for (const int cls : col.classes()) {
    const metrics::ClassCounts k = col.counts(cls);
    out[cls] = {k.finished, k.missed, k.aborted, k.work_total, k.work_missed};
  }
  return out;
}

/// run_experiment at every shard count against shards=1: equal
/// fingerprints, equal per-class finished/missed/aborted counts and work
/// sums in every replication (the replay feeds each record to the
/// Collector in the same order, so the sums agree bit for bit), and equal
/// report aggregates.
void expect_report_matches_serial(ExperimentConfig c,
                                  const std::vector<int>& shard_counts,
                                  const std::string& label) {
  c.replications = 2;
  util::ThreadPool pool(2);
  auto per_replication = [&c] {
    std::vector<std::map<int, ClassTotals>> out;
    for (int rep = 0; rep < c.replications; ++rep) {
      const exp::RunResult r =
          exp::run_once(c, exp::replication_seed(c.seed, rep), nullptr);
      out.push_back(class_totals(r.collector));
    }
    return out;
  };

  std::vector<std::uint64_t> serial_fps;
  c.shards = 1;
  const metrics::Report serial = exp::run_experiment(c, pool, &serial_fps);
  const auto serial_totals = per_replication();
  ASSERT_EQ(serial_fps.size(), 2u) << label;
  ASSERT_FALSE(serial.classes().empty()) << label;

  for (const int shards : shard_counts) {
    std::vector<std::uint64_t> sharded_fps;
    c.shards = shards;
    const metrics::Report sharded = exp::run_experiment(c, pool, &sharded_fps);
    EXPECT_EQ(serial_fps, sharded_fps) << label << " shards=" << shards;
    EXPECT_EQ(per_replication(), serial_totals)
        << label << " shards=" << shards;
    EXPECT_EQ(serial.overall_missed_work().mean,
              sharded.overall_missed_work().mean)  // sda-lint: allow(FLOAT_EQ)
        << label << " shards=" << shards;
    ASSERT_EQ(serial.classes(), sharded.classes()) << label;
    for (const int cls : serial.classes()) {
      const metrics::ClassSummary a = serial.summary(cls);
      const metrics::ClassSummary b = sharded.summary(cls);
      EXPECT_GT(a.finished_total, 0u) << label << " class " << cls;
      EXPECT_EQ(a.finished_total, b.finished_total)
          << label << " shards=" << shards << " class " << cls;
      EXPECT_EQ(a.miss_rate.mean, b.miss_rate.mean)  // sda-lint: allow(FLOAT_EQ)
          << label << " shards=" << shards << " class " << cls;
    }
  }
}

// At positive lookahead every record of a window is settled when the
// next window starts, so the replay merges the per-shard runs with no
// pending frontier; shards=1 is the one-worker message-mode reference.
// Whichever shard finishes its run phase first replays, so uneven lane
// splits (3 shards over 8 lanes) and more shards than CPUs (8) move the
// replay between threads from window to window.
TEST(PdesDeterminism, RunExperimentMatchesSerialReportAtPositiveLookahead) {
  ExperimentConfig c = pdes_base();
  c.net_latency = 0.5;
  expect_report_matches_serial(c, {2, 3, 4, 8}, "parallel");

  ExperimentConfig g = exp::graph_config();
  g.k = 6;
  g.link_count = 2;  // 8 lanes total
  g.sim_time = 300.0;
  g.net_latency = 0.5;
  g.pm_abort = core::PmAbortMode::kRealDeadline;
  expect_report_matches_serial(g, {2, 3, 4, 8}, "graph pm_abort=real-deadline");
}

// --- fabric building blocks ------------------------------------------------

TEST(PathKey, LexicographicOrderIsDepthFirst) {
  sim::PathKey root;
  root.push(7);
  const sim::PathKey c0 = root.child(0);
  const sim::PathKey c1 = root.child(1);
  const sim::PathKey c0c0 = c0.child(0);
  // A parent's nested emissions sort between it and its next sibling —
  // exactly the serial engine's synchronous-call (depth-first) order.
  EXPECT_LT(root, c0);
  EXPECT_LT(c0, c0c0);
  EXPECT_LT(c0c0, c1);
  EXPECT_FALSE(c1 < c0);
  EXPECT_FALSE(root < root);
}

TEST(PathKey, PushBeyondMaxDepthThrows) {
  sim::PathKey k;
  for (int i = 0; i < sim::PathKey::kMaxDepth; ++i) k.push(1);
  EXPECT_EQ(k.depth(), sim::PathKey::kMaxDepth);
  const sim::PathKey full = k;
  EXPECT_THROW(k.push(1), std::logic_error);
  EXPECT_THROW(k.push(0), std::logic_error);
  EXPECT_EQ(k, full);  // a rejected push leaves the key as it was
}

TEST(PathKey, CounterAboveDomainThrows) {
  sim::PathKey k;
  k.push(~std::uint64_t{0});  // the root takes any 64-bit value
  k.push(sim::PathKey::kMaxCounter);
  EXPECT_EQ(k.depth(), 2);
  const sim::PathKey at_limit = k;
  EXPECT_THROW(k.push(sim::PathKey::kMaxCounter + 1), std::logic_error);
  EXPECT_THROW(k.push(~std::uint64_t{0}), std::logic_error);
  EXPECT_EQ(k, at_limit);
  // At the limit the packing still orders siblings, and a child's nested
  // emissions before its next sibling.
  sim::PathKey root;
  root.push(~std::uint64_t{0});
  EXPECT_LT(root.child(sim::PathKey::kMaxCounter - 1),
            root.child(sim::PathKey::kMaxCounter));
  EXPECT_LT(root.child(sim::PathKey::kMaxCounter - 1).child(
                sim::PathKey::kMaxCounter),
            root.child(sim::PathKey::kMaxCounter));
}

// --- compact key order against the uncompressed reference ---------------

using Path = std::vector<std::uint64_t>;

sim::PathKey key_of(const Path& p) {
  sim::PathKey k;
  for (const std::uint64_t v : p) k.push(v);
  return k;
}

/// The order the compact key must reproduce: element-wise lexicographic,
/// a prefix before its extensions (what the 104-byte key compared).
bool reference_less(const Path& a, const Path& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

/// A random path inside the key domain.  Small value ranges make equal
/// elements (and so long common prefixes) common; the boundary values
/// exercise the packing's top and bottom bits.
Path random_path(util::Rng& rng, int min_depth) {
  const int depth =
      static_cast<int>(rng.uniform_int(min_depth, sim::PathKey::kMaxDepth));
  Path p;
  if (depth == 0) return p;
  constexpr std::uint64_t kRoots[] = {0, 1, 2, std::uint64_t{1} << 44,
                                      ~std::uint64_t{0}};
  p.push_back(rng.bernoulli(0.5)
                  ? kRoots[rng.uniform_int(0, 4)]
                  : static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
  while (static_cast<int>(p.size()) < depth) {
    const double u = rng.uniform01();
    p.push_back(u < 0.8   ? static_cast<std::uint64_t>(rng.uniform_int(0, 3))
                : u < 0.9 ? sim::PathKey::kMaxCounter
                          : static_cast<std::uint64_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(
                                       sim::PathKey::kMaxCounter))));
  }
  return p;
}

void expect_same_order(const Path& a, const Path& b) {
  const sim::PathKey ka = key_of(a);
  const sim::PathKey kb = key_of(b);
  ASSERT_EQ(ka < kb, reference_less(a, b)) << ::testing::PrintToString(a)
                                           << " vs "
                                           << ::testing::PrintToString(b);
  ASSERT_EQ(kb < ka, reference_less(b, a)) << ::testing::PrintToString(a)
                                           << " vs "
                                           << ::testing::PrintToString(b);
  ASSERT_EQ(ka == kb, a == b);
  ASSERT_EQ(ka.depth(), static_cast<int>(a.size()));
}

TEST(PathKey, CompactOrderMatchesLexicographicReference) {
  util::Rng rng(20260516);
  for (int i = 0; i < 20000; ++i) {
    const Path a = random_path(rng, 0);
    // Independent paths, a path against one of its prefixes, and a path
    // equal to `a` up to that prefix's length that then takes another
    // random path's elements (so it diverges, extends or stops short).
    const Path b = random_path(rng, 0);
    const Path prefix(
        a.begin(),
        a.begin() + rng.uniform_int(0, static_cast<std::int64_t>(a.size())));
    Path shared = prefix;
    const Path other = random_path(rng, 0);
    for (std::size_t j = shared.size(); j < other.size(); ++j) {
      shared.push_back(other[j]);
    }
    expect_same_order(a, b);
    expect_same_order(a, prefix);
    expect_same_order(a, shared);
    expect_same_order(a, a);
  }
}

TEST(CrossShardQueue, PreservesPushOrderAcrossRingAndSpill) {
  sim::CrossShardQueue q(4);  // tiny ring: force the spill path
  for (int i = 0; i < 10; ++i) {
    sim::Message m;
    m.deliver_at = static_cast<double>(i);
    q.push(std::move(m));
  }
  EXPECT_EQ(q.size(), 10u);
  std::vector<sim::Message> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].deliver_at,
              static_cast<double>(i));  // sda-lint: allow(FLOAT_EQ)
  }
  EXPECT_TRUE(q.empty());
  // Reusable after a drain.
  sim::Message m;
  m.deliver_at = 42.0;
  q.push(std::move(m));
  out.clear();
  q.drain(out);
  ASSERT_EQ(out.size(), 1u);
}

TEST(NodeStatusBoard, HalfOpenOutageIntervals) {
  sim::NodeStatusBoard board;
  board.reset(3);
  board.add_outage(1, 10.0, 20.0);
  board.add_outage(1, 30.0, 35.0);
  EXPECT_TRUE(board.is_up(1, 9.99));
  EXPECT_FALSE(board.is_up(1, 10.0));   // down_at inclusive
  EXPECT_FALSE(board.is_up(1, 19.99));
  EXPECT_TRUE(board.is_up(1, 20.0));    // up_at exclusive
  EXPECT_FALSE(board.is_up(1, 32.0));
  EXPECT_TRUE(board.is_up(0, 15.0));    // other nodes unaffected
  EXPECT_TRUE(board.is_up(99, 15.0));   // out of range -> up
}

// Every write before a barrier phase must be visible to every party after
// it, phase after phase: each thread stamps its slot with the round, then
// checks every slot after the barrier.  Runs spinning and parked (the
// latter is what more shards than CPUs get), with an odd party count.
TEST(SpinBarrier, PublishesEveryPhaseToEveryParty) {
  for (const bool spin : {true, false}) {
    constexpr int kParties = 3;
    constexpr int kRounds = 2000;
    sim::SpinBarrier barrier(kParties, spin);
    std::vector<int> stamp(kParties, -1);
    std::vector<int> mismatches(kParties, 0);
    auto party = [&](int self) {
      for (int round = 0; round < kRounds; ++round) {
        stamp[static_cast<std::size_t>(self)] = round;
        barrier.arrive_and_wait();
        for (const int s : stamp) {
          if (s != round) ++mismatches[static_cast<std::size_t>(self)];
        }
        barrier.arrive_and_wait();  // nobody stamps the next round early
      }
    };
    std::vector<std::thread> threads;
    for (int p = 1; p < kParties; ++p) threads.emplace_back(party, p);
    party(0);
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches, std::vector<int>(kParties, 0)) << "spin=" << spin;
  }
}

TEST(Fabric, ShardMapAndStats) {
  sim::Fabric::Options fo;
  fo.lanes = 8;
  fo.shards = 3;
  sim::Fabric fabric(fo);
  EXPECT_EQ(fabric.control_lane(), 8);
  EXPECT_EQ(fabric.shard_of(8), 0);  // control lane -> shard 0
  EXPECT_EQ(fabric.shard_of(0), 0);
  EXPECT_EQ(fabric.shard_of(1), 1);
  EXPECT_EQ(fabric.shard_of(5), 2);
  EXPECT_EQ(&fabric.engine_for_lane(8), &fabric.control_engine());
  EXPECT_EQ(fabric.events_fired(), 0u);
  EXPECT_EQ(fabric.events_pending(), 0u);
}

// A model exception on one shard must unwind every shard and reach the
// caller.  The throwing event is the first of its window, so the shard
// throws right after barrier (C) while its peers may still be waking
// from it: with one stop flag for both phases a slow peer saw the new
// exception at the old barrier, left the loop, and the rest waited at
// barrier (B) for it forever.  8 shards park at every barrier on hosts
// with fewer than 8 CPUs, which widens the wake-up gap.
TEST(Fabric, ModelExceptionUnwindsEveryShard) {
  for (int trial = 0; trial < 100; ++trial) {
    sim::Fabric::Options fo;
    fo.lanes = 8;
    fo.shards = 8;
    fo.latency = 1.0;
    sim::Fabric fabric(fo);
    for (int lane = 0; lane < fo.lanes; ++lane) {
      sim::Engine& e = fabric.engine_for_lane(lane);
      for (int t = 0; t < 40; ++t) e.at(static_cast<double>(t), [] {});
    }
    fabric.engine_for_lane(trial % fo.lanes).at(20.0, [] {
      throw std::runtime_error("model fault");
    });
    EXPECT_THROW(fabric.run(100.0), std::runtime_error) << "trial " << trial;
  }
}

}  // namespace
