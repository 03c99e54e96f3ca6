// Whole-system integration tests: the assembled simulator must reproduce
// the paper's qualitative results and satisfy internal-consistency
// invariants.  Run lengths are kept moderate so the suite stays fast; the
// assertions use generous tolerances accordingly.
#include "src/exp/runner.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/metrics/task_class.hpp"
#include "src/metrics/trace.hpp"

namespace {

using namespace sda;
using exp::baseline_config;
using exp::ExperimentConfig;
using exp::run_once;

ExperimentConfig quick(double sim_time = 30000.0) {
  ExperimentConfig c = baseline_config();
  c.sim_time = sim_time;
  c.replications = 1;
  return c;
}

TEST(Runner, UtilizationTracksLoad) {
  for (double load : {0.3, 0.5, 0.8}) {
    ExperimentConfig c = quick();
    c.load = load;
    const auto r = run_once(c, 1);
    EXPECT_NEAR(r.mean_utilization, load, 0.03) << "load " << load;
  }
}

TEST(Runner, DeterministicForSameSeed) {
  const ExperimentConfig c = quick(5000.0);
  const auto a = run_once(c, 123);
  const auto b = run_once(c, 123);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.locals_generated, b.locals_generated);
  EXPECT_EQ(a.globals_generated, b.globals_generated);
  EXPECT_DOUBLE_EQ(
      a.collector.counts(metrics::kLocalClass).miss_rate(),
      b.collector.counts(metrics::kLocalClass).miss_rate());
  EXPECT_DOUBLE_EQ(
      a.collector.counts(metrics::global_class(4)).miss_rate(),
      b.collector.counts(metrics::global_class(4)).miss_rate());
}

TEST(Runner, DifferentSeedsDiffer) {
  const ExperimentConfig c = quick(5000.0);
  const auto a = run_once(c, 1);
  const auto b = run_once(c, 2);
  EXPECT_NE(a.events_fired, b.events_fired);
}

TEST(Runner, GenerationRatesMatchTheory) {
  // At baseline: lambda_local = .375/node (x6 nodes), lambda_global = .1875.
  const auto r = run_once(quick(40000.0), 3);
  EXPECT_NEAR(static_cast<double>(r.locals_generated), 0.375 * 6 * 40000.0,
              0.375 * 6 * 40000.0 * 0.03);
  EXPECT_NEAR(static_cast<double>(r.globals_generated), 0.1875 * 40000.0,
              0.1875 * 40000.0 * 0.05);
}

TEST(Runner, ConservationOfGlobals) {
  const auto r = run_once(quick(20000.0), 4);
  // Every generated global either completed, was aborted, or is in flight
  // at the horizon.  Without abortion, aborted == 0.
  EXPECT_EQ(r.globals_aborted, 0u);
  EXPECT_LE(r.globals_completed, r.globals_generated);
  EXPECT_GE(r.globals_completed + 100, r.globals_generated);  // few in flight
}

TEST(Runner, UdGlobalMissAmplification) {
  // Paper §6.1: MD_global ~ 1-(1-MD_subtask)^4 and ~3x MD_local at load .5.
  const auto r = run_once(quick(60000.0), 5);
  const double md_local = r.collector.counts(metrics::kLocalClass).miss_rate();
  const double md_sub = r.collector.counts(metrics::kSubtaskClass).miss_rate();
  const double md_glob =
      r.collector.counts(metrics::global_class(4)).miss_rate();

  EXPECT_NEAR(md_local, 0.089, 0.02);
  EXPECT_NEAR(md_sub, 0.071, 0.02);
  EXPECT_NEAR(md_glob, 0.25, 0.04);
  // Subtasks slightly easier than locals (Equation 3).
  EXPECT_LT(md_sub, md_local);
  // Independence approximation within a few points.
  EXPECT_NEAR(md_glob, 1.0 - std::pow(1.0 - md_sub, 4.0), 0.05);
}

TEST(Runner, Div1HalvesGlobalMissRate) {
  ExperimentConfig c = quick(60000.0);
  const auto ud = run_once(c, 6);
  c.psp = "div-1";
  const auto div1 = run_once(c, 6);

  const double ud_glob =
      ud.collector.counts(metrics::global_class(4)).miss_rate();
  const double div_glob =
      div1.collector.counts(metrics::global_class(4)).miss_rate();
  const double ud_local = ud.collector.counts(metrics::kLocalClass).miss_rate();
  const double div_local =
      div1.collector.counts(metrics::kLocalClass).miss_rate();

  EXPECT_LT(div_glob, ud_glob * 0.65);   // roughly halved
  EXPECT_GT(div_local, ud_local);        // locals pay a little
  EXPECT_LT(div_local, ud_local + 0.05); // ... but only a little
  // Missed *work* improves under DIV-1 (paper §6.1).
  EXPECT_LT(div1.collector.overall_missed_work_rate(),
            ud.collector.overall_missed_work_rate() + 0.002);
}

TEST(Runner, GfBeatsDiv1OnGlobals) {
  ExperimentConfig c = quick(60000.0);
  c.load = 0.7;  // the gap is widest at high load
  c.psp = "div-1";
  const auto div1 = run_once(c, 7);
  c.psp = "gf";
  const auto gf = run_once(c, 7);
  EXPECT_LT(gf.collector.counts(metrics::global_class(4)).miss_rate(),
            div1.collector.counts(metrics::global_class(4)).miss_rate());
  // Similar local miss rates (within a couple of points).
  EXPECT_NEAR(gf.collector.counts(metrics::kLocalClass).miss_rate(),
              div1.collector.counts(metrics::kLocalClass).miss_rate(), 0.025);
}

TEST(Runner, GfEqualsUdWithoutLocals) {
  // frac_local = 0: GF shifts all deadlines by the same constant, which
  // cannot change the EDF order among subtasks — identical outcomes with
  // common random numbers.
  ExperimentConfig c = quick(20000.0);
  c.frac_local = 0.0;
  const auto ud = run_once(c, 8);
  c.psp = "gf";
  const auto gf = run_once(c, 8);
  EXPECT_DOUBLE_EQ(ud.collector.counts(metrics::global_class(4)).miss_rate(),
                   gf.collector.counts(metrics::global_class(4)).miss_rate());
  EXPECT_EQ(ud.events_fired, gf.events_fired);
}

TEST(Runner, PmAbortionReducesMissRates) {
  ExperimentConfig c = quick(60000.0);
  c.load = 0.6;
  const auto plain = run_once(c, 9);
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  const auto abort = run_once(c, 9);
  EXPECT_LT(abort.collector.counts(metrics::global_class(4)).miss_rate(),
            plain.collector.counts(metrics::global_class(4)).miss_rate());
  EXPECT_LT(abort.collector.counts(metrics::kLocalClass).miss_rate(),
            plain.collector.counts(metrics::kLocalClass).miss_rate());
  EXPECT_GT(abort.globals_aborted, 0u);
}

TEST(Runner, NonHomogeneousMissRateGrowsWithN) {
  ExperimentConfig c = quick(80000.0);
  c.n_min = 2;
  c.n_max = 6;
  const auto r = run_once(c, 10);
  const double md2 = r.collector.counts(metrics::global_class(2)).miss_rate();
  const double md6 = r.collector.counts(metrics::global_class(6)).miss_rate();
  EXPECT_GT(md6, md2 * 1.5);  // Fig 12: bigger tasks miss far more under UD
}

TEST(Runner, GraphWorkloadRunsAndEqfDiv1Helps) {
  ExperimentConfig c = exp::graph_config();
  c.sim_time = 40000.0;
  c.replications = 1;
  c.load = 0.6;
  const auto udud = run_once(c, 11);
  c.psp = "div-1";
  c.ssp = "eqf";
  const auto eqfdiv = run_once(c, 11);
  const double md_udud =
      udud.collector.counts(metrics::global_class(0)).miss_rate();
  const double md_eqfdiv =
      eqfdiv.collector.counts(metrics::global_class(0)).miss_rate();
  EXPECT_LT(md_eqfdiv, md_udud * 0.7);  // combined strategies help a lot
}

TEST(Runner, LocalAbortRegimeResubmits) {
  ExperimentConfig c = quick(20000.0);
  c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  c.psp = "div-1";
  const auto r = run_once(c, 12);
  EXPECT_GT(r.resubmissions, 0u);
  EXPECT_GT(r.local_scheduler_aborts, 0u);
}

TEST(Runner, NonAbortableDirectiveSuppressesSubtaskAborts) {
  ExperimentConfig c = quick(20000.0);
  c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  c.psp = "div-1";
  c.subtasks_non_abortable = true;
  const auto r = run_once(c, 13);
  EXPECT_EQ(r.resubmissions, 0u);  // only locals can be locally aborted now
}

TEST(Runner, PreemptiveModePreempts) {
  ExperimentConfig c = quick(10000.0);
  c.preemptive = true;
  const auto r = run_once(c, 14);
  EXPECT_GT(r.preemptions, 0u);
}

TEST(Runner, RunExperimentAggregatesReplications) {
  ExperimentConfig c = quick(10000.0);
  c.replications = 3;
  const auto report = exp::run_experiment(c);
  EXPECT_EQ(report.replications(), 3u);
  const auto s = report.summary(metrics::kLocalClass);
  EXPECT_GT(s.finished_total, 0u);
  EXPECT_GT(s.miss_rate.half_width, 0.0);
  EXPECT_LT(s.miss_rate.half_width, 0.05);
}

TEST(Runner, FifoSubstrateMakesStrategiesEquivalent) {
  ExperimentConfig c = quick(20000.0);
  c.scheduler_policy = "fifo";
  const auto ud = run_once(c, 15);
  c.psp = "gf";
  const auto gf = run_once(c, 15);
  // Deadlines are ignored by FIFO: byte-identical dynamics.
  EXPECT_EQ(ud.events_fired, gf.events_fired);
  EXPECT_DOUBLE_EQ(ud.collector.counts(metrics::global_class(4)).miss_rate(),
                   gf.collector.counts(metrics::global_class(4)).miss_rate());
}

// --- pinned assembly fingerprints ------------------------------------------
//
// The replication assembly's behaviour, pinned as absolute values for the
// direct path (shards=1) and the fabric path (shards=4).  The shard-equality
// tests in test_pdes.cpp compare the two paths against each other, so a slip
// in the topology they share — a reordered workload RNG split, a handler
// wired to the wrong sink — moves both sides together and passes there.
// This table does not move with the code: every row was generated from the
// assembly as it stood before the direct and fabric paths shared one body,
// and both paths must keep reproducing it.
//
// Where a config's shards=4 row differs from its shards=1 row, the table
// records one of the fabric's known divergences from the direct path
// (DESIGN.md §4c: same-instant resubmissions and stage handoffs, and
// same-instant abort timers on different lanes).  Those rows pin today's
// fabric behaviour, not the cross-path contract.
//
// The fingerprint-v2 migration (ROADMAP.md: word-wise tracer hashing)
// changes every fingerprint below by design; regenerate the table then.  A
// mismatching row prints its replacement.

enum class Variant { kParallel, kGraph, kLinks, kFaults, kAdmission };

struct PinnedRow {
  const char* psp;
  const char* ssp;
  Variant variant;
  int shards;
  std::uint64_t fingerprint;
  std::uint64_t events_fired;
  std::uint64_t locals_generated;
  std::uint64_t globals_generated;
  std::uint64_t globals_completed;
  std::uint64_t globals_aborted;
  std::uint64_t globals_shed;
  std::uint64_t resubmissions;
  std::uint64_t local_scheduler_aborts;
  std::uint64_t node_crashes;
  std::uint64_t transient_failures;
  std::uint64_t messages_lost;
  std::uint64_t fault_retries;
  std::uint64_t globals_not_admitted;
};

/// k=8 lanes (kLinks: 6 compute + 2 links) so shards=4 splits evenly.
/// Graph variants exercise both the PSP and the SSP (serial stages); the
/// parallel variants exercise placement, faults and admission.
ExperimentConfig pinned_config(const PinnedRow& row) {
  const bool graph =
      row.variant == Variant::kGraph || row.variant == Variant::kLinks;
  ExperimentConfig c = graph ? exp::graph_config() : baseline_config();
  c.k = 8;
  c.sim_time = 400.0;
  c.replications = 1;
  c.warmup_fraction = 0.05;
  c.load = 0.7;
  c.psp = row.psp;
  c.ssp = row.ssp;
  c.shards = row.shards;
  c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  switch (row.variant) {
    case Variant::kParallel:
    case Variant::kGraph:
      break;
    case Variant::kLinks:
      c.k = 6;
      c.link_count = 2;
      c.msg_loss_rate = 0.03;
      c.msg_extra_delay_mean = 0.05;
      c.pm_abort = core::PmAbortMode::kRealDeadline;
      break;
    case Variant::kFaults:
      c.fault_rate = 0.05;
      c.crash_mean_uptime = 120.0;
      c.crash_mean_downtime = 15.0;
      c.retry_backoff_base = 0.5;
      c.retry_backoff_factor = 2.0;
      c.pm_abort = core::PmAbortMode::kRealDeadline;
      break;
    case Variant::kAdmission:
      c.admission = true;
      c.load = 1.1;
      break;
  }
  return c;
}

PinnedRow observe(const PinnedRow& want) {
  metrics::Tracer tracer(1);  // rolling fingerprint only
  const exp::RunResult r = run_once(pinned_config(want), 20240611, &tracer);
  PinnedRow got = want;
  got.fingerprint = tracer.fingerprint();
  got.events_fired = r.events_fired;
  got.locals_generated = r.locals_generated;
  got.globals_generated = r.globals_generated;
  got.globals_completed = r.globals_completed;
  got.globals_aborted = r.globals_aborted;
  got.globals_shed = r.globals_shed;
  got.resubmissions = r.resubmissions;
  got.local_scheduler_aborts = r.local_scheduler_aborts;
  got.node_crashes = r.node_crashes;
  got.transient_failures = r.transient_failures;
  got.messages_lost = r.messages_lost;
  got.fault_retries = r.fault_retries;
  got.globals_not_admitted = r.globals_not_admitted;
  return got;
}

std::string format_row(const PinnedRow& r) {
  static const char* kVariants[] = {"kParallel", "kGraph", "kLinks",
                                    "kFaults", "kAdmission"};
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", \"%s\", Variant::%s, %d, 0x%016" PRIx64
                "ULL, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 "},",
                r.psp, r.ssp, kVariants[static_cast<int>(r.variant)],
                r.shards, r.fingerprint, r.events_fired, r.locals_generated,
                r.globals_generated, r.globals_completed, r.globals_aborted,
                r.globals_shed, r.resubmissions, r.local_scheduler_aborts,
                r.node_crashes, r.transient_failures, r.messages_lost,
                r.fault_retries, r.globals_not_admitted);
  return buf;
}

// psp, ssp, variant, shards, fingerprint, events fired, locals, globals,
// completed, aborted, shed, resubmissions, local aborts, crashes,
// transient failures, messages lost, fault retries, not admitted.
const PinnedRow kPinned[] = {
    {"ud", "ud", Variant::kGraph, 1, 0x7a7a4d88f66dcfb9ULL, 4086, 1733, 54, 47, 0, 0, 92, 275, 0, 0, 0, 0, 0},
    {"ud", "ud", Variant::kGraph, 4, 0xdf1553dc188ed0cfULL, 5365, 1733, 54, 47, 0, 0, 92, 268, 0, 0, 0, 0, 0},
    {"ud", "ed", Variant::kGraph, 1, 0xa61f2cbcc4526f6cULL, 4073, 1733, 54, 48, 0, 0, 68, 247, 0, 0, 0, 0, 0},
    {"ud", "ed", Variant::kGraph, 4, 0x07efbb6824e91effULL, 5307, 1733, 54, 47, 0, 0, 72, 249, 0, 0, 0, 0, 0},
    {"ud", "eqs", Variant::kGraph, 1, 0x64c159549883467bULL, 4113, 1733, 54, 48, 0, 0, 107, 317, 0, 0, 0, 0, 0},
    {"ud", "eqs", Variant::kGraph, 4, 0x159ce9996c56aaf4ULL, 5435, 1733, 54, 48, 0, 0, 110, 312, 0, 0, 0, 0, 0},
    {"ud", "eqf", Variant::kGraph, 1, 0x15ecf74b349a10e3ULL, 4115, 1733, 54, 48, 0, 0, 107, 308, 0, 0, 0, 0, 0},
    {"ud", "eqf", Variant::kGraph, 4, 0xc75c06295d2f226bULL, 5480, 1733, 54, 48, 0, 0, 127, 328, 0, 0, 0, 0, 0},
    {"div-1", "ud", Variant::kGraph, 1, 0x35db9995e3df2f73ULL, 4131, 1733, 54, 48, 0, 0, 155, 359, 0, 0, 0, 0, 0},
    {"div-1", "ud", Variant::kGraph, 4, 0x15124d16f8fc8ce5ULL, 5550, 1733, 54, 48, 0, 0, 159, 360, 0, 0, 0, 0, 0},
    {"div-1", "ed", Variant::kGraph, 1, 0x05a9bca4bd7c1f2dULL, 4168, 1733, 54, 49, 0, 0, 189, 404, 0, 0, 0, 0, 0},
    {"div-1", "ed", Variant::kGraph, 4, 0x546792da46467dfcULL, 5627, 1733, 54, 47, 0, 0, 182, 397, 0, 0, 0, 0, 0},
    {"div-1", "eqs", Variant::kGraph, 1, 0xc27212b5c04ad778ULL, 4278, 1733, 54, 48, 0, 0, 276, 505, 0, 0, 0, 0, 0},
    {"div-1", "eqs", Variant::kGraph, 4, 0x24b938926df61f74ULL, 5988, 1733, 54, 47, 0, 0, 287, 488, 0, 0, 0, 0, 0},
    {"div-1", "eqf", Variant::kGraph, 1, 0xf88f4554617e09b4ULL, 4258, 1733, 54, 47, 0, 0, 277, 516, 0, 0, 0, 0, 0},
    {"div-1", "eqf", Variant::kGraph, 4, 0x18e7b9819dabbf3eULL, 5987, 1733, 54, 47, 0, 0, 301, 535, 0, 0, 0, 0, 0},
    {"div-4", "ud", Variant::kGraph, 1, 0x3422e0d4885c5772ULL, 4297, 1733, 54, 48, 0, 0, 320, 533, 0, 0, 0, 0, 0},
    {"div-4", "ud", Variant::kGraph, 4, 0x0ca1e7b13c4d8be3ULL, 6046, 1733, 54, 47, 0, 0, 321, 536, 0, 0, 0, 0, 0},
    {"div-4", "ed", Variant::kGraph, 1, 0xe9e196dffd538388ULL, 4300, 1733, 54, 48, 0, 0, 332, 533, 0, 0, 0, 0, 0},
    {"div-4", "ed", Variant::kGraph, 4, 0xe11703457683573dULL, 6088, 1733, 54, 47, 0, 0, 337, 543, 0, 0, 0, 0, 0},
    {"div-4", "eqs", Variant::kGraph, 1, 0x0ea4c87968b2bd43ULL, 4385, 1733, 54, 48, 0, 0, 373, 554, 0, 0, 0, 0, 0},
    {"div-4", "eqs", Variant::kGraph, 4, 0x979307606ff1b493ULL, 6298, 1733, 54, 48, 0, 0, 395, 574, 0, 0, 0, 0, 0},
    {"div-4", "eqf", Variant::kGraph, 1, 0x6c76dc8610e6b84bULL, 4398, 1733, 54, 47, 0, 0, 399, 590, 0, 0, 0, 0, 0},
    {"div-4", "eqf", Variant::kGraph, 4, 0x17ac69c7ecaf42edULL, 6289, 1733, 54, 47, 0, 0, 397, 583, 0, 0, 0, 0, 0},
    {"gf", "ud", Variant::kGraph, 1, 0x2a29ebbd4094c203ULL, 4048, 1733, 54, 48, 0, 0, 429, 607, 0, 0, 0, 0, 0},
    {"gf", "ud", Variant::kGraph, 4, 0x409a411bd2a088c1ULL, 6016, 1733, 54, 47, 0, 0, 433, 613, 0, 0, 0, 0, 0},
    {"gf", "ed", Variant::kGraph, 1, 0x475c332aa6f26c52ULL, 4050, 1733, 54, 48, 0, 0, 432, 613, 0, 0, 0, 0, 0},
    {"gf", "ed", Variant::kGraph, 4, 0xd85bee13b241efc2ULL, 6027, 1733, 54, 48, 0, 0, 435, 615, 0, 0, 0, 0, 0},
    {"gf", "eqs", Variant::kGraph, 1, 0x03f7a1244eb614c5ULL, 4062, 1733, 54, 48, 0, 0, 437, 611, 0, 0, 0, 0, 0},
    {"gf", "eqs", Variant::kGraph, 4, 0x9674ad9c4b1b7af2ULL, 6078, 1733, 54, 48, 0, 0, 450, 624, 0, 0, 0, 0, 0},
    {"gf", "eqf", Variant::kGraph, 1, 0x4999c872e0f13bccULL, 4080, 1733, 54, 48, 0, 0, 454, 639, 0, 0, 0, 0, 0},
    {"gf", "eqf", Variant::kGraph, 4, 0xb7aa51c8c7ec2998ULL, 6064, 1733, 54, 47, 0, 0, 450, 631, 0, 0, 0, 0, 0},
    {"ud", "ud", Variant::kParallel, 1, 0x868bcc19ad1a5d0cULL, 4158, 1733, 134, 130, 0, 0, 51, 261, 0, 0, 0, 0, 0},
    {"ud", "ud", Variant::kParallel, 4, 0x5da28dcd7c55a35bULL, 5320, 1733, 134, 130, 0, 0, 50, 254, 0, 0, 0, 0, 0},
    {"div-1", "ud", Variant::kParallel, 1, 0xcd9e8b95d5398b69ULL, 4436, 1733, 134, 131, 0, 0, 326, 588, 0, 0, 0, 0, 0},
    {"div-1", "ud", Variant::kParallel, 4, 0x853e4536e8cf47e2ULL, 6160, 1733, 134, 131, 0, 0, 328, 588, 0, 0, 0, 0, 0},
    {"gf", "ud", Variant::kParallel, 1, 0x8479ba276d68d0faULL, 4110, 1733, 134, 132, 0, 0, 536, 727, 0, 0, 0, 0, 0},
    {"gf", "ud", Variant::kParallel, 4, 0x8479ba276d68d0faULL, 6247, 1733, 134, 132, 0, 0, 536, 727, 0, 0, 0, 0, 0},
    {"div-1", "eqf", Variant::kLinks, 1, 0x9338a2a6af2b2b48ULL, 4593, 1291, 51, 21, 27, 1, 236, 236, 0, 0, 5, 4, 0},
    {"div-1", "eqf", Variant::kLinks, 4, 0x2d1597d1904f4321ULL, 6300, 1291, 51, 21, 27, 1, 236, 241, 0, 0, 5, 4, 0},
    {"gf", "ud", Variant::kFaults, 1, 0xad764d5b8d036813ULL, 5582, 1733, 134, 67, 65, 2, 536, 536, 20, 24, 0, 34, 0},
    {"gf", "ud", Variant::kFaults, 4, 0xad764d5b8d036813ULL, 7789, 1733, 134, 67, 65, 2, 536, 536, 20, 24, 0, 34, 0},
    {"div-1", "ud", Variant::kAdmission, 1, 0xacd57fcc608f20f1ULL, 5807, 2724, 216, 29, 0, 0, 50, 436, 0, 0, 0, 0, 187},
    {"div-1", "ud", Variant::kAdmission, 4, 0xe2c23770cdbd3eebULL, 6139, 2724, 216, 29, 0, 0, 50, 435, 0, 0, 0, 0, 187},
};

TEST(RunnerPinned, FingerprintsAndCountsSerialAndSharded) {
  for (const PinnedRow& want : kPinned) {
    const std::string expected = format_row(want);
    const std::string observed = format_row(observe(want));
    EXPECT_TRUE(observed == expected) << "pinned:   " << expected
                                      << "\nobserved: " << observed;
  }
}

}  // namespace
