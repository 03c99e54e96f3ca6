// Unit tests for whole-config validation.
#include "src/exp/config.hpp"

#include <gtest/gtest.h>

namespace {

using namespace sda::exp;

TEST(Validate, BaselineIsValid) {
  EXPECT_TRUE(baseline_config().validate().empty());
  EXPECT_NO_THROW(baseline_config().validate_or_throw());
  EXPECT_TRUE(graph_config().validate().empty());
}

TEST(Validate, CatchesSystemProblems) {
  ExperimentConfig c = baseline_config();
  c.k = 0;
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.node_speeds = {1.0, 1.0};
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.node_speeds = {1, 1, 1, 1, 1, -1};
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.scheduler_policy = "random";
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, CatchesStrategyProblems) {
  ExperimentConfig c = baseline_config();
  c.psp = "div-0";
  EXPECT_FALSE(c.validate().empty());
  c = baseline_config();
  c.ssp = "eqz";
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, CatchesWorkloadProblems) {
  ExperimentConfig c = baseline_config();
  c.load = 1.0;  // unstable
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.frac_local = 1.2;
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.n_max = 7;  // > k
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.slack_min = 9.0;  // > slack_max
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.local_burst_factor = 0.5;
  EXPECT_FALSE(c.validate().empty());

  c = graph_config();
  c.stage_widths = {1, 9};
  EXPECT_FALSE(c.validate().empty());

  c = graph_config();
  c.link_count = 2;
  c.mean_msg_time = 0.0;
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, CatchesRunControlProblems) {
  ExperimentConfig c = baseline_config();
  c.sim_time = 0.0;
  EXPECT_FALSE(c.validate().empty());
  c = baseline_config();
  c.replications = 0;
  EXPECT_FALSE(c.validate().empty());
  c = baseline_config();
  c.warmup_fraction = 1.0;
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, ReportsAllProblemsAtOnce) {
  ExperimentConfig c = baseline_config();
  c.k = -1;
  c.load = 2.0;
  c.psp = "nope";
  c.replications = 0;
  EXPECT_GE(c.validate().size(), 4u);
}

TEST(Validate, ThrowListsEveryProblem) {
  ExperimentConfig c = baseline_config();
  c.load = 2.0;
  c.psp = "nope";
  try {
    c.validate_or_throw();
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("load"), std::string::npos);
    EXPECT_NE(what.find("nope"), std::string::npos);
  }
}

TEST(Validate, LinkCountIgnoredForParallelKind) {
  ExperimentConfig c = baseline_config();  // kParallel
  c.link_count = -5;                       // only meaningful for kGraph
  EXPECT_TRUE(c.validate().empty());
}

}  // namespace
