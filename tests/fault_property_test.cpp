// Property harness for the fault-injection subsystem and probe retries.
//
// Generates 100+ random fault plans from fixed seeds (FaultPlan::from_seed)
// and checks the invariants that make faulty measurements trustworthy:
//
//  * determinism — for every plan, the RoundResult is bit-identical under
//    1, 2, and 8 probe threads (the sharded merge survives faults);
//  * containment — a faulty round's catchment maps a subset of the
//    fault-free round's blocks (faults only remove or redirect replies,
//    they cannot invent responders);
//  * attribution — a block whose measured site differs from the clean
//    round's is one the plan's churn actually diverted (modulo the known
//    rare cross-block-alias race, bounded below);
//  * accounting — injected losses are conserved exactly: surviving
//    replies = generated - dropped, and the cleaning pipeline accounts
//    for every record it saw;
//  * retry monotonicity — more retries never shrink coverage, and under
//    loss they recover blocks;
//  * neutrality — a disabled plan and zero retries leave the result
//    byte-identical to the plain engine, with all fault counters zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/verfploeter.hpp"
#include "sim/fault_injector.hpp"

namespace vp::core {
namespace {

constexpr int kPlanCount = 100;
constexpr std::uint32_t kRound = 1;

class FaultPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 42;
    config.scale = 0.03;  // ~3.6k blocks: 300+ faulty rounds stay fast
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
    clean_ = new RoundResult(run(nullptr, 0, 1));
  }
  static void TearDownTestSuite() {
    delete clean_;
    routes_.reset();
    delete scenario_;
  }

  static RoundSpec spec_with(const sim::FaultInjector* faults, int retries,
                             unsigned threads) {
    RoundSpec spec;
    spec.probe.measurement_id = 7100;
    spec.probe.max_retries = retries;
    spec.round = kRound;
    spec.threads = threads;
    spec.faults = faults;
    return spec;
  }

  static RoundResult run(const sim::FaultInjector* faults, int retries,
                         unsigned threads) {
    return scenario_->verfploeter().run(*routes_,
                                        spec_with(faults, retries, threads));
  }

  /// The fault-free, retry-free reference round (threads = 1).
  static const RoundResult& clean() { return *clean_; }

  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
  static RoundResult* clean_;
};

analysis::Scenario* FaultPropertyTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> FaultPropertyTest::routes_;
RoundResult* FaultPropertyTest::clean_ = nullptr;

void expect_identical(const RoundResult& a, const RoundResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.map.probes_sent, b.map.probes_sent) << label;
  EXPECT_EQ(a.map.blocks_probed, b.map.blocks_probed) << label;
  EXPECT_EQ(a.map.entries(), b.map.entries()) << label;
  EXPECT_EQ(a.map.cleaning.raw_replies, b.map.cleaning.raw_replies) << label;
  EXPECT_EQ(a.map.cleaning.wrong_id, b.map.cleaning.wrong_id) << label;
  EXPECT_EQ(a.map.cleaning.unsolicited, b.map.cleaning.unsolicited) << label;
  EXPECT_EQ(a.map.cleaning.duplicates, b.map.cleaning.duplicates) << label;
  EXPECT_EQ(a.map.cleaning.late, b.map.cleaning.late) << label;
  EXPECT_EQ(a.map.cleaning.kept, b.map.cleaning.kept) << label;
  EXPECT_EQ(a.raw_replies_per_site, b.raw_replies_per_site) << label;
  for (const auto& [block, site] : a.map.entries())
    EXPECT_EQ(a.map.rtt_of(block), b.map.rtt_of(block)) << label;
  // Fault accounting must be as deterministic as the map itself.
  EXPECT_EQ(a.faults.probes_lost, b.faults.probes_lost) << label;
  EXPECT_EQ(a.faults.replies_generated, b.faults.replies_generated) << label;
  EXPECT_EQ(a.faults.replies_lost, b.faults.replies_lost) << label;
  EXPECT_EQ(a.faults.rate_limited, b.faults.rate_limited) << label;
  EXPECT_EQ(a.faults.outage_drops, b.faults.outage_drops) << label;
  EXPECT_EQ(a.faults.withdrawn, b.faults.withdrawn) << label;
  EXPECT_EQ(a.faults.diverted, b.faults.diverted) << label;
  EXPECT_EQ(a.faults.delayed, b.faults.delayed) << label;
  EXPECT_EQ(a.faults.retries, b.faults.retries) << label;
  EXPECT_EQ(a.faults.recovered, b.faults.recovered) << label;
}

/// Every cleaning counter sums back to what the collectors recorded, and
/// the collectors saw exactly the replies the faults let through.
void expect_exact_accounting(const RoundResult& result,
                             const std::string& label) {
  const CleaningStats& c = result.map.cleaning;
  EXPECT_EQ(c.raw_replies, c.kept + c.malformed + c.wrong_id + c.unsolicited +
                               c.duplicates + c.late)
      << label;
  EXPECT_EQ(c.raw_replies,
            result.faults.replies_generated - result.faults.replies_dropped())
      << label;
}

TEST_F(FaultPropertyTest, HundredPlansHoldInvariantsUnderAnyThreadCount) {
  std::uint64_t plans_with_injections = 0;
  std::uint64_t unattributed_site_changes = 0;
  for (std::uint64_t seed = 0; seed < kPlanCount; ++seed) {
    const sim::FaultInjector injector{sim::FaultPlan::from_seed(seed)};
    const std::string label = "plan seed " + std::to_string(seed);
    const RoundResult faulty = run(&injector, 0, 1);

    // Determinism: 2 and 8 probe threads replay plan bit for bit.
    expect_identical(faulty, run(&injector, 0, 2), label + ", 2 threads");
    expect_identical(faulty, run(&injector, 0, 8), label + ", 8 threads");

    // Containment: faults cannot map a block the clean round did not.
    ASSERT_LE(faulty.map.mapped_blocks(), clean().map.mapped_blocks())
        << label;
    for (const auto& [block, site] : faulty.map.entries()) {
      const anycast::SiteId clean_site = clean().map.site_of(block);
      ASSERT_NE(clean_site, anycast::kUnknownSite) << label;
      // Attribution: a different site means churn diverted the block —
      // except for the rare cross-block alias race (a neighbor's aliased
      // reply standing in after the block's own reply was dropped),
      // which we count and bound instead.
      if (site != clean_site && !injector.churn(block, kRound).active)
        ++unattributed_site_changes;
    }

    // Exact loss accounting, including the injected duplicates the
    // cleaning pass has to absorb.
    expect_exact_accounting(faulty, label);
    EXPECT_EQ(faulty.map.probes_sent, clean().map.probes_sent) << label;
    EXPECT_EQ(faulty.map.blocks_probed, clean().map.blocks_probed) << label;
    if (faulty.faults.probes_lost + faulty.faults.replies_dropped() > 0)
      ++plans_with_injections;
  }
  // The plan generator must actually exercise the machinery...
  EXPECT_GE(plans_with_injections, static_cast<std::uint64_t>(kPlanCount) - 2);
  // ...and unattributed site changes stay at the alias-race noise floor.
  EXPECT_LE(unattributed_site_changes, 5u);
}

TEST_F(FaultPropertyTest, RetriesAreDeterministicAcrossThreadCounts) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const sim::FaultInjector injector{sim::FaultPlan::from_seed(seed)};
    const std::string label = "retry plan seed " + std::to_string(seed);
    const RoundResult serial = run(&injector, 2, 1);
    expect_identical(serial, run(&injector, 2, 2), label + ", 2 threads");
    expect_identical(serial, run(&injector, 2, 8), label + ", 8 threads");
    expect_exact_accounting(serial, label);
  }
}

TEST_F(FaultPropertyTest, RetryCoverageIsMonotonicallyNonDecreasing) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const sim::FaultInjector injector{sim::FaultPlan::from_seed(seed)};
    const std::string label = "plan seed " + std::to_string(seed);
    RoundResult prev = run(&injector, 0, 1);
    for (const int retries : {1, 2}) {
      const RoundResult next = run(&injector, retries, 1);
      EXPECT_GE(next.map.mapped_blocks(), prev.map.mapped_blocks())
          << label << ", retries " << retries;
      // Superset, not just count: nothing previously mapped disappears.
      for (const auto& [block, site] : prev.map.entries())
        ASSERT_TRUE(next.map.contains(block))
            << label << ", retries " << retries;
      EXPECT_EQ(next.map.probes_sent,
                clean().map.probes_sent + next.faults.retries)
          << label;
      EXPECT_GE(next.faults.retries, prev.faults.retries) << label;
      prev = next;
    }
  }
}

TEST_F(FaultPropertyTest, RetriesRecoverLostCoverage) {
  // A plan that is pure forward-path loss: every silent probe is a
  // retryable loss, so retries must claw coverage back toward clean.
  sim::FaultPlan plan;
  plan.seed = 977;
  plan.probe_loss_rate = 0.4;
  const sim::FaultInjector injector{plan};
  const RoundResult lossy = run(&injector, 0, 1);
  const RoundResult retried = run(&injector, 3, 1);
  EXPECT_LT(lossy.map.mapped_blocks(), clean().map.mapped_blocks());
  EXPECT_GT(retried.map.mapped_blocks(), lossy.map.mapped_blocks());
  EXPECT_GT(retried.faults.recovered, 0u);
  // Four attempts at 40% loss leave ~2.6% of responsive blocks unmapped.
  EXPECT_GT(retried.map.mapped_blocks(),
            clean().map.mapped_blocks() * 95 / 100);
}

TEST_F(FaultPropertyTest, DisabledPlanAndNoRetriesAreByteIdentical) {
  const sim::FaultInjector disabled{sim::FaultPlan{}};
  ASSERT_FALSE(disabled.plan().enabled());
  const RoundResult result = run(&disabled, 0, 1);
  expect_identical(clean(), result, "disabled plan");
  EXPECT_EQ(result.faults.probes_lost, 0u);
  EXPECT_EQ(result.faults.replies_generated, 0u);
  EXPECT_EQ(result.faults.retries, 0u);
}

TEST_F(FaultPropertyTest, RetriesWithoutFaultsChangeNothingButCost) {
  // With no injected loss, retries only re-probe blocks that stay silent
  // (or answer late): the map is unchanged, the probe bill is not.
  const RoundResult retried = run(nullptr, 2, 1);
  EXPECT_EQ(retried.map.entries(), clean().map.entries());
  EXPECT_GT(retried.faults.retries, 0u);
  EXPECT_EQ(retried.map.probes_sent,
            clean().map.probes_sent + retried.faults.retries);
  expect_exact_accounting(retried, "retries, no faults");
}

class FaultStatsObserver : public RoundObserver {
 public:
  void on_fault_stats(const RoundSpec&,
                      const sim::FaultStats& faults) override {
    seen = faults;
    ++calls;
  }
  sim::FaultStats seen;
  int calls = 0;
};

TEST_F(FaultPropertyTest, ObserverReceivesTheRoundsFaultStats) {
  const sim::FaultInjector injector{sim::FaultPlan::from_seed(3)};
  FaultStatsObserver observer;
  const RoundResult result = scenario_->verfploeter().run(
      *routes_, spec_with(&injector, 1, 4), &observer);
  EXPECT_EQ(observer.calls, 1);
  EXPECT_EQ(observer.seen.probes_lost, result.faults.probes_lost);
  EXPECT_EQ(observer.seen.replies_generated,
            result.faults.replies_generated);
  EXPECT_EQ(observer.seen.retries, result.faults.retries);
  EXPECT_EQ(observer.seen.recovered, result.faults.recovered);
}

}  // namespace
}  // namespace vp::core
