#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/verfploeter.hpp"

namespace vp::core {
namespace {

/// One shared small scenario; building it is the expensive part.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 77;
    config.scale = 0.08;  // ~10k blocks
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
    ProbeConfig probe;
    probe.measurement_id = 500;
    round_ = new RoundResult(
        scenario_->verfploeter().run(*routes_, {probe, 0}));
  }
  static void TearDownTestSuite() {
    delete round_;
    routes_.reset();
    delete scenario_;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }
  static const bgp::RoutingTable& routes() { return *routes_; }
  static const RoundResult& round() { return *round_; }

 private:
  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
  static RoundResult* round_;
};

analysis::Scenario* CoreTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> CoreTest::routes_;
RoundResult* CoreTest::round_ = nullptr;

TEST_F(CoreTest, ProbesEveryHitlistEntryOnce) {
  EXPECT_EQ(round().map.probes_sent, scenario().hitlist().size());
  EXPECT_EQ(round().map.blocks_probed, scenario().hitlist().size());
}

TEST_F(CoreTest, MappedBlocksAreSubsetOfProbed) {
  EXPECT_LE(round().map.mapped_blocks(), round().map.blocks_probed);
  EXPECT_GT(round().map.mapped_blocks(), round().map.blocks_probed / 3);
  for (const auto& [block, site] : round().map.entries()) {
    EXPECT_NE(scenario().topo().block_info(block), nullptr);
    EXPECT_GE(site, 0);
    EXPECT_LT(site, static_cast<int>(scenario().broot().sites.size()));
  }
}

TEST_F(CoreTest, MeasuredCatchmentsMatchGroundTruth) {
  // The headline validation: Verfploeter discovers catchments without
  // reading the routing table, yet agrees with it everywhere.
  for (const auto& [block, site] : round().map.entries()) {
    EXPECT_EQ(site,
              scenario().internet().ground_truth_site(routes(), block, 0))
        << block.to_string();
  }
}

TEST_F(CoreTest, CleaningStatsAreConsistent) {
  const CleaningStats& s = round().map.cleaning;
  EXPECT_EQ(s.kept, round().map.mapped_blocks());
  EXPECT_EQ(s.raw_replies, s.kept + s.dropped());
  EXPECT_EQ(s.wrong_id, 0u);  // single round, no stale traffic
  EXPECT_GT(s.duplicates, 0u);
  EXPECT_GT(s.unsolicited, 0u);
  EXPECT_GT(s.late, 0u);
  // Duplicates are a small percentage of replies (paper: ~2%).
  EXPECT_LT(static_cast<double>(s.duplicates),
            0.06 * static_cast<double>(s.raw_replies));
}

TEST_F(CoreTest, RawRepliesPerSiteSumToTotal) {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : round().raw_replies_per_site) sum += n;
  EXPECT_EQ(sum + round().map.cleaning.malformed,
            round().map.cleaning.raw_replies);
}

TEST_F(CoreTest, ProbingDurationMatchesRate) {
  // 10k pps over ~10k probes: ~1 second of virtual time.
  const double expected =
      static_cast<double>(round().map.probes_sent) / 10'000.0;
  EXPECT_NEAR(round().probing_duration.seconds(), expected, expected * 0.01);
}

TEST_F(CoreTest, RoundIsDeterministic) {
  ProbeConfig probe;
  probe.measurement_id = 500;
  const RoundResult again =
      scenario().verfploeter().run(routes(), {probe, 0});
  EXPECT_EQ(again.map.mapped_blocks(), round().map.mapped_blocks());
  for (const auto& [block, site] : round().map.entries())
    EXPECT_EQ(again.map.site_of(block), site);
}

TEST_F(CoreTest, DifferentRoundsDifferSlightly) {
  ProbeConfig probe;
  probe.measurement_id = 501;
  const RoundResult other =
      scenario().verfploeter().run(routes(), {probe, 1});
  // Churn means the two rounds map a slightly different set.
  std::size_t differing = 0;
  for (const auto& [block, site] : round().map.entries())
    if (!other.map.contains(block)) ++differing;
  EXPECT_GT(differing, 0u);
  EXPECT_LT(differing, round().map.mapped_blocks() / 10);
}

TEST_F(CoreTest, ExtraTargetsImproveCoverage) {
  ProbeConfig probe;
  probe.measurement_id = 600;
  probe.extra_targets_per_block = 3;
  const RoundResult retried =
      scenario().verfploeter().run(routes(), {probe, 0});
  EXPECT_GT(retried.map.mapped_blocks(), round().map.mapped_blocks());
  EXPECT_GT(retried.map.probes_sent, round().map.probes_sent * 3);
}

TEST_F(CoreTest, PerSiteCountsSumToMapped) {
  const auto counts =
      round().map.per_site_counts(scenario().broot().sites.size());
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) sum += c;
  EXPECT_EQ(sum, round().map.mapped_blocks());
  EXPECT_GT(counts[0], counts[1]);  // LAX dominates
}

TEST_F(CoreTest, FractionToSitesSumsToOne) {
  const double lax = round().map.fraction_to(0);
  const double mia = round().map.fraction_to(1);
  EXPECT_NEAR(lax + mia, 1.0, 1e-9);
  EXPECT_GT(lax, 0.5);
}

TEST_F(CoreTest, CampaignProducesDistinctRounds) {
  ProbeConfig probe;
  probe.measurement_id = 700;
  const auto rounds = Campaign{scenario().verfploeter(), routes()}
                          .probe(probe)
                          .rounds(4)
                          .interval(util::SimTime::from_minutes(15))
                          .run();
  ASSERT_EQ(rounds.size(), 4u);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(rounds[r].map.measurement_id, 700u + r);
    EXPECT_EQ(rounds[r].started.usec,
              util::SimTime::from_minutes(15).usec * static_cast<int>(r));
    EXPECT_GT(rounds[r].map.mapped_blocks(), 0u);
  }
}

TEST_F(CoreTest, ConcurrentCampaignMatchesSequentialInRoundOrder) {
  // Rounds completing out of order under concurrency > 1 must still land
  // in round order and match the sequential run exactly — this is the
  // determinism the campaign journal's resume guarantee rests on.
  ProbeConfig probe;
  probe.measurement_id = 800;
  const auto make = [&](unsigned concurrency) {
    return Campaign{scenario().verfploeter(), routes()}
        .probe(probe)
        .rounds(5)
        .interval(util::SimTime::from_minutes(15))
        .concurrency(concurrency)
        .run();
  };
  const auto sequential = make(1);
  for (const unsigned concurrency : {2u, 5u}) {
    const auto concurrent = make(concurrency);
    ASSERT_EQ(concurrent.size(), sequential.size());
    for (std::size_t r = 0; r < sequential.size(); ++r) {
      // Round order, not completion order.
      EXPECT_EQ(concurrent[r].map.measurement_id, 800u + r);
      EXPECT_EQ(concurrent[r].map.mapped_blocks(),
                sequential[r].map.mapped_blocks());
      EXPECT_EQ(concurrent[r].map.cleaning.raw_replies,
                sequential[r].map.cleaning.raw_replies);
      EXPECT_EQ(concurrent[r].map.cleaning.kept,
                sequential[r].map.cleaning.kept);
      EXPECT_EQ(concurrent[r].raw_replies_per_site,
                sequential[r].raw_replies_per_site);
      for (const auto& [block, site] : sequential[r].map.entries()) {
        EXPECT_EQ(concurrent[r].map.site_of(block), site);
        EXPECT_EQ(concurrent[r].map.rtt_of(block),
                  sequential[r].map.rtt_of(block));
      }
    }
  }
}

TEST(CatchmentMap, SiteOfUnknownBlock) {
  CatchmentMap map;
  EXPECT_EQ(map.site_of(net::Block24{1}), anycast::kUnknownSite);
  map.set(net::Block24{1}, 0);
  EXPECT_EQ(map.site_of(net::Block24{1}), 0);
  EXPECT_TRUE(map.contains(net::Block24{1}));
  // First write wins (duplicate replies never overwrite).
  map.set(net::Block24{1}, 1);
  EXPECT_EQ(map.site_of(net::Block24{1}), 0);
}

// ---- the dense block-indexed map -----------------------------------------

using Pair = std::pair<net::Block24, anycast::SiteId>;

std::vector<Pair> pairs_of(const CatchmentMap& map) {
  return {map.entries().begin(), map.entries().end()};
}

TEST(CatchmentMap, IteratesMappedBlocksInAscendingOrder) {
  CatchmentMap map;
  map.cover(net::Block24{100}, net::Block24{199});
  for (const std::uint32_t b : {150u, 100u, 199u, 120u})
    map.set(net::Block24{b}, static_cast<anycast::SiteId>(b % 3));
  EXPECT_EQ(pairs_of(map),
            (std::vector<Pair>{{net::Block24{100}, 1},
                               {net::Block24{120}, 0},
                               {net::Block24{150}, 0},
                               {net::Block24{199}, 1}}));
  EXPECT_EQ(map.mapped_blocks(), 4u);
  EXPECT_EQ(map.entries().size(), 4u);
  EXPECT_TRUE(pairs_of(CatchmentMap{}).empty());
}

TEST(CatchmentMap, FirstWriteWinsForSiteAndRtt) {
  CatchmentMap map;
  EXPECT_TRUE(map.set(net::Block24{7}, 2, 31.5f));
  EXPECT_FALSE(map.set(net::Block24{7}, 1, 99.0f));
  EXPECT_EQ(map.site_of(net::Block24{7}), 2);
  EXPECT_EQ(map.rtt_of(net::Block24{7}), 31.5f);
  EXPECT_EQ(map.mapped_blocks(), 1u);
  // An unknown site is no mapping at all.
  EXPECT_FALSE(map.set(net::Block24{8}, anycast::kUnknownSite, 1.0f));
  EXPECT_FALSE(map.contains(net::Block24{8}));
  EXPECT_EQ(map.mapped_blocks(), 1u);
}

TEST(CatchmentMap, LookupsOutsideTheSpanAreUnmapped) {
  CatchmentMap map;
  map.cover(net::Block24{1000}, net::Block24{1009});
  map.set(net::Block24{1000}, 0, 5.0f);
  map.set(net::Block24{1009}, 1, 6.0f);
  for (const std::uint32_t b : {0u, 999u, 1005u, 1010u, 0xffffffu}) {
    EXPECT_EQ(map.site_of(net::Block24{b}), anycast::kUnknownSite) << b;
    EXPECT_EQ(map.rtt_of(net::Block24{b}), 0.0f) << b;
    EXPECT_FALSE(map.contains(net::Block24{b})) << b;
  }
  EXPECT_EQ(map.rtt_of(net::Block24{1000}), 5.0f);
  EXPECT_EQ(map.rtt_of(net::Block24{1009}), 6.0f);
}

TEST(CatchmentMap, WritesOutsideTheSpanGrowItBothWays) {
  CatchmentMap map;
  map.cover(net::Block24{5000}, net::Block24{5003});
  map.set(net::Block24{5001}, 0, 1.0f);
  map.set(net::Block24{4000}, 1, 2.0f);      // below the base
  map.set(net::Block24{9000}, 2, 3.0f);      // past the end
  map.set(net::Block24{0}, 3, 4.0f);         // the first block
  map.set(net::Block24{0xffffff}, 4, 5.0f);  // the last block
  EXPECT_EQ(pairs_of(map), (std::vector<Pair>{{net::Block24{0}, 3},
                                              {net::Block24{4000}, 1},
                                              {net::Block24{5001}, 0},
                                              {net::Block24{9000}, 2},
                                              {net::Block24{0xffffff}, 4}}));
  EXPECT_EQ(map.rtt_of(net::Block24{5001}), 1.0f);
  EXPECT_EQ(map.rtt_of(net::Block24{4000}), 2.0f);
  EXPECT_EQ(map.rtt_of(net::Block24{9000}), 3.0f);
  EXPECT_EQ(map.rtt_of(net::Block24{0}), 4.0f);
  EXPECT_EQ(map.rtt_of(net::Block24{0xffffff}), 5.0f);
  EXPECT_EQ(map.site_of(net::Block24{5000}), anycast::kUnknownSite);
  EXPECT_EQ(map.mapped_blocks(), 5u);
  // A descending run regrows from the first write alone.
  CatchmentMap down;
  for (std::uint32_t b = 300; b-- > 200;)
    down.set(net::Block24{b}, static_cast<anycast::SiteId>(b % 2));
  EXPECT_EQ(down.mapped_blocks(), 100u);
  EXPECT_EQ(pairs_of(down).front(), (Pair{net::Block24{200}, 0}));
  EXPECT_EQ(pairs_of(down).back(), (Pair{net::Block24{299}, 1}));
}

TEST(CatchmentMap, PerSiteCountsAndFractions) {
  CatchmentMap map;
  EXPECT_EQ(map.fraction_to(0), 0.0);
  for (std::uint32_t b = 0; b < 10; ++b)
    map.set(net::Block24{0x010000 + 3 * b},
            static_cast<anycast::SiteId>(b < 6 ? 0 : (b < 9 ? 1 : 3)));
  EXPECT_EQ(map.per_site_counts(3), (std::vector<std::uint64_t>{6, 3, 0}));
  EXPECT_EQ(map.per_site_counts(4), (std::vector<std::uint64_t>{6, 3, 0, 1}));
  EXPECT_DOUBLE_EQ(map.fraction_to(0), 0.6);
  EXPECT_DOUBLE_EQ(map.fraction_to(1), 0.3);
  EXPECT_DOUBLE_EQ(map.fraction_to(2), 0.0);
  EXPECT_DOUBLE_EQ(map.fraction_to(anycast::kUnknownSite), 0.0);
}

TEST(CatchmentMap, EqualityIsLogicalNotBySpan) {
  CatchmentMap narrow, wide;
  wide.cover(net::Block24{0}, net::Block24{1 << 20});
  for (CatchmentMap* map : {&narrow, &wide}) {
    map->set(net::Block24{4242}, 1, 7.0f);
    map->set(net::Block24{4243}, 0, 8.0f);
  }
  EXPECT_EQ(narrow.entries(), wide.entries());
  wide.set(net::Block24{5}, 0);
  EXPECT_FALSE(narrow.entries() == wide.entries());
  narrow.set(net::Block24{5}, 1);  // same block, other site
  EXPECT_FALSE(narrow.entries() == wide.entries());
  // Copies compare equal to their source.
  const CatchmentMap copy = wide;
  EXPECT_EQ(copy.entries(), wide.entries());
  EXPECT_EQ(copy.rtt_of(net::Block24{4243}), 8.0f);
}

}  // namespace
}  // namespace vp::core
