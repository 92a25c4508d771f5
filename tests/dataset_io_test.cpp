#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "analysis/scenario.hpp"
#include "core/dataset_io.hpp"
#include "util/rng.hpp"

namespace vp::core {
namespace {

anycast::Deployment test_deployment() {
  topology::Topology empty;
  return anycast::make_broot(empty);
}

RoundResult small_round() {
  RoundResult round;
  round.map.set(net::Block24{0x010203}, 0, 12.34f);
  round.map.set(net::Block24{0x010204}, 1, 256.5f);
  round.map.set(net::Block24{0x0a0b0c}, 0, 99.99f);
  return round;
}

TEST(DatasetIo, CatchmentCsvRoundTrip) {
  const auto deployment = test_deployment();
  const RoundResult round = small_round();
  std::stringstream stream;
  write_catchment_csv(stream, round, deployment);

  const auto loaded = read_catchment_csv(stream, deployment);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->map.mapped_blocks(), round.map.mapped_blocks());
  for (const auto& [block, site] : round.map.entries()) {
    EXPECT_EQ(loaded->map.site_of(block), site);
    EXPECT_NEAR(loaded->map.rtt_of(block), round.map.rtt_of(block), 0.01);
  }
}

TEST(DatasetIo, CatchmentCsvIsSortedAndStable) {
  const auto deployment = test_deployment();
  std::stringstream a, b;
  write_catchment_csv(a, small_round(), deployment);
  write_catchment_csv(b, small_round(), deployment);
  EXPECT_EQ(a.str(), b.str());
  // Sorted by block: 1.2.3.0 before 1.2.4.0 before 10.11.12.0.
  const std::string text = a.str();
  EXPECT_LT(text.find("1.2.3.0/24"), text.find("1.2.4.0/24"));
  EXPECT_LT(text.find("1.2.4.0/24"), text.find("10.11.12.0/24"));
}

TEST(DatasetIo, CatchmentRejectsMalformedInput) {
  const auto deployment = test_deployment();
  const auto reject = [&](const std::string& text) {
    std::stringstream stream{text};
    EXPECT_FALSE(read_catchment_csv(stream, deployment)) << text;
  };
  reject("");                                      // no header
  reject("wrong,header,row\n");                    // bad header
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX\n");   // missing field
  reject("block,site,rtt_ms\n1.2.3.0/24,XXX,1\n"); // unknown site
  reject("block,site,rtt_ms\nnot-a-prefix,LAX,1\n");
  reject("block,site,rtt_ms\n1.2.0.0/16,LAX,1\n");  // not a /24
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX,-5\n"); // negative RTT
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX,abc\n");
  reject(
      "block,site,rtt_ms\n1.2.3.0/24,LAX,1\n1.2.3.0/24,MIA,2\n");  // dup
}

TEST(DatasetIo, LoadCsvRoundTrip) {
  analysis::ScenarioConfig config;
  config.scale = 0.03;
  const analysis::Scenario scenario{config};
  const auto load = scenario.broot_load(1);

  std::stringstream stream;
  write_load_csv(stream, load);
  const auto dataset = read_load_csv(stream);
  ASSERT_TRUE(dataset);
  ASSERT_EQ(dataset->blocks.size(), load.blocks().size());
  EXPECT_NEAR(dataset->total_daily_queries, load.total_daily_queries(),
              load.total_daily_queries() * 1e-4);
  for (std::size_t i = 0; i < dataset->blocks.size(); i += 13) {
    EXPECT_EQ(dataset->blocks[i].block, load.blocks()[i].block);
    EXPECT_NEAR(dataset->blocks[i].daily_queries,
                load.blocks()[i].daily_queries,
                load.blocks()[i].daily_queries * 1e-4 + 1e-9);
  }
}

TEST(DatasetIo, LoadCsvRejectsMalformed) {
  const auto reject = [&](const std::string& text) {
    std::stringstream stream{text};
    EXPECT_FALSE(read_load_csv(stream)) << text;
  };
  reject("");
  reject("block,daily_queries,good_fraction\n1.2.3.0/24,-1,0.5\n");
  reject("block,daily_queries,good_fraction\n1.2.3.0/24,10,1.5\n");
  reject("block,daily_queries,good_fraction\n1.2.3.0/24,10\n");
}

TEST(DatasetIo, FileRoundTrip) {
  const auto deployment = test_deployment();
  const RoundResult round = small_round();
  const std::string path = "/tmp/vp_dataset_io_test.csv";
  ASSERT_TRUE(save_catchment(path, round, deployment));
  const auto loaded = load_catchment(path, deployment);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->map.mapped_blocks(), 3u);
  EXPECT_FALSE(load_catchment("/nonexistent/nope.csv", deployment));
  std::remove(path.c_str());
}

TEST(DatasetIo, TruncatedCatchmentFileIsRejectedCleanly) {
  // A partially-written dataset (disk full, killed exporter) must fail
  // the load as a whole, never crash or return a half-read map.
  const auto deployment = test_deployment();
  std::stringstream full;
  write_catchment_csv(full, small_round(), deployment);
  const std::string text = full.str();
  const std::string path = "/tmp/vp_dataset_io_truncated.csv";
  // Chop so the surviving tail is a structurally broken row (losing
  // only trailing digits would still parse): mid-header, mid-prefix of
  // the last row, and right after the last row's site field.
  for (const std::size_t keep :
       {std::size_t{8}, text.rfind('\n', text.size() - 2) + 3,
        text.rfind(',')}) {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, keep);
    out.close();
    EXPECT_FALSE(load_catchment(path, deployment)) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, BadMagicIsRejectedCleanly) {
  // Wrong "magic" (header line) — including a load CSV handed to the
  // catchment reader and vice versa — must be a clean nullopt.
  const auto deployment = test_deployment();
  std::stringstream load_header{"block,daily_queries,good_fraction\n"};
  EXPECT_FALSE(read_catchment_csv(load_header, deployment));
  std::stringstream catchment_header{"block,site,rtt_ms\n"};
  EXPECT_FALSE(read_load_csv(catchment_header));
  std::stringstream bom{"\xef\xbb\xbf"
                        "block,site,rtt_ms\n"};
  EXPECT_FALSE(read_catchment_csv(bom, deployment));
  std::stringstream binary{std::string("\x89PNG\r\n\x1a\n\0\0\0", 11)};
  EXPECT_FALSE(read_catchment_csv(binary, deployment));
  EXPECT_FALSE(read_load_csv(binary));
}

TEST(DatasetIo, CorruptedRowsAreRejectedCleanly) {
  const auto deployment = test_deployment();
  const auto reject = [&](const std::string& row) {
    std::stringstream stream{"block,site,rtt_ms\n" + row + "\n"};
    EXPECT_FALSE(read_catchment_csv(stream, deployment)) << row;
  };
  reject("1.2.3.0/24,LAX,1.0,extra-field");
  reject("1.2.3.0/24,LAX,");                       // empty numeric field
  reject(",,");                                    // all fields empty
  reject("1.2.3.0/24,LAX,nan");                    // non-finite RTT
  reject("1.2.3.0/24,LAX,1e");                     // dangling exponent
  reject("999.2.3.0/24,LAX,1.0");                  // octet out of range
  reject(std::string("1.2.3.0/24,L\0X,1.0", 18));  // embedded NUL
  reject("1.2.3.0/24,LAX,1.0\r");                  // CRLF artifacts

  const auto reject_load = [&](const std::string& row) {
    std::stringstream stream{"block,daily_queries,good_fraction\n" + row +
                             "\n"};
    EXPECT_FALSE(read_load_csv(stream)) << row;
  };
  reject_load("1.2.3.0/24,abc,0.5");
  reject_load("1.2.3.0/24,10,0.5,extra");
  reject_load("garbage row with no commas at all");
}

TEST(DatasetIo, LoadCsvRejectsDuplicateBlockRows) {
  // A repeated block row must fail the load: silently accepting it would
  // double-count the block into total_daily_queries.
  std::stringstream dup{
      "block,daily_queries,good_fraction\n"
      "1.2.3.0/24,10,0.5\n"
      "4.5.6.0/24,20,0.5\n"
      "1.2.3.0/24,10,0.5\n"};
  EXPECT_FALSE(read_load_csv(dup));
  std::stringstream unique{
      "block,daily_queries,good_fraction\n"
      "1.2.3.0/24,10,0.5\n"
      "4.5.6.0/24,20,0.5\n"};
  const auto dataset = read_load_csv(unique);
  ASSERT_TRUE(dataset);
  EXPECT_DOUBLE_EQ(dataset->total_daily_queries, 30.0);
}

// ---- randomized round-trip properties ---------------------------------
//
// write_* → read_* must be the identity up to the declared formatting
// precision, and a second write must be byte-identical to the first
// (the formats are fixpoints of their own parse→print cycle).

TEST(DatasetIo, CatchmentRoundTripPropertyRandomized) {
  const auto deployment = test_deployment();
  util::Rng rng{2024};
  // RTT edge values the formatter must survive: zero, sub-precision
  // fractions (round to 0.00), large values, and exact fractions.
  const float edge_rtts[] = {0.0f, 0.004f, 0.25f, 123.456f, 987654.3f};
  for (int iteration = 0; iteration < 40; ++iteration) {
    RoundResult round;
    const int entries = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < entries; ++i) {
      const net::Block24 block{static_cast<std::uint32_t>(rng.below(1 << 24))};
      if (round.map.contains(block)) continue;
      const auto site = static_cast<anycast::SiteId>(
          rng.below(deployment.sites.size()));
      const float rtt = rng.chance(0.2)
                            ? edge_rtts[rng.below(std::size(edge_rtts))]
                            : static_cast<float>(rng.uniform(0.0, 500.0));
      // Some blocks map without an RTT (the default 0).
      round.map.set(block, site, rng.chance(0.9) ? rtt : 0.0f);
    }
    std::stringstream first;
    write_catchment_csv(first, round, deployment);
    const auto loaded = read_catchment_csv(first, deployment);
    ASSERT_TRUE(loaded) << "iteration " << iteration;
    ASSERT_EQ(loaded->map.mapped_blocks(), round.map.mapped_blocks());
    for (const auto& [block, site] : round.map.entries()) {
      EXPECT_EQ(loaded->map.site_of(block), site);
      // %.2f rounds to a hundredth.
      EXPECT_NEAR(loaded->map.rtt_of(block), round.map.rtt_of(block), 0.0051)
          << "iteration " << iteration;
    }
    std::stringstream second;
    write_catchment_csv(second, *loaded, deployment);
    EXPECT_EQ(first.str(), second.str()) << "iteration " << iteration;
  }
}

TEST(DatasetIo, LoadRoundTripPropertyRandomized) {
  util::Rng rng{4711};
  const double edge_queries[] = {0.0, 0.25, 1.0, 9.87654e11, 1580.5};
  const float edge_good[] = {0.0f, 1.0f, 0.4567f};
  for (int iteration = 0; iteration < 40; ++iteration) {
    std::vector<dnsload::BlockLoad> blocks;
    std::unordered_set<std::uint32_t> used;
    const int entries = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < entries; ++i) {
      const auto index = static_cast<std::uint32_t>(rng.below(1 << 24));
      if (!used.insert(index).second) continue;
      dnsload::BlockLoad bl;
      bl.block = net::Block24{index};
      bl.daily_queries = rng.chance(0.2)
                             ? edge_queries[rng.below(std::size(edge_queries))]
                             : rng.pareto(1.0, 1.2);
      bl.good_fraction = rng.chance(0.2)
                             ? edge_good[rng.below(std::size(edge_good))]
                             : static_cast<float>(rng.uniform());
      blocks.push_back(bl);
    }
    std::stringstream first;
    write_load_csv(first, blocks);
    const auto loaded = read_load_csv(first);
    ASSERT_TRUE(loaded) << "iteration " << iteration;
    ASSERT_EQ(loaded->blocks.size(), blocks.size());
    double expected_total = 0.0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(loaded->blocks[i].block, blocks[i].block);
      // %.6g keeps six significant digits.
      EXPECT_NEAR(loaded->blocks[i].daily_queries, blocks[i].daily_queries,
                  blocks[i].daily_queries * 1e-5 + 1e-9);
      EXPECT_NEAR(loaded->blocks[i].good_fraction, blocks[i].good_fraction,
                  5.1e-5);
      expected_total += loaded->blocks[i].daily_queries;
    }
    EXPECT_DOUBLE_EQ(loaded->total_daily_queries, expected_total);
    std::stringstream second;
    write_load_csv(second, loaded->blocks);
    EXPECT_EQ(first.str(), second.str()) << "iteration " << iteration;
  }
}

TEST(DatasetIo, MeasuredRoundSurvivesExportImport) {
  analysis::ScenarioConfig config;
  config.scale = 0.03;
  const analysis::Scenario scenario{config};
  const auto routes_ptr = scenario.route(scenario.broot());
  const auto& routes = *routes_ptr;
  ProbeConfig probe;
  probe.measurement_id = 50;
  const auto round = scenario.verfploeter().run(routes, {probe, 0});

  std::stringstream stream;
  write_catchment_csv(stream, round, scenario.broot());
  const auto loaded = read_catchment_csv(stream, scenario.broot());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->map.mapped_blocks(), round.map.mapped_blocks());
  EXPECT_NEAR(loaded->map.fraction_to(0), round.map.fraction_to(0), 1e-9);
}

}  // namespace
}  // namespace vp::core
