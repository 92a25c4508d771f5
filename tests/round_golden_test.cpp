// Golden digests of whole measurement rounds. Every other determinism
// proof compares runs inside one binary (threads x tiles x cache x
// faults), so a change that moves every run the same way — a reordered
// fault draw, a different packet byte, a cleaning rule applied in another
// order — passes them all. This test pins the round's output bytes
// across commits instead: for a small B-Root round, clean, under a
// seeded fault plan with retries, and with extra targets per block, it
// records the CRC-32 of the catchment CSV plus every CleaningStats and
// FaultStats counter, at 1 and 4 probe threads, against a committed file.
//
// Regenerate after an *intentional* change to round output with:
//   VP_UPDATE_GOLDEN=1 ./round_golden_test
// and commit the updated tests/golden/round_digests.txt with a note
// explaining why the bytes moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/scenario.hpp"
#include "core/dataset_io.hpp"
#include "core/verfploeter.hpp"
#include "sim/fault_injector.hpp"
#include "util/atomic_file.hpp"

#ifndef VP_GOLDEN_DIR
#error "build must define VP_GOLDEN_DIR"
#endif

namespace vp::core {
namespace {

std::string golden_path() {
  return std::string{VP_GOLDEN_DIR} + "/round_digests.txt";
}

struct GoldenCase {
  const char* name;
  bool faults;
  int retries;
  int extra_targets;
};

constexpr GoldenCase kCases[] = {
    {"clean", false, 0, 0},
    {"faults_seed7_retries2", true, 2, 0},
    {"faults_seed7_retries2_extra2", true, 2, 2},
};

std::string digest(const analysis::Scenario& scenario,
                   const bgp::RoutingTable& routes, const GoldenCase& c,
                   unsigned threads) {
  const sim::FaultInjector injector{sim::FaultPlan::from_seed(7)};
  RoundSpec spec;
  spec.probe.measurement_id = 7300;
  spec.probe.max_retries = c.retries;
  spec.probe.extra_targets_per_block = c.extra_targets;
  spec.round = 1;
  spec.start = util::SimTime::from_minutes(15);
  spec.threads = threads;
  spec.faults = c.faults ? &injector : nullptr;
  const RoundResult result = scenario.verfploeter().run(routes, spec);

  std::ostringstream csv;
  write_catchment_csv(csv, result, scenario.broot());
  const CleaningStats& s = result.map.cleaning;
  const sim::FaultStats& f = result.faults;

  std::ostringstream out;
  out << "[" << c.name << " threads=" << threads << "]\n";
  out << "csv_crc32 " << std::hex << util::crc32(csv.str()) << std::dec
      << "\n";
  out << "raw_replies " << s.raw_replies << "\n";
  out << "malformed " << s.malformed << "\n";
  out << "wrong_id " << s.wrong_id << "\n";
  out << "unsolicited " << s.unsolicited << "\n";
  out << "duplicates " << s.duplicates << "\n";
  out << "late " << s.late << "\n";
  out << "kept " << s.kept << "\n";
  out << "probes_lost " << f.probes_lost << "\n";
  out << "replies_generated " << f.replies_generated << "\n";
  out << "replies_lost " << f.replies_lost << "\n";
  out << "rate_limited " << f.rate_limited << "\n";
  out << "outage_drops " << f.outage_drops << "\n";
  out << "withdrawn " << f.withdrawn << "\n";
  out << "diverted " << f.diverted << "\n";
  out << "delayed " << f.delayed << "\n";
  out << "retries " << f.retries << "\n";
  out << "recovered " << f.recovered << "\n";
  return out.str();
}

std::string build_digests() {
  analysis::ScenarioConfig config;
  config.seed = 42;
  config.scale = 0.03;  // ~3.6k blocks: six rounds stay well under a second
  const analysis::Scenario scenario{config};
  const auto routes = scenario.route(scenario.broot());
  std::string all;
  for (const GoldenCase& c : kCases)
    for (unsigned threads : {1u, 4u})
      all += digest(scenario, *routes, c, threads);
  return all;
}

TEST(RoundGolden, DigestsMatchCommittedGolden) {
  const std::string digests = build_digests();
  if (std::getenv("VP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path(), std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << digests;
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }
  std::ifstream in{golden_path(), std::ios::binary};
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " (run with VP_UPDATE_GOLDEN=1 to create it)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), digests)
      << "round output drifted from the committed digests; if intentional, "
         "regenerate with VP_UPDATE_GOLDEN=1 and explain the change";
}

}  // namespace
}  // namespace vp::core
