// Ablation: what the §4 data-cleaning pipeline is worth. Re-runs one
// B-Root round and compares the cleaned catchment map against a naive
// map built from raw replies (no dedup, no unsolicited/late filters),
// scoring both against the simulator's ground truth.
#include <unordered_map>

#include "bench/harness.hpp"
#include "core/verfploeter.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{bench::config_from_env(0.5)};
  bench::banner("Ablation", "value of the data-cleaning pipeline (§4)",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;

  // Re-implement a "no cleaning" collector path: every raw reply counts,
  // attribution by reply source, later replies overwrite earlier ones.
  const auto& hitlist = scenario.hitlist();
  const auto& internet = scenario.internet();
  std::unordered_map<std::uint32_t, anycast::SiteId> naive;  // block->site
  std::uint64_t raw_replies = 0;
  util::SimTime now{};
  const util::SimTime gap = util::SimTime::from_seconds(1.0 / 10'000.0);
  std::vector<std::uint8_t> probe;
  std::vector<std::uint8_t> reply;
  std::vector<sim::DeliveryView> deliveries;
  sim::DataplaneTally dataplane;
  for (const auto& entry : hitlist.entries()) {
    net::ProbePayload payload;
    payload.measurement_id = 424242;
    payload.tx_time_usec = now.usec;
    payload.original_target = entry.target;
    net::build_echo_request_into(probe, scenario.broot().measurement_address,
                                 entry.target, 42, 1, payload);
    internet.probe_into(routes, probe, now, 0, deliveries, reply, dataplane);
    // Every delivery of one probe carries the same reply bytes.
    const auto parsed = net::parse_reply_view(reply);
    for (const auto& delivery : deliveries) {
      ++raw_replies;
      if (!parsed) continue;
      naive[net::Block24::containing(parsed->ip.source).index()] =
          delivery.site;  // last reply wins; no filters at all
    }
    now += gap;
  }
  sim::InternetSim::flush(dataplane);

  core::RoundSpec spec;
  spec.probe.measurement_id = 424242;
  bench::RoundTally tally;
  const auto clean = scenario.verfploeter().run(routes, spec, &tally).map;

  std::uint64_t clean_correct = 0, clean_wrong = 0;
  for (const auto& [block, site] : clean.entries()) {
    if (site == internet.ground_truth_site(routes, block, 0))
      ++clean_correct;
    else
      ++clean_wrong;
  }
  std::uint64_t naive_correct = 0, naive_wrong = 0, naive_phantom = 0;
  for (const auto& [index, site] : naive) {
    const net::Block24 block{index};
    if (scenario.topo().block_info(block) == nullptr) {
      ++naive_phantom;  // a block we never probed (cross-block alias)
      continue;
    }
    if (site == internet.ground_truth_site(routes, block, 0))
      ++naive_correct;
    else
      ++naive_wrong;
  }

  util::Table table{{"pipeline", "blocks mapped", "correct", "wrong",
                     "error rate"},
                    {util::Align::kLeft}};
  table.add_row({"cleaned (§4)", util::with_commas(clean.mapped_blocks()),
                 util::with_commas(clean_correct),
                 util::with_commas(clean_wrong),
                 util::percent(static_cast<double>(clean_wrong) /
                               static_cast<double>(clean.mapped_blocks()))});
  table.add_row(
      {"naive (raw replies)", util::with_commas(naive.size()),
       util::with_commas(naive_correct),
       util::with_commas(naive_wrong + naive_phantom),
       util::percent(static_cast<double>(naive_wrong + naive_phantom) /
                     static_cast<double>(naive.size()))});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("raw replies handled: %s (cleaned pipeline dropped %s)\n\n",
              util::with_commas(raw_replies).c_str(),
              util::with_commas(tally.cleaning.dropped()).c_str());

  std::printf("shape checks:\n");
  bench::shape("cleaned map agrees with ground truth", "100%",
               util::percent(static_cast<double>(clean_correct) /
                             static_cast<double>(clean.mapped_blocks())),
               clean_wrong == 0);
  bench::shape("naive map contains wrong/phantom attributions", ">0",
               util::with_commas(naive_wrong + naive_phantom),
               naive_wrong + naive_phantom > 0);
  return 0;
}
