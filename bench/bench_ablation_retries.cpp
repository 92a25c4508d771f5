// Ablation: single-probe hitlist vs multi-target probing (§3.1: "We could
// improve the response rate by probing multiple targets in each block (as
// Trinocular does), or retrying immediately. Exploration of these options
// is future work.") — we explore both: coverage and traffic cost per
// extra target, and retry/backoff sweeps against an injected-loss plan
// (sim::FaultInjector), including the cross of the two knobs.
#include "bench/harness.hpp"
#include "core/verfploeter.hpp"
#include "sim/fault_injector.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{bench::config_from_env(0.5)};
  bench::banner("Ablation", "multi-target probing vs the one-probe hitlist",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  util::Table table{{"targets/block", "probes", "blocks mapped", "coverage",
                     "marginal blocks per 1k probes"}};
  std::uint64_t base_probes = 0, base_mapped = 0;
  std::uint64_t prev_probes = 0, prev_mapped = 0;
  std::vector<double> coverages;
  for (const int extra : {0, 1, 2, 4, 8}) {
    core::ProbeConfig probe;
    probe.measurement_id = static_cast<std::uint32_t>(9000 + extra);
    probe.extra_targets_per_block = extra;
    const auto map = scenario.verfploeter().run(routes, {probe, 0}).map;
    const double coverage =
        static_cast<double>(map.mapped_blocks()) /
        static_cast<double>(map.blocks_probed);
    coverages.push_back(coverage);
    std::string marginal = "-";
    if (prev_probes != 0) {
      marginal = util::fixed(
          1000.0 * static_cast<double>(map.mapped_blocks() - prev_mapped) /
              static_cast<double>(map.probes_sent - prev_probes),
          1);
    } else {
      base_probes = map.probes_sent;
      base_mapped = map.mapped_blocks();
    }
    table.add_row({std::to_string(1 + extra),
                   util::with_commas(map.probes_sent),
                   util::with_commas(map.mapped_blocks()),
                   util::percent(coverage), marginal});
    prev_probes = map.probes_sent;
    prev_mapped = map.mapped_blocks();
  }
  std::printf("%s\n", table.to_string().c_str());

  // Traffic cost accounting (paper §3.1: one probe per /24 cuts traffic
  // to 0.4% of a complete IPv4 scan; a whole measurement is ~128 MB).
  std::vector<std::uint8_t> probe;
  net::build_echo_request_into(probe, net::Ipv4Address{192, 0, 2, 1},
                               net::Ipv4Address{1, 2, 3, 4}, 1, 1,
                               net::ProbePayload{});
  const std::size_t probe_bytes = probe.size();
  const double hitlist_mb =
      static_cast<double>(base_probes) * probe_bytes / 1e6;
  const double full_scan_mb =
      static_cast<double>(base_probes) * 256.0 * probe_bytes / 1e6;
  std::printf("traffic cost: %.1f MB per hitlist measurement (%s bytes x "
              "%s probes); a full per-address scan would be %.0f MB\n\n",
              hitlist_mb, util::with_commas(probe_bytes).c_str(),
              util::with_commas(base_probes).c_str(), full_scan_mb);

  // --- retry/backoff sweep under injected loss ---------------------------
  // A lossy-but-plausible Internet: 20% forward loss, 10% return loss,
  // plus mild ICMP rate-limiting. Retries are the paper's deferred
  // future work; the sweep shows what they buy and what they cost.
  sim::FaultPlan plan;
  plan.seed = 2017;
  plan.probe_loss_rate = 0.20;
  plan.reply_loss_rate = 0.10;
  plan.rate_limit_site_rate = 0.5;
  plan.rate_limit_drop_rate = 0.15;
  const sim::FaultInjector injector{plan};

  const auto faulty_run = [&](int retries, double backoff_ms,
                              int extra_targets) {
    core::RoundSpec spec;
    spec.probe.measurement_id =
        static_cast<std::uint32_t>(9500 + retries * 10 + extra_targets);
    spec.probe.extra_targets_per_block = extra_targets;
    spec.probe.max_retries = retries;
    spec.probe.retry_backoff_ms = backoff_ms;
    spec.faults = &injector;
    return scenario.verfploeter().run(routes, spec);
  };

  const double clean_coverage = coverages.front();
  util::Table retry_table{{"retries", "probes", "coverage", "recovered",
                           "marginal blocks per 1k probes"}};
  std::vector<double> retry_coverages;
  std::uint64_t rprev_probes = 0, rprev_mapped = 0;
  for (const int retries : {0, 1, 2, 4}) {
    const auto result = faulty_run(retries, 250.0, 0);
    const auto& map = result.map;
    const double coverage = static_cast<double>(map.mapped_blocks()) /
                            static_cast<double>(map.blocks_probed);
    retry_coverages.push_back(coverage);
    std::string marginal = "-";
    if (rprev_probes != 0) {
      marginal = util::fixed(
          1000.0 * static_cast<double>(map.mapped_blocks() - rprev_mapped) /
              static_cast<double>(map.probes_sent - rprev_probes),
          1);
    }
    retry_table.add_row({std::to_string(retries),
                         util::with_commas(map.probes_sent),
                         util::percent(coverage),
                         util::with_commas(result.faults.recovered),
                         marginal});
    rprev_probes = map.probes_sent;
    rprev_mapped = map.mapped_blocks();
  }
  std::printf("retries under a lossy plan (20%% fwd / 10%% rtn loss, "
              "rate-limiting):\n%s\n",
              retry_table.to_string().c_str());

  // Backoff sweep: spacing changes reply timing, not reachability, so
  // coverage should barely move while the probing tail stretches.
  util::Table backoff_table{{"backoff ms", "coverage", "late replies"}};
  std::vector<double> backoff_coverages;
  for (const double backoff_ms : {50.0, 250.0, 2'000.0}) {
    const auto result = faulty_run(2, backoff_ms, 0);
    backoff_coverages.push_back(
        static_cast<double>(result.map.mapped_blocks()) /
        static_cast<double>(result.map.blocks_probed));
    backoff_table.add_row({util::fixed(backoff_ms, 0),
                           util::percent(backoff_coverages.back()),
                           util::with_commas(result.map.cleaning.late)});
  }
  std::printf("backoff sweep (2 retries, same plan):\n%s\n",
              backoff_table.to_string().c_str());

  // Crossing the knobs: extra targets fix stale hitlist entries, retries
  // fix loss; under a lossy plan they stack.
  util::Table cross_table{{"targets/block", "retries", "probes",
                           "coverage"}};
  double cross_base = 0.0, cross_both = 0.0;
  for (const int extra : {0, 1}) {
    for (const int retries : {0, 2}) {
      const auto result = faulty_run(retries, 250.0, extra);
      const double coverage =
          static_cast<double>(result.map.mapped_blocks()) /
          static_cast<double>(result.map.blocks_probed);
      if (extra == 0 && retries == 0) cross_base = coverage;
      if (extra == 1 && retries == 2) cross_both = coverage;
      cross_table.add_row({std::to_string(1 + extra),
                           std::to_string(retries),
                           util::with_commas(result.map.probes_sent),
                           util::percent(coverage)});
    }
  }
  std::printf("multi-target x retries under the same plan:\n%s\n",
              cross_table.to_string().c_str());

  std::printf("shape checks:\n");
  bench::shape("hitlist traffic is a sliver of a full scan", "0.4%",
               util::percent(hitlist_mb / full_scan_mb),
               std::abs(hitlist_mb / full_scan_mb - 1.0 / 256.0) < 1e-9);
  bench::shape("extra targets raise coverage", "rising",
               util::percent(coverages.front()) + " -> " +
                   util::percent(coverages.back()),
               coverages.back() > coverages.front() + 0.02);
  // Per-probe marginals: the step 0->1 adds 1 probe/block, the last step
  // (4->8) adds 4, so normalize before comparing.
  const double first_marginal = coverages[1] - coverages[0];
  const double last_marginal =
      (coverages.back() - coverages[coverages.size() - 2]) / 4.0;
  bench::shape("with diminishing returns per probe", "diminishing",
               util::percent(first_marginal) + " then " +
                   util::percent(last_marginal) + " per probe",
               first_marginal > last_marginal);
  bench::shape("paper's one-probe design already catches most of it",
               "~55%", util::percent(coverages.front()),
               coverages.front() > 0.8 * coverages.back());
  bench::shape("injected loss dents coverage", "below clean",
               util::percent(retry_coverages.front()) + " vs " +
                   util::percent(clean_coverage),
               retry_coverages.front() < clean_coverage - 0.02);
  bench::shape("retries claw it back monotonically", "rising to ~clean",
               util::percent(retry_coverages.front()) + " -> " +
                   util::percent(retry_coverages.back()),
               retry_coverages.back() > clean_coverage - 0.01 &&
                   retry_coverages[1] >= retry_coverages[0] &&
                   retry_coverages[2] >= retry_coverages[1] &&
                   retry_coverages[3] >= retry_coverages[2]);
  bench::shape("backoff spacing is coverage-neutral", "flat",
               util::percent(backoff_coverages.front()) + " ~ " +
                   util::percent(backoff_coverages.back()),
               std::abs(backoff_coverages.front() -
                        backoff_coverages.back()) < 0.01);
  bench::shape("retries and extra targets stack under loss", "stacking",
               util::percent(cross_base) + " -> " + util::percent(cross_both),
               cross_both > cross_base + 0.05);
  (void)base_mapped;
  return 0;
}
