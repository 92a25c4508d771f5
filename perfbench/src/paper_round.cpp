// paper_round: the operator's paper-scale mapping cycle.
//
// A generated 6.4M-block Internet (13 blocks per AS) with 9 generated
// sites. Cycles run back to back with 4 probe threads and one RoundArena:
//   InternetSim::warm -> Verfploeter::run -> core::save_catchment
//   -> CampaignJournal::append_round -> drop the previous RoundResult.
// Cycle 0 is the cold round alone, on a fresh arena and an unwarmed
// routing table; its result is the one cycle 1 drops. Cycles 1 and on are
// the full warm cycle.
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "anycast/deployment.hpp"
#include "bench.hpp"
#include "bgp/routing_engine.hpp"
#include "core/dataset_io.hpp"
#include "core/journal.hpp"
#include "core/verfploeter.hpp"
#include "dnsload/load_model.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "stats.hpp"
#include "topology/scale_generator.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"

namespace vpbench {

namespace {

constexpr std::uint32_t kBlocks = 6'400'000;
constexpr double kBlocksPerAs = 13.0;
constexpr std::size_t kSites = 9;
constexpr unsigned kThreads = 4;
// A run of this workload takes 57-79 s, depending on how loaded the
// machine is, and 26 of them have to fit the benchmark's time budget
// beside the other workloads' runs. Hence two set-ups of 3.5-4.5 s, and
// the cold round plus two warm cycles whatever --seconds says: a warm
// cycle takes 11-18 s on 4 cores and the output check reloads and
// re-exports every journaled round (9-13 s per round), so a third warm
// cycle would add 20-30 s to every run. The cold round writes no CSV and
// no journal entry for the same reason.
constexpr int kSetups = 2;
constexpr std::size_t kMinCycles = 3;
constexpr std::size_t kMaxCycles = 5;  // bounds the journal check's memory

using vp::util::hash_combine;

struct World {
  vp::topology::Topology topo;
  std::unique_ptr<vp::sim::InternetSim> internet;
  vp::anycast::Deployment deployment;
  vp::hitlist::Hitlist hitlist;
  std::shared_ptr<const vp::bgp::RoutingTable> routes;
  std::unique_ptr<vp::dnsload::LoadModel> load;
  std::unique_ptr<vp::core::Verfploeter> verfploeter;
};

/// Builds the world from public calls, one span per layer.
std::unique_ptr<World> build_world(std::uint64_t seed, Tracer& tracer,
                                   int setup_span, std::uint64_t op,
                                   LayerSamples& layers) {
  auto world = std::make_unique<World>();
  const auto timed = [&](const char* span, const char* layer, auto&& body) {
    timed_layer(tracer, span, setup_span, op, layers, layer, body);
  };
  timed("topology.generate", "topology.generate_s", [&] {
    vp::topology::ScaleConfig config;
    config.seed = seed;
    config.target_blocks = kBlocks;
    config.as_count = static_cast<std::uint32_t>(kBlocks / kBlocksPerAs);
    config.threads = kThreads;
    world->topo = vp::topology::generate_scale_topology(config);
  });
  timed("sim.internet", "sim.internet_s", [&] {
    vp::sim::InternetConfig config;
    config.responsiveness.seed = hash_combine(seed, 1);
    config.flips.seed = hash_combine(seed, 2);
    world->internet = std::make_unique<vp::sim::InternetSim>(world->topo, config);
    world->deployment = vp::anycast::make_generated(world->topo, kSites, seed);
  });
  timed("hitlist.build", "hitlist.build_s", [&] {
    vp::hitlist::HitlistConfig config;
    config.seed = hash_combine(seed, 3);
    world->hitlist = vp::hitlist::Hitlist::build(
        world->topo, world->internet->responsiveness(), config, kThreads);
  });
  timed("bgp.full", "bgp.full_s", [&] {
    world->routes =
        vp::bgp::RoutingEngine{world->topo, world->deployment}.full();
  });
  timed("dnsload.model", "dnsload.model_s", [&] {
    vp::dnsload::LoadConfig config;
    config.seed = hash_combine(seed, 4);
    config.profile = vp::dnsload::LoadProfile::kRootLike;
    world->load = std::make_unique<vp::dnsload::LoadModel>(
        world->topo, world->internet->responsiveness(), config);
  });
  world->verfploeter =
      std::make_unique<vp::core::Verfploeter>(*world->internet, world->hitlist);
  return world;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

struct CycleRecord {
  double round_s = 0.0;       // warm + run
  double round_cpu_s = 0.0;   // the same, in CPU time
  double map_ms = 0.0;        // round + CSV: a fresh map on disk (warm only)
  double cycle_s = 0.0;       // round + CSV + journal + free (warm only)
  double cycle_cpu_s = 0.0;   // the same, in CPU time
  vp::core::CleaningStats cleaning;
  std::uint64_t blocks_probed = 0;
  std::string csv_path;   // empty for the cold round
};

}  // namespace

Outcome run_paper_round(const Options& options, Tracer& tracer) {
  Outcome outcome;
  LayerSamples layers;

  // ---- setup, repeated; the last world is kept.
  std::vector<double> setups, setups_cpu;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetups; ++rep) {
    world.reset();
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    const int span = tracer.begin("setup", -1, static_cast<std::uint64_t>(rep));
    world = build_world(options.seed, tracer, span,
                        static_cast<std::uint64_t>(rep), layers);
    tracer.end(span);
    setups_cpu.push_back(cpu_seconds() - c0);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  outcome.notes.push_back(
      "world: " + std::to_string(world->topo.as_count()) + " ASes, " +
      std::to_string(world->hitlist.size()) + " hitlist blocks, " +
      std::to_string(kSites) + " sites, " + std::to_string(kThreads) +
      " probe threads");
  outcome.notes.push_back("output directory filesystem: " +
                          filesystem_type(options.work_dir));

  const std::string journal_path = options.work_dir + "/paper.journal";
  vp::core::JournalManifest manifest;
  manifest.fingerprint = hash_combine(options.seed, 0x7061706572);
  manifest.rounds = static_cast<std::uint32_t>(kMaxCycles);
  vp::core::CampaignJournal journal;
  outcome.check(journal.open(journal_path, manifest, /*resume=*/false).status ==
                    vp::core::JournalStatus::kFresh,
                "journal opens fresh");

  // ---- measured cycles.
  vp::util::RoundArena arena;
  std::vector<CycleRecord> cycles;
  std::unique_ptr<vp::core::RoundResult> previous;
  std::vector<std::uint32_t> order_scratch;
  vp::core::ProbeConfig probe;
  probe.order_seed = hash_combine(options.seed, 5);
  RegistryReading hot_before;  // taken once cycle 0 has warmed the arena
  const auto measure_start = Clock::now();
  while (cycles.size() < kMaxCycles &&
         (cycles.size() < kMinCycles ||
          seconds_between(measure_start, Clock::now()) < options.seconds)) {
    const auto k = static_cast<std::uint32_t>(cycles.size());
    CycleRecord record;
    vp::core::RoundSpec spec;
    spec.probe = probe;
    spec.probe.measurement_id = 1000 + k;
    spec.round = k;
    spec.start = vp::util::SimTime::from_minutes(15.0 * k);
    spec.threads = kThreads;
    spec.arena = &arena;

    EnginePhases phases;
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    const int cycle_span = tracer.begin("cycle", -1, k);
    {
      ScopedSpan span{tracer, "bgp.resolver_build", cycle_span, k};
      world->internet->warm(*world->routes);
    }
    const auto t_warm = Clock::now();
    auto result = std::make_unique<vp::core::RoundResult>();
    {
      ScopedSpan span{tracer, "core.engine.run", cycle_span, k};
      phases.start(span.id(), k);
      *result = world->verfploeter->run(*world->routes, spec,
                                        tracer.enabled() ? &phases : nullptr);
      if (tracer.enabled()) phases.finish(tracer);
    }
    const auto t_run = Clock::now();
    record.round_cpu_s = cpu_seconds() - c0;
    if (k > 0) {
      record.csv_path = options.work_dir + "/cycle-" + std::to_string(k) + ".csv";
      bool saved = false;
      {
        ScopedSpan span{tracer, "core.csv_write", cycle_span, k};
        saved = vp::core::save_catchment(record.csv_path, *result,
                                         world->deployment);
      }
      const auto t_csv = Clock::now();
      bool appended = false;
      {
        ScopedSpan span{tracer, "core.journal_append", cycle_span, k};
        appended = journal.append_round(k, *result);
      }
      const auto t_journal = Clock::now();
      {
        ScopedSpan span{tracer, "core.result_free", cycle_span, k};
        previous.reset();
      }
      const auto t_end = Clock::now();
      record.cycle_cpu_s = cpu_seconds() - c0;
      outcome.check(saved, "cycle " + std::to_string(k) + " CSV saved");
      outcome.check(appended, "cycle " + std::to_string(k) + " journal append");
      record.map_ms = ms_between(t0, t_csv);
      record.cycle_s = seconds_between(t0, t_end);
      layers["core.csv_write_s"].push_back(seconds_between(t_run, t_csv));
      layers["core.journal_append_ms"].push_back(ms_between(t_csv, t_journal));
      layers["core.result_free_ms"].push_back(ms_between(t_journal, t_end));
    }
    tracer.end(cycle_span);
    previous = std::move(result);
    record.round_s = seconds_between(t0, t_run);
    record.cleaning = previous->map.cleaning;
    record.blocks_probed = previous->map.blocks_probed;
    // Only cycle 0 warms a fresh table; later calls find it built.
    if (k == 0) layers["bgp.resolver_build_ms"].push_back(ms_between(t0, t_warm));
    if (tracer.enabled()) {
      layers["core.engine.probe_ms"].push_back(phases.probe_ms());
      layers["core.engine.probe_phase_ms"].push_back(phases.probe_phase_ms());
      layers["core.engine.gather_ms"].push_back(phases.gather_ms());
      layers["core.engine.clean_ms"].push_back(phases.clean_ms());
      layers["core.engine.tail_ms"].push_back(phases.tail_ms());
      // The engine's probe order for this round, timed on its own
      // between cycles so it does not lengthen the cycle.
      ScopedSpan span{tracer, "hitlist.order", -1, k};
      const auto o0 = Clock::now();
      world->hitlist.probe_order_into(hash_combine(spec.probe.order_seed, k),
                                      order_scratch);
      layers["hitlist.order_ms"].push_back(ms_between(o0, Clock::now()));
    }
    if (k == 0) hot_before = read_registry("vp_engine_hot_allocs_total");
    cycles.push_back(std::move(record));
  }
  const auto hot_after = read_registry("vp_engine_hot_allocs_total");
  const double rss = peak_rss_mb();
  journal.close();
  previous.reset();

  // ---- output checks (untimed). Only the deployment is still needed, so
  // the world goes first to keep the reloaded rounds' memory in bounds.
  const auto checks_start = Clock::now();
  const std::size_t hitlist_size = world->hitlist.size();
  const vp::anycast::Deployment deployment = world->deployment;
  world.reset();
  for (std::size_t k = 0; k < cycles.size(); ++k) {
    const CycleRecord& c = cycles[k];
    const auto& s = c.cleaning;
    outcome.check(s.kept + s.dropped() == s.raw_replies,
                  "cycle " + std::to_string(k) + " cleaning stats add up");
    outcome.check(c.blocks_probed == hitlist_size,
                  "cycle " + std::to_string(k) + " probed every hitlist block");
  }
  {
    vp::core::CampaignJournal reopened;
    auto resumed = reopened.open(journal_path, manifest, /*resume=*/true);
    reopened.close();
    outcome.check(resumed.status == vp::core::JournalStatus::kResumed &&
                      resumed.completed.size() == cycles.size() - 1,
                  "journal resumes every appended round");
    // Re-export each reloaded round and compare bytes, one thread per
    // round (a serial check would take longer than the cycles it checks);
    // each thread owns and frees its round.
    std::vector<std::optional<vp::core::RoundResult>> rounds(cycles.size());
    for (auto& [round, result] : resumed.completed)
      if (round < rounds.size()) rounds[round] = std::move(result);
    resumed.completed.clear();
    const auto same_bytes = [&](std::size_t k) {
      std::optional<vp::core::RoundResult> round = std::move(rounds[k]);
      if (!round) return false;
      std::ostringstream csv;
      vp::core::write_catchment_csv(csv, *round, deployment);
      return csv.str() == read_file(cycles[k].csv_path);
    };
    std::vector<std::future<bool>> checks;
    for (std::size_t k = 1; k < cycles.size(); ++k)
      checks.push_back(std::async(std::launch::async, same_bytes, k));
    for (std::size_t k = 1; k < cycles.size(); ++k) {
      outcome.check(checks[k - 1].get(), "journal round " + std::to_string(k) +
                                             " reloads to the cycle's CSV bytes");
    }
  }
  outcome.notes.push_back(
      "measured " + std::to_string(seconds_between(measure_start, checks_start)) +
      " s; output checks took " +
      std::to_string(seconds_between(checks_start, Clock::now())) + " s");
  std::uintmax_t csv_bytes = 0;
  std::error_code ec;
  for (std::size_t k = 1; k < cycles.size(); ++k)
    csv_bytes += std::filesystem::file_size(cycles[k].csv_path, ec);
  const auto journal_bytes = std::filesystem::file_size(journal_path, ec);

  // ---- metrics.
  std::vector<double> warm_rounds, warm_cycles, warm_map_ms;
  std::vector<double> warm_rounds_cpu_ms, warm_cycles_cpu;
  for (std::size_t k = 1; k < cycles.size(); ++k) {
    warm_rounds.push_back(cycles[k].round_s);
    warm_cycles.push_back(cycles[k].cycle_s);
    warm_map_ms.push_back(cycles[k].map_ms);
    warm_rounds_cpu_ms.push_back(cycles[k].round_cpu_s * 1000.0);
    warm_cycles_cpu.push_back(cycles[k].cycle_cpu_s);
  }
  outcome.attempted += cycles.size();
  outcome.put("setup_s", median(setups_cpu), "s");
  outcome.put("peak_rss_mb", rss, "MB");
  outcome.put("cycle_cpu_s", median(warm_cycles_cpu), "s");
  outcome.put("answer_cpu_ms", median(warm_rounds_cpu_ms), "ms");
  outcome.workload_figures = {
      {"setup_wall_s", {median(setups).value_or(0.0), "s"}},
      {"cold_round_s", {cycles.front().round_s, "s"}},
      {"cold_round_cpu_s", {cycles.front().round_cpu_s, "s"}},
      {"round_s", {median(warm_rounds).value_or(0.0), "s"}},
      {"cycle_s", {median(warm_cycles).value_or(0.0), "s"}},
      {"map_ready_ms", {median(warm_map_ms).value_or(0.0), "ms"}},
      {"cycles", {static_cast<double>(cycles.size()), "count"}},
  };

  add_medians(outcome, layers);
  std::vector<vp::core::CleaningStats> cleaning;
  for (const CycleRecord& c : cycles) cleaning.push_back(c.cleaning);
  add_cleaning(outcome, cleaning);
  // Allocations per warm cycle, on the arena cycle 0 warmed.
  outcome.per_layer["core.arena_hot_allocs"] =
      static_cast<double>(hot_after.count - hot_before.count) /
      static_cast<double>(cycles.size() - 1);
  outcome.per_layer["core.csv_bytes"] =
      static_cast<double>(csv_bytes) / static_cast<double>(cycles.size() - 1);
  outcome.per_layer["core.journal_bytes"] =
      static_cast<double>(journal_bytes) / static_cast<double>(cycles.size() - 1);
  return outcome;
}

}  // namespace vpbench
