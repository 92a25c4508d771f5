// whatif_sweep: the load-aware what-if of the paper's Fig 5-6 / Table 6.
//
// The paper-shaped B-Root scenario (scale 1, about 120k blocks) walks the
// Fig-5 prepending sweep {+1 LAX, equal, +1 MIA, +2 MIA, +3 MIA}, repeated,
// through one analysis::DeltaSession. Each config gets a fresh round id:
//   DeltaSession::apply -> InternetSim::warm -> Verfploeter::run (4 threads,
//   shared arena) -> analysis::predict_load.
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/load_analysis.hpp"
#include "analysis/scenario.hpp"
#include "anycast/deployment.hpp"
#include "bench.hpp"
#include "bgp/routing_engine.hpp"
#include "core/dataset_io.hpp"
#include "core/verfploeter.hpp"
#include "dnsload/load_model.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "stats.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"

namespace vpbench {

namespace {

constexpr unsigned kThreads = 4;
// A set-up takes about 0.2 s, so its median needs many of them to hold
// still between runs.
constexpr int kSetups = 15;
constexpr std::size_t kMinConfigs = 101;  // p90 needs ten samples beyond it
constexpr std::uint32_t kColdRounds = 5;

struct SweepStep {
  const char* label;
  const char* site;
  int prepend;
};
constexpr SweepStep kSweep[] = {{"+1 LAX", "LAX", 1},
                                {"equal", "LAX", 0},
                                {"+1 MIA", "MIA", 1},
                                {"+2 MIA", "MIA", 2},
                                {"+3 MIA", "MIA", 3}};
constexpr std::size_t kSweepLen = std::size(kSweep);

using vp::util::hash_combine;

struct World {
  vp::topology::Topology topo;
  std::unique_ptr<vp::sim::InternetSim> internet;
  vp::anycast::Deployment broot;
  vp::hitlist::Hitlist hitlist;
  vp::bgp::RoutingOptions routing;
  std::unique_ptr<vp::analysis::DeltaSession> session;
  std::unique_ptr<vp::dnsload::LoadModel> load;
  std::unique_ptr<vp::core::Verfploeter> verfploeter;
};

std::unique_ptr<World> build_world(std::uint64_t seed, Tracer& tracer,
                                   int setup_span, std::uint64_t op,
                                   LayerSamples& layers) {
  auto world = std::make_unique<World>();
  const auto timed = [&](const char* span, const char* layer, auto&& body) {
    timed_layer(tracer, span, setup_span, op, layers, layer, body);
  };
  timed("topology.generate", "topology.generate_s", [&] {
    vp::topology::TopologyConfig config =
        vp::topology::TopologyConfig::scaled(1.0);
    config.seed = seed;
    world->topo = vp::topology::generate_topology(config);
  });
  timed("sim.internet", "sim.internet_s", [&] {
    vp::sim::InternetConfig config;
    config.responsiveness.seed = hash_combine(seed, 1);
    config.flips.seed = hash_combine(seed, 2);
    world->internet = std::make_unique<vp::sim::InternetSim>(world->topo, config);
    world->broot = vp::anycast::make_broot(world->topo);
  });
  timed("hitlist.build", "hitlist.build_s", [&] {
    vp::hitlist::HitlistConfig config;
    config.seed = hash_combine(seed, 3);
    world->hitlist = vp::hitlist::Hitlist::build(
        world->topo, world->internet->responsiveness(), config, kThreads);
  });
  timed("bgp.full", "bgp.full_s", [&] {
    world->routing.tiebreak_salt = hash_combine(seed, vp::analysis::kAprilEpoch);
    world->session = std::make_unique<vp::analysis::DeltaSession>(
        world->topo, world->broot, world->routing);
    world->session->engine().full();
  });
  timed("dnsload.model", "dnsload.model_s", [&] {
    vp::dnsload::LoadConfig config;
    config.seed = hash_combine(seed, 0x20170421);
    config.membership_seed = hash_combine(seed, 0x6d656d);
    config.profile = vp::dnsload::LoadProfile::kRootLike;
    world->load = std::make_unique<vp::dnsload::LoadModel>(
        world->topo, world->internet->responsiveness(), config);
  });
  world->verfploeter =
      std::make_unique<vp::core::Verfploeter>(*world->internet, world->hitlist);
  return world;
}

vp::core::RoundSpec spec_for(std::uint64_t seed, std::uint32_t config_id,
                             vp::util::RoundArena* arena) {
  vp::core::RoundSpec spec;
  spec.probe.order_seed = hash_combine(seed, 5);
  spec.probe.measurement_id = 5000 + config_id;
  spec.round = config_id;
  spec.threads = kThreads;
  spec.arena = arena;
  return spec;
}

struct ConfigTiming {
  double config_ms = 0.0;      // the whole what-if answer
  double config_cpu_ms = 0.0;  // the same, in CPU time
  double round_s = 0.0;        // resolver build + round
  Clock::time_point end;
  double end_cpu_s = 0.0;      // cpu_seconds() at `end`
};

std::string catchment_csv(const vp::core::RoundResult& result,
                          const vp::anycast::Deployment& deployment) {
  std::ostringstream csv;
  vp::core::write_catchment_csv(csv, result, deployment);
  return csv.str();
}

}  // namespace

Outcome run_whatif_sweep(const Options& options, Tracer& tracer) {
  Outcome outcome;
  LayerSamples layers;
  std::vector<vp::core::CleaningStats> cleanings;

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
  const std::size_t sites = world->broot.sites.size();
  outcome.notes.push_back(
      "world: " + std::to_string(world->topo.as_count()) + " ASes, " +
      std::to_string(world->hitlist.size()) + " hitlist blocks, " +
      std::to_string(sites) + " B-Root sites, " + std::to_string(kThreads) +
      " probe threads");

  std::vector<double> share_sums;
  // One what-if config: delta apply, resolver build, round, load split.
  const auto run_config = [&](std::uint32_t config_id, const SweepStep& step,
                              vp::util::RoundArena& arena) {
    const vp::anycast::Deployment target =
        world->broot.with_prepend(step.site, step.prepend);
    const auto spec = spec_for(options.seed, config_id, &arena);
    EnginePhases phases;
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    const int config_span = tracer.begin("config", -1, config_id);
    vp::bgp::ApplyResult applied;
    {
      ScopedSpan span{tracer, "bgp.delta_apply", config_span, config_id};
      applied = world->session->apply(vp::anycast::ConfigDelta::diff(
          world->session->deployment(), target));
    }
    const auto t_apply = Clock::now();
    {
      ScopedSpan span{tracer, "bgp.resolver_build", config_span, config_id};
      world->internet->warm(*applied.table);
    }
    const auto t_warm = Clock::now();
    auto result = std::make_unique<vp::core::RoundResult>();
    {
      ScopedSpan span{tracer, "core.engine.run", config_span, config_id};
      phases.start(span.id(), config_id);
      *result = world->verfploeter->run(*applied.table, spec,
                                        tracer.enabled() ? &phases : nullptr);
      if (tracer.enabled()) phases.finish(tracer);
    }
    const auto t_run = Clock::now();
    vp::analysis::LoadSplit split;
    {
      ScopedSpan span{tracer, "analysis.predict_load", config_span, config_id};
      split = vp::analysis::predict_load(*world->load, result->map, sites);
    }
    const auto t_predict = Clock::now();
    const vp::core::CleaningStats cleaning = result->map.cleaning;
    {
      ScopedSpan span{tracer, "core.result_free", config_span, config_id};
      result.reset();
    }
    const auto t_end = Clock::now();
    const double c_end = cpu_seconds();
    tracer.end(config_span);

    double share_sum = 0.0;
    for (std::size_t s = 0; s < sites; ++s)
      share_sum += split.fraction_to(static_cast<vp::anycast::SiteId>(s));
    share_sums.push_back(share_sum);

    layers["bgp.delta_apply_ms"].push_back(ms_between(t0, t_apply));
    layers["bgp.delta_changed_ases"].push_back(
        static_cast<double>(applied.changed_ases.size()));
    layers["bgp.resolver_build_ms"].push_back(ms_between(t_apply, t_warm));
    layers["analysis.predict_load_ms"].push_back(ms_between(t_run, t_predict));
    layers["core.result_free_ms"].push_back(ms_between(t_predict, t_end));
    cleanings.push_back(cleaning);
    if (tracer.enabled()) {
      layers["core.engine.probe_ms"].push_back(phases.probe_ms());
      layers["core.engine.probe_phase_ms"].push_back(phases.probe_phase_ms());
      layers["core.engine.gather_ms"].push_back(phases.gather_ms());
      layers["core.engine.clean_ms"].push_back(phases.clean_ms());
      layers["core.engine.tail_ms"].push_back(phases.tail_ms());
    }
    return ConfigTiming{ms_between(t0, t_end), (c_end - c0) * 1000.0,
                        seconds_between(t_apply, t_run), t_end, c_end};
  };

  // Cold rounds: each on a fresh arena and a routing table no round has
  // used yet (every delta apply yields a new table, hence a new resolver).
  std::vector<double> cold_rounds;
  std::uint32_t config_id = 0;
  for (; config_id < kColdRounds; ++config_id) {
    vp::util::RoundArena fresh;
    cold_rounds.push_back(
        run_config(config_id, kSweep[config_id % kSweepLen], fresh).round_s);
  }

  // The sweep proper, on one shared arena. Its first config warms that
  // arena and is left out of the steady-state figures.
  vp::util::RoundArena arena;
  std::vector<double> config_ms, config_cpu_ms, round_s, sweep_s, sweep_cpu_s;
  RegistryReading hot_before;  // taken once the first step has warmed the arena
  const auto measure_start = Clock::now();
  auto sweep_start = measure_start;
  double sweep_start_cpu = cpu_seconds();
  for (std::size_t step = 0;
       step < kMinConfigs || step % kSweepLen != 0 ||
       seconds_between(measure_start, Clock::now()) < options.seconds;
       ++step, ++config_id) {
    const ConfigTiming timing =
        run_config(config_id, kSweep[step % kSweepLen], arena);
    if (step > 0) {
      config_ms.push_back(timing.config_ms);
      config_cpu_ms.push_back(timing.config_cpu_ms);
      round_s.push_back(timing.round_s);
    } else {
      hot_before = read_registry("vp_engine_hot_allocs_total");
    }
    if ((step + 1) % kSweepLen == 0) {
      if (step + 1 > kSweepLen) {
        sweep_s.push_back(seconds_between(sweep_start, timing.end));
        sweep_cpu_s.push_back(timing.end_cpu_s - sweep_start_cpu);
      }
      sweep_start = timing.end;
      sweep_start_cpu = timing.end_cpu_s;
    }
  }
  const auto hot_after = read_registry("vp_engine_hot_allocs_total");
  const double rss = peak_rss_mb();

  // ---- output checks (untimed).
  std::size_t bad_shares = 0;
  for (const double sum : share_sums)
    if (!(std::fabs(sum - 1.0) < 1e-9)) ++bad_shares;
  outcome.check(bad_shares == 0, "site shares of every config sum to 1 (" +
                                     std::to_string(bad_shares) + " do not)");
  {
    // The session ends on the last sweep step; route it from scratch and
    // compare catchments round for round.
    const std::uint32_t last = config_id - 1;
    const auto spec = spec_for(options.seed, last, nullptr);
    const auto delta_table = world->session->engine().current();
    const auto delta_result = world->verfploeter->run(*delta_table, spec);
    vp::bgp::RoutingEngine fresh{world->topo, world->session->deployment(),
                                 world->routing};
    const auto full_table = fresh.full();
    const auto full_result = world->verfploeter->run(*full_table, spec);
    outcome.check(catchment_csv(delta_result, world->broot) ==
                          catchment_csv(full_result, world->broot) &&
                      delta_result.map.mapped_blocks() > 0,
                  "delta-routed and fully re-routed catchments match");
  }

  outcome.attempted += config_id;
  outcome.put("setup_s", median(setups_cpu), "s");
  outcome.put("peak_rss_mb", rss, "MB");
  outcome.put("cycle_cpu_s", median(sweep_cpu_s), "s");
  outcome.put("answer_cpu_ms", median(config_cpu_ms), "ms");
  outcome.workload_figures = {
      {"setup_wall_s", {median(setups).value_or(0.0), "s"}},
      {"sweep_s", {median(sweep_s).value_or(0.0), "s"}},
      {"cold_round_s", {median(cold_rounds).value_or(0.0), "s"}},
      {"round_s", {median(round_s).value_or(0.0), "s"}},
      {"whatif_p50_ms", {median(config_ms).value_or(0.0), "ms"}},
      {"whatif_p90_ms", {percentile(config_ms, 90).value_or(0.0), "ms"}},
      {"configs", {static_cast<double>(config_ms.size()), "count"}},
      {"sweeps", {static_cast<double>(sweep_s.size()), "count"}},
      {"cold_rounds", {static_cast<double>(cold_rounds.size()), "count"}},
  };

  add_medians(outcome, layers);
  add_cleaning(outcome, cleanings);
  // Allocations per config, on the arena the sweep's first step warmed.
  outcome.per_layer["core.arena_hot_allocs"] =
      static_cast<double>(hot_after.count - hot_before.count) /
      static_cast<double>(config_ms.size());
  return outcome;
}

}  // namespace vpbench
