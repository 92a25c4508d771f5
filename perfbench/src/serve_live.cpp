// serve_live: the vpd cycle under open-loop query load.
//
// A service::Daemon on a generated 100k-AS Internet (about 1.3-1.5M blocks)
// with the generated 9-site deployment runs continuous rounds with 2 probe
// threads, journaling into the run's work directory, while net::HttpServer
// answers on loopback. One generator thread sends, open loop, with at most
// 2 connections in flight:
//   /block/<ip>       2000/s over mapped and unmapped blocks
//   /load?config=...  0.25/s cycling through single-site prepends
// A request not answered within 1 s of its due time fails.
//
// At 100k ASes the generated Internet's block count is heavy-tailed in
// the seed (1.40M-1.89M over seeds 1-20), and round time and memory grow
// with it. So that every seed measures a world of about the same size, the
// world seed is the first candidate whose topology has 1.38M-1.50M blocks;
// the seed itself is the first candidate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench.hpp"
#include "core/dataset_io.hpp"
#include "load_gen.hpp"
#include "net/http_server.hpp"
#include "service/daemon.hpp"
#include "stats.hpp"
#include "topology/scale_generator.hpp"
#include "util/rng.hpp"

namespace vpbench {

namespace {

constexpr std::uint32_t kAses = 100'000;
constexpr unsigned kThreads = 2;
constexpr int kSetups = 3;
constexpr double kBlockRate = 2000.0;  // requests per second
// Every /load stalls the serial server for its whole duration (0.3-0.9 s
// on 4 cores), and /block requests due meanwhile queue behind it. At 0.5/s
// that queue could hold close to half of all /block requests when the
// machine ran slow, so their median jumped between runs; at 0.25/s it
// stays well below half.
constexpr double kLoadRate = 0.25;
constexpr std::size_t kMaxInFlight = 2;
constexpr double kTimeoutMs = 1000.0;
constexpr double kUnmappedShare = 0.2;  // /block targets outside the hitlist
constexpr std::size_t kMinBlocks = 1'380'000;  // world size band
constexpr std::size_t kMaxBlocks = 1'500'000;
constexpr int kWorldCandidates = 16;

enum Kind { kBlock = 0, kLoad = 1 };

using vp::util::hash_combine;

/// The handler side of the request trace: maps a request id (the "rid"
/// query parameter the generator adds) to its net.http span so the
/// server thread can parent its handler span.
class HandlerSpans {
 public:
  void set(std::size_t rid, int span) {
    std::lock_guard lock{mutex_};
    if (spans_.size() <= rid) spans_.resize(rid + 1, -1);
    spans_[rid] = span;
  }
  int get(std::size_t rid) const {
    std::lock_guard lock{mutex_};
    return rid < spans_.size() ? spans_[rid] : -1;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<int> spans_;  // guarded by mutex_
};

/// CPU time of the server's accept thread, and the part of it spent
/// handling /load. The handler notes the thread on every request.
class ServerCpu {
 public:
  /// Server thread only.
  void note_thread() {
    if (!clock_known_.load(std::memory_order_acquire)) {
      clock_ = this_thread_cpu_clock();
      clock_known_.store(true, std::memory_order_release);
    }
  }
  /// Server thread only.
  void add_load_s(double seconds) {
    load_s_.store(load_s_.load(std::memory_order_relaxed) + seconds,
                  std::memory_order_release);
  }
  /// Any thread: the server thread's CPU time so far (0 before its
  /// first request).
  double thread_s() const {
    return clock_known_.load(std::memory_order_acquire) ? cpu_seconds(clock_) : 0.0;
  }
  /// Any thread: CPU time the server thread spent inside /load handlers.
  double load_s() const { return load_s_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> clock_known_{false};
  clockid_t clock_{};
  std::atomic<double> load_s_{0.0};
};

struct Service {
  std::unique_ptr<vp::analysis::Scenario> scenario;
  std::unique_ptr<vp::service::Daemon> daemon;
  ServerCpu server_cpu;        // outlives the server's thread
  vp::net::HttpServer server;  // stopped before the daemon goes away

  ~Service() { server.stop(); }
};

std::string site_field(const std::string& body) {
  const std::string key = "\"site\":\"";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return {};
  const std::size_t end = body.find('"', at + key.size());
  return end == std::string::npos ? std::string{}
                                  : body.substr(at + key.size(), end - at - key.size());
}

struct WorldChoice {
  std::uint64_t seed = 0;
  std::size_t blocks = 0;
  int candidates = 0;
};

/// The first candidate world seed whose topology (as analysis::Scenario
/// generates it) lies in the block band, or, failing all, the one closest
/// to the band's middle.
WorldChoice choose_world(std::uint64_t seed) {
  const double middle = (kMinBlocks + kMaxBlocks) / 2.0;
  WorldChoice best;
  for (int i = 0; i < kWorldCandidates; ++i) {
    const std::uint64_t candidate = i == 0 ? seed : hash_combine(seed, 0x776f726c64 + i);
    vp::topology::ScaleConfig config;
    config.seed = candidate;
    config.as_count = kAses;
    config.target_blocks = 13 * kAses;  // as Scenario sets it at scale 1
    const std::size_t blocks =
        vp::topology::generate_scale_topology(config).block_count();
    if (i == 0 || std::abs(blocks - middle) < std::abs(best.blocks - middle))
      best = WorldChoice{candidate, blocks, i + 1};
    if (blocks >= kMinBlocks && blocks <= kMaxBlocks) break;
  }
  return best;
}

}  // namespace

Outcome run_serve_live(const Options& options, Tracer& tracer) {
  Outcome outcome;
  LayerSamples layers;
  HandlerSpans handler_spans;

  // Untimed: picks the world; set-up then builds it.
  const WorldChoice world = choose_world(options.seed);

  // ---- setup, repeated; the last service is kept.
  std::vector<double> setups, setups_cpu;
  std::unique_ptr<Service> service;
  int journal_generation = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    const auto op = static_cast<std::uint64_t>(rep);
    const int setup_span = tracer.begin("setup", -1, op);
    auto next = std::make_unique<Service>();
    timed_layer(tracer, "analysis.scenario", setup_span, op, layers,
                "analysis.scenario_s", [&] {
      vp::analysis::ScenarioConfig config;
      config.seed = world.seed;
      config.generated_ases = kAses;
      next->scenario = std::make_unique<vp::analysis::Scenario>(config);
    });
    timed_layer(tracer, "service.daemon_init", setup_span, op, layers,
                "service.daemon_init_s", [&] {
      vp::service::DaemonConfig config;
      config.probe.order_seed = hash_combine(options.seed, 5);
      config.threads = kThreads;
      config.journal_path = options.work_dir + "/serve-" +
                            std::to_string(journal_generation++) + ".journal";
      config.resume = false;
      next->daemon = std::make_unique<vp::service::Daemon>(
          *next->scenario, next->scenario->tangled(), config);
      // The first /load builds the daemon's delta-routing session; do it
      // here so no timed query pays that one-time set-up.
      vp::net::HttpRequest warm;
      warm.method = "GET";
      warm.path = "/load";
      next->daemon->handle(warm);
    });
    bool listening = false;
    {
      ScopedSpan span{tracer, "net.listen", setup_span, op};
      vp::service::Daemon* daemon = next->daemon.get();
      ServerCpu* server_cpu = &next->server_cpu;
      const bool traced = tracer.enabled();
      listening = next->server.start(
          0, [daemon, server_cpu, traced, &tracer, &handler_spans](
                 const vp::net::HttpRequest& request) {
            server_cpu->note_thread();
            const bool load = request.path == "/load";
            const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
            vp::net::HttpResponse response;
            if (!traced) {
              response = daemon->handle(request);
            } else {
              const std::size_t rid =
                  std::strtoull(request.param("rid", "0").c_str(), nullptr, 10);
              const char* name = load ? "service.handle_load"
                                 : request.path.rfind("/block/", 0) == 0
                                     ? "service.handle_block"
                                     : "service.handle_other";
              ScopedSpan span{tracer, name, handler_spans.get(rid), rid};
              response = daemon->handle(request);
            }
            if (load) server_cpu->add_load_s(cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0);
            return response;
          });
      // A first request, so that the server thread's CPU clock is known
      // before any timed interval starts.
      listening = listening &&
                  http_get(next->server.port(), "/healthz", 10'000.0).answered;
    }
    tracer.end(setup_span);
    outcome.check(listening, "HTTP server listens on loopback and answers /healthz");
    setups_cpu.push_back(cpu_seconds() - c0);
    setups.push_back(seconds_between(t0, Clock::now()));
    service = std::move(next);
    if (!listening) return outcome;
  }
  vp::service::Daemon& daemon = *service->daemon;
  const vp::anycast::Deployment& deployment = daemon.deployment();
  const auto& hitlist = service->scenario->hitlist();
  outcome.notes.push_back(
      "world: " + std::to_string(service->scenario->topo().as_count()) +
      " ASes, " + std::to_string(hitlist.size()) + " hitlist blocks, " +
      std::to_string(deployment.sites.size()) + " sites, " +
      std::to_string(kThreads) + " probe threads; world seed " +
      std::to_string(world.seed) + " (" + std::to_string(world.blocks) +
      " topology blocks, candidate " + std::to_string(world.candidates) + ")");
  outcome.notes.push_back("serving over loopback 127.0.0.1; journal filesystem: " +
                          filesystem_type(options.work_dir));
  outcome.notes.push_back("open loop: /block 2000/s, /load 0.25/s, at most 2 "
                          "connections in flight, 1 s answer limit");

  // ---- the request schedule, from the seed.
  std::vector<PlannedRequest> plan;
  {
    vp::util::Rng rng{hash_combine(options.seed, 0x73657276)};
    const auto blocks = static_cast<std::size_t>(kBlockRate * options.seconds);
    const auto loads = static_cast<std::size_t>(kLoadRate * options.seconds);
    std::vector<std::pair<double, int>> due;
    for (std::size_t i = 0; i < blocks; ++i) due.emplace_back(i / kBlockRate, kBlock);
    for (std::size_t i = 0; i < loads; ++i)
      due.emplace_back((i + 0.5) / kLoadRate, kLoad);
    std::stable_sort(due.begin(), due.end());
    std::size_t load_index = 0;
    for (const auto& [at, kind] : due) {
      const std::size_t rid = plan.size();
      std::string target;
      if (kind == kBlock) {
        vp::net::Ipv4Address address{static_cast<std::uint32_t>(rng())};
        if (rng.uniform() >= kUnmappedShare) {
          const auto entries = hitlist.entries();
          address = entries[rng() % entries.size()].target;
        }
        target = "/block/" + address.to_string();
      } else {
        const auto& site = deployment.sites[load_index % deployment.sites.size()];
        const int depth = 1 + static_cast<int>((load_index / deployment.sites.size()) % 3);
        ++load_index;
        target = "/load?config=" + site.code + "=" + std::to_string(depth);
      }
      target += (target.find('?') == std::string::npos ? "?rid=" : "&rid=") +
                std::to_string(rid);
      plan.push_back(PlannedRequest{at, std::move(target), kind});
    }
  }

  // ---- run: the daemon's round loop, a status poller, the generator.
  const auto rounds_start = Clock::now();
  std::thread rounds{[&daemon] { daemon.run_rounds(); }};
  std::optional<double> cold_round_s;
  while (seconds_between(rounds_start, Clock::now()) < 120.0) {
    if (daemon.status().has_map) {
      cold_round_s = seconds_between(rounds_start, Clock::now());
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  outcome.check(cold_round_s.has_value(), "daemon publishes a first map");

  const auto phase_before = read_registry("vp_engine_probe_phase_ms");
  const auto journal_ms_before = read_registry("vp_journal_append_ms");
  const auto journal_bytes_before = read_registry("vp_journal_bytes_total");
  const auto delta_ms_before = read_registry("vp_bgp_delta_apply_ms");
  const auto frontier_before = read_registry("vp_bgp_delta_frontier_ases");
  const auto status_before = daemon.status();

  std::atomic<bool> polling{true};
  std::vector<double> publish_times;  // seconds since the generator started
  std::vector<double> round_ms;       // engine time of each published round
  // Daemon CPU and engine rounds at the first and the last publish.
  std::optional<std::pair<double, std::uint64_t>> first_publish, last_publish;
  const clockid_t generator_clock = this_thread_cpu_clock();
  const ServerCpu& server_cpu = service->server_cpu;
  const auto gen_start = Clock::now();
  std::thread poller{[&] {
    // The daemon's CPU time: the process's, less that of the generator,
    // the server thread (which answers /block and /load) and this poller.
    const auto daemon_cpu = [&] {
      return cpu_seconds() - cpu_seconds(generator_clock) - server_cpu.thread_s() -
             cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    };
    std::uint32_t seen = daemon.status().map_round;
    RegistryReading rounds_seen = read_registry("vp_engine_round_ms");
    while (polling.load()) {
      const auto s = daemon.status();
      if (s.map_round != seen) {
        seen = s.map_round;
        publish_times.push_back(seconds_between(gen_start, Clock::now()));
        const double cpu_now = daemon_cpu();
        // The engine records a round's time before the daemon publishes
        // it; a step of exactly one round is that round's time.
        const RegistryReading now = read_registry("vp_engine_round_ms");
        if (now.count == rounds_seen.count + 1) round_ms.push_back(now.sum - rounds_seen.sum);
        rounds_seen = now;
        const std::pair<double, std::uint64_t> at{cpu_now, now.count};
        if (first_publish) last_publish = at;
        else first_publish = at;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }};
  LoadGenConfig gen;
  gen.port = service->server.port();
  gen.max_in_flight = kMaxInFlight;
  gen.timeout_ms = kTimeoutMs;
  // The CPU time of serving /block, client and server side together:
  // over loopback, which of the two threads the kernel charges for a
  // connection's packets depends on how they interleave.
  const double generator_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const double server_cpu0 = server_cpu.thread_s();
  const double load_cpu0 = server_cpu.load_s();
  const auto results =
      cold_round_s ? run_open_loop(plan, gen, tracer,
                                   [&](std::size_t rid, int span) {
                                     if (span >= 0) handler_spans.set(rid, span);
                                   })
                   : std::vector<RequestResult>(plan.size());
  const double block_cpu_s =
      (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - generator_cpu0) +
      (server_cpu.thread_s() - server_cpu0) - (server_cpu.load_s() - load_cpu0);
  polling = false;
  poller.join();
  const auto status_after = daemon.status();
  const auto phase_after = read_registry("vp_engine_probe_phase_ms");
  const auto journal_ms_after = read_registry("vp_journal_append_ms");
  const auto journal_bytes_after = read_registry("vp_journal_bytes_total");
  const auto delta_ms_after = read_registry("vp_bgp_delta_apply_ms");
  const auto frontier_after = read_registry("vp_bgp_delta_frontier_ases");
  daemon.request_stop();
  rounds.join();
  const double rss = peak_rss_mb();

  // ---- output checks (untimed).
  std::vector<double> block_ms, block_sent_ms, load_ms, late_ms;
  std::size_t failed_requests = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RequestResult& r = results[i];
    late_ms.push_back(r.late_ms);
    bool ok = r.answered && r.status == 200;
    if (ok && plan[i].kind == kBlock) {
      const std::string site = site_field(r.body);
      ok = site == "UNK" || deployment.site_by_code(site).has_value();
      block_ms.push_back(r.latency_ms);
      block_sent_ms.push_back(r.latency_ms - r.late_ms);
    } else if (ok) {
      for (const auto& site : deployment.sites)
        ok = ok && r.body.find("\"site\":\"" + site.code + "\"") != std::string::npos;
      load_ms.push_back(r.latency_ms);
    }
    if (!ok) {
      ++failed_requests;
      if (failed_requests <= 5) {
        outcome.check_failures.push_back(
            "request " + plan[i].target + ": status " + std::to_string(r.status) +
            (r.answered ? "" : " (not answered within 1 s)"));
      }
    }
  }
  outcome.attempted += results.size();
  outcome.failed += failed_requests;
  {
    const auto served = daemon.current_map();
    const RequestResult map = http_get(service->server.port(), "/map", 60'000.0);
    std::string expected;
    if (served) {
      std::ostringstream csv;
      vp::core::write_catchment_csv(csv, served->result, deployment);
      expected = csv.str();
    }
    outcome.check(served && map.answered && map.status == 200 &&
                      map.body == expected,
                  "final /map equals write_catchment_csv of the served map");
    if (served) add_cleaning(outcome, {served->result.map.cleaning});
  }
  service.reset();

  // ---- metrics.
  std::vector<double> refresh;
  for (std::size_t i = 1; i < publish_times.size(); ++i)
    refresh.push_back(publish_times[i] - publish_times[i - 1]);
  const double round_s = median(round_ms).value_or(0.0) / 1000.0;
  outcome.put("setup_s", median(setups_cpu), "s");
  outcome.put("peak_rss_mb", rss, "MB");
  // Mean over every round between the first and the last publish, not a
  // median of per-round steps: the rounds that overlap a /load (whose
  // delta routing competes for the caches) cost more, and how many of the
  // few steps in a window do would flip a median.
  if (first_publish && last_publish && last_publish->second > first_publish->second)
    outcome.put("cycle_cpu_s",
                (last_publish->first - first_publish->first) /
                    static_cast<double>(last_publish->second - first_publish->second),
                "s");
  const auto blocks_sent = static_cast<double>(std::count_if(
      plan.begin(), plan.end(), [](const PlannedRequest& r) { return r.kind == kBlock; }));
  if (blocks_sent > 0) outcome.put("answer_cpu_ms", block_cpu_s * 1000.0 / blocks_sent, "ms");
  outcome.workload_figures = {
      {"setup_wall_s", {median(setups).value_or(0.0), "s"}},
      {"cold_round_s", {cold_round_s.value_or(0.0), "s"}},
      {"round_s", {round_s, "s"}},
      {"block_p50_ms", {median(block_ms).value_or(0.0), "ms"}},
      {"block_sent_p50_ms", {median(block_sent_ms).value_or(0.0), "ms"}},
      {"block_p99_ms", {percentile(block_ms, 99).value_or(0.0), "ms"}},
      {"load_p50_ms", {median(load_ms).value_or(0.0), "ms"}},
      {"refresh_s", {median(refresh).value_or(0.0), "s"}},
      {"block_requests", {static_cast<double>(block_ms.size()), "count"}},
      {"load_requests", {static_cast<double>(load_ms.size()), "count"}},
      {"gen_late_p50_ms", {median(late_ms).value_or(0.0), "ms"}},
      {"gen_late_p99_ms", {percentile(late_ms, 99).value_or(0.0), "ms"}},
      {"gen_max_in_flight", {static_cast<double>(kMaxInFlight), "count"}},
  };

  add_medians(outcome, layers);
  outcome.per_layer["core.engine.probe_phase_ms"] =
      mean_between(phase_before, phase_after);
  outcome.per_layer["core.journal_append_ms"] =
      mean_between(journal_ms_before, journal_ms_after);
  outcome.per_layer["core.journal_bytes"] =
      journal_ms_after.count > journal_ms_before.count
          ? static_cast<double>(journal_bytes_after.count - journal_bytes_before.count) /
                static_cast<double>(journal_ms_after.count - journal_ms_before.count)
          : 0.0;
  outcome.per_layer["bgp.delta_apply_ms"] = mean_between(delta_ms_before, delta_ms_after);
  outcome.per_layer["bgp.delta_changed_ases"] =
      mean_between(frontier_before, frontier_after);
  outcome.per_layer["service.rounds_published"] =
      static_cast<double>(publish_times.size());
  outcome.per_layer["service.rounds_failed"] =
      static_cast<double>(status_after.rounds_failed - status_before.rounds_failed);
  outcome.per_layer["gen.late_ms"] = percentile(late_ms, 99).value_or(0.0);
  if (tracer.enabled()) {
    // Handler spans per request id, against each request's time from
    // send to answer.
    std::vector<double> handler_block_us, handler_load_ms, http_wait_ms;
    std::vector<double> handler_of(plan.size(), -1.0);
    for (const SpanRecord& span : tracer.spans()) {
      if (span.name != "service.handle_block" && span.name != "service.handle_load")
        continue;
      const double ms = ms_between(span.start, span.end);
      if (span.op < handler_of.size()) handler_of[span.op] = ms;
      if (span.name == "service.handle_block") handler_block_us.push_back(ms * 1000.0);
      else handler_load_ms.push_back(ms);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (plan[i].kind == kBlock && results[i].answered && handler_of[i] >= 0.0)
        http_wait_ms.push_back(results[i].latency_ms - results[i].late_ms -
                               handler_of[i]);
    }
    outcome.per_layer["service.handle_block_us"] = median(handler_block_us).value_or(0.0);
    outcome.per_layer["service.handle_load_ms"] = median(handler_load_ms).value_or(0.0);
    outcome.per_layer["net.http_wait_ms"] = median(http_wait_ms).value_or(0.0);
  }
  return outcome;
}

}  // namespace vpbench
