#include "core/verfploeter.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"
#include "util/thread_pool.hpp"

namespace vp::core {

namespace {

/// One parsed reply on its way from a site's collector to the map. `off`
/// is the block of its source, relative to the hitlist's block span;
/// `key` is the probe's GLOBAL index in the round's probe order and `seq`
/// its per-probe delivery counter (append order across attempts), so
/// (off, arrival, site, key, seq) is a strict total order — (key, seq) is
/// unique per record. Within one block it is the order of a serial walk
/// that appended each site's replies in ascending (probe index, seq) and
/// then stable-sorted by arrival, so "first reply wins" is the first
/// solicited record of the block's run. Making that order explicit frees
/// every shard to produce its records in any processing order.
struct Reply {
  std::uint32_t off = 0;
  std::uint32_t source = 0;
  std::int64_t arrival_usec = 0;
  std::uint64_t key = 0;
  float rtt_ms = 0.0f;
  std::uint16_t seq = 0;
  anycast::SiteId site = anycast::kUnknownSite;

  friend bool operator<(const Reply& a, const Reply& b) {
    if (a.off != b.off) return a.off < b.off;
    if (a.arrival_usec != b.arrival_usec)
      return a.arrival_usec < b.arrival_usec;
    if (a.site != b.site) return a.site < b.site;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }
};
static_assert(sizeof(Reply) == 32);

/// One site's collector volume in one shard: records parsed, packets
/// that failed to parse, and bytes received.
struct SiteTally {
  std::uint64_t parsed = 0;
  std::uint64_t malformed = 0;
  std::uint64_t bytes = 0;
};

/// Sizes a reply bucket for the next round; each growth counts against
/// vp_engine_hot_allocs_total (flat from round 3 of an arena-backed
/// campaign). Reply counts jitter between rounds, the small cross-shard
/// buckets by more than an eighth, so a bucket with less than an eighth
/// plus 64 records of headroom over this round's `n` gets twice that. So
/// does a bucket the probe loop grew (`grew`): push_back's doubling can
/// leave it just short of a slightly larger round.
void size_for_next_round(std::vector<Reply>& bucket, std::size_t n,
                         bool grew, std::uint64_t& grows) {
  const std::size_t want = n + n / 8 + 64;
  if (bucket.capacity() < want || (grew && bucket.capacity() < 2 * want)) {
    bucket.reserve(2 * want);
    ++grows;
  }
}

/// One worker's cross-round state. During the probe phase only its
/// worker touches it; during the owner phase owner o reads and clears
/// every shard's `owned[o]` bucket and nothing else of the other shards.
/// Lives in the round arena so round N+1 starts with round N's
/// capacities.
struct ShardWs {
  // Replies bound for each owner's block range; after the owner phase
  // owned[this shard] holds this owner's kept replies in block order.
  std::vector<std::vector<Reply>> owned;
  std::vector<std::size_t> start_caps;  // owned[o].capacity() at probe start
  std::vector<SiteTally> sites;  // one per site
  std::vector<net::Ipv4Address> targets_scratch;
  std::vector<std::uint8_t> probe_bytes;
  std::vector<std::uint8_t> reply_bytes;
  std::vector<sim::DeliveryView> deliveries;
  CleaningStats cleaning;  // verdicts this shard counted; summed
  sim::FaultStats faults;  // summed after the probe phase
  // Observability tallies (plain ints: private to the worker, flushed
  // into the registry by the coordinator — zero hot-path contention).
  std::uint64_t obs_probes = 0;      // unique targets probed
  std::uint64_t obs_replied = 0;     // probes answered within the timeout
  std::uint64_t obs_unanswered = 0;  // probes never answered in time
  std::uint64_t hot_grows = 0;       // capacity growths in either phase
};

/// Everything the engine keeps alive between rounds. One instance per
/// arena; shapes repeat round to round (same hitlist, same threads), so
/// a steady-state round allocates nothing here.
struct EngineWorkspace {
  std::vector<std::uint32_t> order;   // order position -> entry index
  std::vector<std::uint32_t> pos;     // entry index -> order position
  std::vector<std::uint64_t> offset;  // extra-targets mode only
  std::vector<ShardWs> shards;
  std::vector<std::uint32_t> entry_by_block;  // block off -> entry+1, 0 = none
  std::vector<float> kept_rtts;
};

/// Registry handles the engine reports into, resolved once per process.
/// Everything here is observe-only (see obs/metrics.hpp): the round's
/// outputs are bit-identical whether the registry is enabled or not.
struct EngineMetrics {
  obs::Counter& rounds;
  obs::Counter& probes;
  obs::Counter& replied;
  obs::Counter& unanswered;
  obs::Counter& retries;
  obs::Counter& malformed;
  obs::Counter& arena_reuses;
  obs::Counter& hot_allocs;
  obs::Histogram& round_ms;
  obs::Histogram& probe_phase_ms;
  obs::Histogram& rtt_ms;

  static EngineMetrics& get() {
    auto& r = obs::metrics();
    const auto ms = obs::latency_buckets_ms();
    static EngineMetrics m{r.counter("vp_engine_rounds_total"),
                           r.counter("vp_engine_probes_sent_total"),
                           r.counter("vp_engine_probes_replied_total"),
                           r.counter("vp_engine_probes_unanswered_total"),
                           r.counter("vp_engine_retries_total"),
                           r.counter("vp_collector_malformed_total"),
                           r.counter("vp_engine_arena_reuses_total"),
                           r.counter("vp_engine_hot_allocs_total"),
                           r.histogram("vp_engine_round_ms", ms),
                           r.histogram("vp_engine_probe_phase_ms", ms),
                           r.histogram("vp_engine_rtt_ms", ms)};
    return m;
  }
};

double percentile(std::vector<float>& values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

}  // namespace

RoundResult Verfploeter::run(const bgp::RoutingTable& routes,
                             const RoundSpec& spec,
                             RoundObserver* observer) const {
  const ProbeConfig& config = spec.probe;
  const anycast::Deployment& deployment = routes.deployment();
  const std::size_t site_count = deployment.sites.size();

  EngineMetrics& em = EngineMetrics::get();
  obs::Span round_span{&em.round_ms};

  // Materialize the block->site catchment table once, serially, before
  // the workers fan out — otherwise every worker's first probe piles up
  // on the resolver's call_once.
  internet_->warm(routes);

  // Cross-round scratch: a caller-provided arena (Campaign, the daemon,
  // the benches) makes round N+1 reuse round N's capacities; without one
  // the round allocates privately and the arena dies with the call.
  util::RoundArena local_arena;
  util::RoundArena* arena = spec.arena != nullptr ? spec.arena : &local_arena;
  const std::uint64_t reuses_before = arena->reuses();
  EngineWorkspace& ws = arena->state<EngineWorkspace>();
  if (arena->reuses() > reuses_before) em.arena_reuses.add();

  RoundResult result;
  result.started = spec.start;

  // --- plan ---------------------------------------------------------------
  // Probe i's global index gives its tx timestamp and ICMP sequence as
  // pure functions (tx = start + i/rate), so packets are bit-identical to
  // the serial walk's no matter which shard builds them or when. With no
  // extra targets the index IS the order position (one probe per entry)
  // and the prefix-sum array is elided entirely — 51MB saved at 6.4M.
  const std::size_t entry_count = hitlist_->size();
  util::arena_reserve(ws.order, entry_count, *arena);
  hitlist_->probe_order_into(util::hash_combine(config.order_seed, spec.round),
                             ws.order);
  const auto& order = ws.order;
  const std::uint64_t target_seed =
      util::hash_combine(config.order_seed, 0x7a6e);
  const bool multi_target = config.extra_targets_per_block > 0;
  std::uint64_t total_probes = entry_count;
  if (multi_target) {
    util::arena_reserve(ws.offset, entry_count + 1, *arena);
    ws.offset.assign(entry_count + 1, 0);
    std::vector<net::Ipv4Address> scratch;
    for (std::size_t i = 0; i < entry_count; ++i) {
      const hitlist::Entry& entry = hitlist_->entries()[order[i]];
      ws.offset[i + 1] =
          ws.offset[i] + hitlist_
                             ->targets_into(entry,
                                            config.extra_targets_per_block,
                                            target_seed, scratch)
                             .size();
    }
    total_probes = ws.offset[entry_count];
  }
  // Inverse of the order: entry e goes out at order position pos[e]. One
  // serial scatter — cheaper than every shard scanning the whole order
  // for its own entries.
  util::arena_reserve(ws.pos, entry_count, *arena);
  ws.pos.resize(entry_count);
  for (std::size_t i = 0; i < entry_count; ++i)
    ws.pos[order[i]] = static_cast<std::uint32_t>(i);

  // Contiguous, equal-sized ranges of hitlist entries, one per shard.
  // Entries follow the topology's ascending block run, so a shard's
  // resolver, geo, responsiveness and entry_by_block rows are contiguous
  // and private to it. Its probe indices are scattered over the whole
  // round, which the cleaner's total order makes irrelevant (Reply).
  const unsigned shard_count = static_cast<unsigned>(std::min<std::uint64_t>(
      util::resolve_threads(spec.threads),
      std::max<std::uint64_t>(entry_count, 1)));

  // Block span of the hitlist: backs the direct-mapped entry table (one
  // slot per /24), the owner partition, and the result's dense catchment
  // map. Every probed address lies inside its entry's block, so the span
  // covers all of them.
  std::uint32_t block_lo = 0;
  std::size_t block_span = 0;
  if (entry_count > 0) {
    std::uint32_t lo = 0xffffffff, hi = 0;
    for (const hitlist::Entry& entry : hitlist_->entries()) {
      lo = std::min(lo, entry.block.index());
      hi = std::max(hi, entry.block.index());
    }
    block_lo = lo;
    block_span = static_cast<std::size_t>(hi - lo) + 1;
  }
  // Filled race-free inside the shard loop: each hitlist entry (and thus
  // each block slot) belongs to exactly one shard. Read only after the
  // workers join.
  util::arena_reserve(ws.entry_by_block, block_span, *arena);
  ws.entry_by_block.assign(block_span, 0);

  // --- probe phase (sharded by block range) -------------------------------
  const util::SimTime gap =
      util::SimTime::from_seconds(1.0 / config.rate_pps);
  // Fault/retry path: only taken when a live plan or retries are
  // configured, so a plain round stays byte-identical to the pre-fault
  // engine. Retry timing is a pure function of the probe's global index
  // and attempt number (see ProbeConfig::max_retries), which keeps the
  // sharded round deterministic.
  const sim::FaultInjector* injector =
      (spec.faults != nullptr && spec.faults->plan().enabled()) ? spec.faults
                                                                : nullptr;
  const int max_attempts = 1 + std::max(config.max_retries, 0);
  const bool robust = injector != nullptr || max_attempts > 1;
  const util::SimTime timeout =
      util::SimTime::from_seconds(config.probe_timeout_ms / 1000.0);
  const util::SimTime window =
      util::SimTime{gap.usec * static_cast<std::int64_t>(total_probes)};
  const util::SimTime cutoff =
      spec.start + util::SimTime::from_minutes(config.late_cutoff_minutes);

  util::arena_reserve(ws.shards, shard_count, *arena);
  if (ws.shards.size() < shard_count) ws.shards.resize(shard_count);
  std::mutex observer_mutex;
  std::uint64_t sent_total = 0;  // guarded by observer_mutex
  // Each worker flushes its tallies and reports progress every `stride`
  // probes; dividing by the shard count keeps the global reporting
  // cadence roughly constant as threads grow.
  const std::uint64_t stride =
      std::max<std::uint64_t>((1u << 16) / shard_count, 4096);

  obs::Span probe_span{&em.probe_phase_ms};
  util::run_shards(shard_count, [&](unsigned s) {
    ShardWs& shard = ws.shards[s];
    shard.faults = {};
    shard.cleaning = {};
    shard.obs_probes = shard.obs_replied = shard.obs_unanswered = 0;
    if (shard.sites.size() != site_count || shard.owned.size() != shard_count) {
      shard.sites.resize(site_count);
      shard.owned.resize(shard_count);
      shard.start_caps.resize(shard_count);
      ++shard.hot_grows;
    }
    std::fill(shard.sites.begin(), shard.sites.end(), SiteTally{});
    for (unsigned o = 0; o < shard_count; ++o) {
      shard.owned[o].clear();
      shard.start_caps[o] = shard.owned[o].capacity();
    }
    const std::size_t begin = entry_count * s / shard_count;
    const std::size_t end = entry_count * (s + 1) / shard_count;

    std::uint64_t since_report = 0;
    sim::DataplaneTally dataplane;
    sim::ResolveTally resolve_tally;
    for (std::size_t e = begin; e < end; ++e) {
      const hitlist::Entry& entry = hitlist_->entries()[e];
      ws.entry_by_block[entry.block.index() - block_lo] =
          static_cast<std::uint32_t>(e + 1);
      const auto targets =
          hitlist_->targets_into(entry, config.extra_targets_per_block,
                                 target_seed, shard.targets_scratch);
      std::uint64_t probe_index =
          multi_target ? ws.offset[ws.pos[e]] : ws.pos[e];
      for (std::size_t k = 0; k < targets.size(); ++k) {
        const net::Ipv4Address target = targets[k];
        util::SimTime attempt_tx =
            spec.start + util::SimTime{gap.usec * static_cast<std::int64_t>(
                                                      probe_index)};
        double backoff_ms = config.retry_backoff_ms;
        bool answered = false;
        std::uint16_t seq = 0;
        for (int attempt = 0; attempt < max_attempts; ++attempt) {
          if (attempt > 0) ++shard.faults.retries;
          bool answered_in_time = false;
          if (injector != nullptr &&
              injector->drops_probe(target, spec.round,
                                    static_cast<std::uint32_t>(attempt))) {
            ++shard.faults.probes_lost;
          } else {
            net::ProbePayload payload;
            payload.measurement_id = config.measurement_id;
            payload.tx_time_usec = attempt_tx.usec;
            payload.original_target = target;
            net::build_echo_request_into(
                shard.probe_bytes, deployment.measurement_address, target,
                static_cast<std::uint16_t>(config.measurement_id & 0xffff),
                static_cast<std::uint16_t>(probe_index & 0xffff), payload);
            internet_->probe_into(routes, shard.probe_bytes, attempt_tx,
                                  spec.round, shard.deliveries,
                                  shard.reply_bytes, dataplane,
                                  &resolve_tally);
            if (injector != nullptr) {
              injector->apply_reply_faults(
                  shard.deliveries, entry.block, spec.round,
                  static_cast<std::uint32_t>(attempt), attempt_tx,
                  site_count, spec.start, window, shard.faults);
            } else if (robust) {
              shard.faults.replies_generated += shard.deliveries.size();
            }
            if (!shard.deliveries.empty()) {
              // All deliveries of one attempt share the same bytes: parse
              // once, then let each receiving site's collector judge what
              // the record alone decides (wrong id, late, a source outside
              // the span) and send the rest to its block's owner.
              const auto parsed = net::parse_reply_view(shard.reply_bytes);
              const std::uint32_t off =
                  parsed ? net::Block24::containing(parsed->ip.source).index() -
                               block_lo  // wraps below block_lo: >= span
                         : 0;
              for (const sim::DeliveryView& delivery : shard.deliveries) {
                if (delivery.arrival <= attempt_tx + timeout)
                  answered_in_time = true;
                SiteTally& tally =
                    shard.sites[static_cast<std::size_t>(delivery.site)];
                tally.bytes += shard.reply_bytes.size();
                if (!parsed) {
                  ++tally.malformed;
                } else {
                  ++tally.parsed;
                  if (parsed->probe.measurement_id != config.measurement_id) {
                    ++shard.cleaning.wrong_id;
                  } else if (delivery.arrival.usec > cutoff.usec) {
                    ++shard.cleaning.late;
                  } else if (off >= block_span) {
                    ++shard.cleaning.unsolicited;
                  } else {
                    shard.owned[off * std::uint64_t{shard_count} / block_span]
                        .push_back(Reply{
                            off, parsed->ip.source.value(),
                            delivery.arrival.usec, probe_index,
                            static_cast<float>(delivery.arrival.usec -
                                               parsed->probe.tx_time_usec) /
                                1000.0f,
                            seq, delivery.site});
                  }
                }
                ++seq;
              }
            }
          }
          if (answered_in_time) {
            if (attempt > 0) ++shard.faults.recovered;
            answered = true;
            break;
          }
          attempt_tx += timeout + util::SimTime::from_seconds(
                                      backoff_ms / 1000.0);
          backoff_ms *= config.retry_backoff_factor;
        }
        ++shard.obs_probes;
        if (answered)
          ++shard.obs_replied;
        else
          ++shard.obs_unanswered;
        ++probe_index;
        // The only places this worker touches the shared obs layer and
        // the observer: every `stride` probes, and once at the end.
        if (++since_report == stride) {
          sim::InternetSim::flush(dataplane);
          sim::FlipModel::flush(resolve_tally);
          if (observer != nullptr) {
            std::lock_guard lock{observer_mutex};
            sent_total += since_report;
            observer->on_probe_progress(spec, sent_total, total_probes);
          }
          since_report = 0;
        }
      }
    }
    sim::InternetSim::flush(dataplane);
    sim::FlipModel::flush(resolve_tally);
    for (unsigned o = 0; o < shard_count; ++o)
      if (shard.owned[o].capacity() != shard.start_caps[o]) ++shard.hot_grows;
  });
  const double probe_phase_ms = probe_span.stop();
  if (observer != nullptr)
    observer->on_probe_progress(spec, total_probes, total_probes);

  result.probing_duration = window;
  result.map.measurement_id = config.measurement_id;

  // --- collector sums -----------------------------------------------------
  // Fault counters and tallies are sums, so shard order cannot affect
  // them. Every hitlist entry (= one block) was probed by exactly one
  // shard, so blocks_probed is just the entry count.
  // NB: ws.shards may be longer than shard_count when a cross-round arena
  // served a wider round earlier — only the first shard_count entries
  // belong to THIS round, so every loop below indexes explicitly.
  for (unsigned s = 0; s < shard_count; ++s)
    result.faults += ws.shards[s].faults;
  result.map.probes_sent = total_probes + result.faults.retries;
  result.map.blocks_probed = entry_count;
  if (observer != nullptr) observer->on_fault_stats(spec, result.faults);

  // Flush the workers' observability tallies. Labeled per-shard series
  // let a dashboard spot an unbalanced split; the aggregates feed the
  // one-line progress report. Skipped entirely when metrics are off —
  // nothing downstream reads them, so results cannot change (the
  // determinism test runs both ways and byte-compares the CSVs).
  if (obs::metrics().enabled()) {
    auto& reg = obs::metrics();
    for (unsigned s = 0; s < shard_count; ++s) {
      const ShardWs& shard = ws.shards[s];
      const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
      reg.counter("vp_engine_shard_probes_total" + label)
          .add(shard.obs_probes);
      reg.counter("vp_engine_shard_replied_total" + label)
          .add(shard.obs_replied);
      reg.counter("vp_engine_shard_unanswered_total" + label)
          .add(shard.obs_unanswered);
      reg.counter("vp_engine_shard_retries_total" + label)
          .add(shard.faults.retries);
      em.probes.add(shard.obs_probes);
      em.replied.add(shard.obs_replied);
      em.unanswered.add(shard.obs_unanswered);
      em.retries.add(shard.faults.retries);
    }
    if (robust) sim::record_fault_metrics(result.faults, reg);
  }

  result.raw_replies_per_site.assign(site_count, 0);
  CleaningStats& stats = result.map.cleaning;
  for (unsigned s = 0; s < shard_count; ++s) {
    for (std::size_t site = 0; site < site_count; ++site) {
      const SiteTally& tally = ws.shards[s].sites[site];
      result.raw_replies_per_site[site] += tally.parsed;
      stats.malformed += tally.malformed;
      stats.raw_replies += tally.parsed + tally.malformed;
    }
  }
  if (obs::metrics().enabled()) {
    auto& reg = obs::metrics();
    for (std::size_t site = 0; site < site_count; ++site) {
      std::uint64_t bytes = 0;
      for (unsigned s = 0; s < shard_count; ++s)
        bytes += ws.shards[s].sites[site].bytes;
      const std::string label =
          "{site=\"" + deployment.sites[site].code + "\"}";
      reg.counter("vp_collector_replies_total" + label)
          .add(result.raw_replies_per_site[site]);
      reg.counter("vp_collector_bytes_total" + label).add(bytes);
    }
    em.malformed.add(stats.malformed);
  }
  if (observer != nullptr)
    observer->on_replies_collected(spec, result.raw_replies_per_site);

  // --- central cleaning (paper §4), partitioned by block owner ------------
  // Owner o holds the blocks with off * P / span == o, so owners are
  // contiguous block ranges in ascending order. Each owner gathers its
  // bucket from every shard, sorts it by the total order (Reply) and
  // keeps the first solicited reply of each block. Solicited means the
  // source is one of the block's probed targets — a pure function of the
  // block's entry, the same check for one target or several.
  util::run_shards(shard_count, [&](unsigned o) {
    ShardWs& owner = ws.shards[o];
    std::vector<Reply>& mine = owner.owned[o];
    std::size_t total = 0;
    for (unsigned s = 0; s < shard_count; ++s)
      total += ws.shards[s].owned[o].size();
    // Every bucket is sized for the next round here, outside the probe
    // loop, so a warm round's probe phase does not regrow it.
    size_for_next_round(mine, total, mine.capacity() != owner.start_caps[o],
                        owner.hot_grows);
    for (unsigned s = 0; s < shard_count; ++s) {
      if (s == o) continue;
      std::vector<Reply>& bucket = ws.shards[s].owned[o];
      const bool grew = bucket.capacity() != ws.shards[s].start_caps[o];
      mine.insert(mine.end(), bucket.begin(), bucket.end());
      const std::size_t n = bucket.size();
      bucket.clear();
      size_for_next_round(bucket, n, grew, owner.hot_grows);
    }
    std::sort(mine.begin(), mine.end());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < mine.size();) {
      const std::uint32_t off = mine[i].off;
      const std::uint32_t entry = ws.entry_by_block[off];
      std::span<const net::Ipv4Address> targets;
      if (entry != 0) {
        targets = hitlist_->targets_into(hitlist_->entries()[entry - 1],
                                         config.extra_targets_per_block,
                                         target_seed, owner.targets_scratch);
      }
      bool mapped = false;
      for (; i < mine.size() && mine[i].off == off; ++i) {
        if (std::find(targets.begin(), targets.end(),
                      net::Ipv4Address{mine[i].source}) == targets.end()) {
          ++owner.cleaning.unsolicited;
        } else if (mapped) {
          ++owner.cleaning.duplicates;
        } else {
          mapped = true;
          mine[kept++] = mine[i];
        }
      }
    }
    mine.resize(kept);
    owner.cleaning.kept = kept;
  });

  // Map writes and RTTs in owner order, which is block order: the same
  // sequence for any thread count. The result outlives the round, so its
  // map owns plain vectors rather than arena slots; pre-sizing it to the
  // span means no write regrows.
  if (block_span > 0) {
    result.map.cover(net::Block24{block_lo},
                     net::Block24{block_lo + static_cast<std::uint32_t>(
                                                 block_span - 1)});
  }
  util::arena_reserve(ws.kept_rtts, entry_count, *arena);
  ws.kept_rtts.clear();
  std::uint64_t hot_grows = 0;
  for (unsigned o = 0; o < shard_count; ++o) {
    ShardWs& owner = ws.shards[o];
    for (const Reply& reply : owner.owned[o]) {
      result.map.set(net::Block24{block_lo + reply.off}, reply.site,
                     reply.rtt_ms);
      ws.kept_rtts.push_back(reply.rtt_ms);
    }
    stats.wrong_id += owner.cleaning.wrong_id;
    stats.late += owner.cleaning.late;
    stats.unsolicited += owner.cleaning.unsolicited;
    stats.duplicates += owner.cleaning.duplicates;
    stats.kept += owner.cleaning.kept;
    hot_grows += owner.hot_grows;
    owner.hot_grows = 0;
  }
  em.hot_allocs.add(hot_grows);
  arena->note_grow(hot_grows);
  // One publish for the round's RTTs instead of an atomic round-trip per
  // kept reply (same buckets, count, sum, min and max).
  em.rtt_ms.observe_all(ws.kept_rtts);
  em.rounds.add();
  const double wall_ms = round_span.stop();
  if (observer != nullptr) {
    observer->on_round_complete(spec, result);
    RoundMetrics metrics;
    metrics.wall_ms = wall_ms;
    metrics.probe_phase_ms = probe_phase_ms;
    metrics.probes_sent = result.map.probes_sent;
    metrics.replies_raw = stats.raw_replies;
    metrics.replies_kept = stats.kept;
    metrics.probes_per_sec =
        wall_ms > 0.0
            ? static_cast<double>(metrics.probes_sent) / (wall_ms / 1000.0)
            : 0.0;
    metrics.rtt_p50_ms = percentile(ws.kept_rtts, 0.50);
    metrics.rtt_p95_ms = percentile(ws.kept_rtts, 0.95);
    observer->on_metrics(spec, metrics);
  }
  return result;
}

}  // namespace vp::core
