#include "core/verfploeter.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "bgp/catchment_resolver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"
#include "util/thread_pool.hpp"

namespace vp::core {

namespace {

/// Auto tile size (RoundSpec::tile_entries == 0): the probe-order entries
/// one shard walks before moving to the next block range. 32k entries
/// keep the resolver slice (~32KB), the flappy bitset (~4KB) and the
/// geo/responsiveness rows a tile touches comfortably inside LLC while
/// still amortizing the per-tile bucketing work.
constexpr std::uint32_t kDefaultTileEntries = 32768;

/// Structure-of-arrays reply accumulator, one per (shard, site): the
/// site's collector. Columns keep their capacity across rounds via the
/// round arena, so steady-state appends never allocate and each column
/// streams sequentially through cache.
/// `key` is the probe's GLOBAL index in the round's probe order and `seq`
/// the per-probe delivery counter, in append order across attempts —
/// together they are the merge's tie-break (see CleanRecord).
struct ReplyBuffer {
  std::vector<std::int64_t> arrival_usec;
  std::vector<std::int64_t> tx_usec;
  std::vector<std::uint64_t> key;
  std::vector<std::uint32_t> source;
  std::vector<std::uint32_t> measurement_id;
  std::vector<std::uint16_t> seq;
  std::uint64_t malformed = 0;
  std::uint64_t bytes_received = 0;

  std::size_t size() const { return arrival_usec.size(); }

  void push(std::int64_t arrival, std::int64_t tx, std::uint64_t probe_key,
            std::uint32_t src, std::uint32_t mid, std::uint16_t delivery_seq) {
    arrival_usec.push_back(arrival);
    tx_usec.push_back(tx);
    key.push_back(probe_key);
    source.push_back(src);
    measurement_id.push_back(mid);
    seq.push_back(delivery_seq);
  }

  void clear() {
    arrival_usec.clear();
    tx_usec.clear();
    key.clear();
    source.clear();
    measurement_id.clear();
    seq.clear();
    malformed = 0;
    bytes_received = 0;
  }

  std::size_t capacity() const { return arrival_usec.capacity(); }
};

/// One merged reply in the cleaning array. `key` is the probe's global
/// index in the round's probe order and `seq` its per-probe delivery
/// counter (append order across attempts), so (arrival, site, key, seq)
/// is a strict total order — (key, seq) is unique per record. It is the
/// order of a serial walk that appended each site's replies in ascending
/// (probe index, seq) and then stable-sorted by arrival; shards own
/// ascending disjoint probe-index ranges, so a site-major, shard-order
/// concatenation of the buffers has the same equal-arrival tie order.
/// Making that order explicit in the comparator frees every shard to
/// produce its records in any processing order — which is what lets the
/// tiled walk exist at all.
struct CleanRecord {
  std::int64_t arrival_usec = 0;
  std::int64_t tx_usec = 0;
  std::uint64_t key = 0;
  std::uint32_t source = 0;
  std::uint32_t measurement_id = 0;
  std::uint16_t seq = 0;
  anycast::SiteId site = anycast::kUnknownSite;

  friend bool operator<(const CleanRecord& a, const CleanRecord& b) {
    if (a.arrival_usec != b.arrival_usec) return a.arrival_usec < b.arrival_usec;
    if (a.site != b.site) return a.site < b.site;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }
};

/// One worker's cross-round state. Nothing here is shared while the probe
/// phase runs; the coordinator reads it after the workers join. Lives in
/// the round arena so round N+1 starts with round N's capacities.
struct ShardWs {
  std::vector<ReplyBuffer> replies;        // one per site
  std::vector<std::uint32_t> tile_start;   // bucket -> first slot, size B+1
  std::vector<std::uint32_t> tile_cursor;  // counting-sort fill cursors
  std::vector<std::uint32_t> tile_entry;   // slot -> hitlist entry index
  std::vector<std::uint64_t> tile_gidx;    // slot -> first global probe idx
  std::vector<net::Ipv4Address> targets_scratch;
  std::vector<std::uint8_t> probe_bytes;
  std::vector<std::uint8_t> reply_bytes;
  std::vector<sim::DeliveryView> deliveries;
  std::vector<std::uint32_t> probed_addresses;  // extra-targets mode only
  sim::FaultStats faults;  // summed at merge: order-invariant
  // Observability tallies (plain ints: private to the worker, flushed
  // into the registry by the coordinator — zero hot-path contention).
  std::uint64_t obs_probes = 0;      // unique targets probed
  std::uint64_t obs_replied = 0;     // probes answered within the timeout
  std::uint64_t obs_unanswered = 0;  // probes never answered in time
  std::uint64_t hot_grows = 0;       // capacity growths inside the loop
};

/// Everything the engine keeps alive between rounds. One instance per
/// arena; shapes repeat round to round (same hitlist, same threads), so
/// a steady-state round allocates nothing here.
struct EngineWorkspace {
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> offset;  // extra-targets mode only
  std::vector<ShardWs> shards;
  std::vector<std::uint32_t> addr_by_block;  // block off -> probed address
  std::vector<std::uint32_t> sorted_addresses;  // extra-targets mode only
  std::vector<CleanRecord> merged;
  std::vector<float> kept_rtts;
  std::vector<std::uint64_t> site_bytes;
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
  const bgp::CatchmentResolver* resolver =
      internet_->flips().resolver_for(routes);

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
  // the serial walk's no matter which shard or tile builds them. With no
  // extra targets the index IS the order position (one probe per entry)
  // and the prefix-sum array is elided entirely — 51MB saved at 6.4M.
  util::arena_reserve(ws.order, hitlist_->size(), *arena);
  hitlist_->probe_order_into(util::hash_combine(config.order_seed, spec.round),
                             ws.order);
  const auto& order = ws.order;
  const std::uint64_t target_seed =
      util::hash_combine(config.order_seed, 0x7a6e);
  const bool multi_target = config.extra_targets_per_block > 0;
  std::uint64_t total_probes = order.size();
  if (multi_target) {
    util::arena_reserve(ws.offset, order.size() + 1, *arena);
    ws.offset.assign(order.size() + 1, 0);
    std::vector<net::Ipv4Address> scratch;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const hitlist::Entry& entry = hitlist_->entries()[order[i]];
      ws.offset[i + 1] =
          ws.offset[i] + hitlist_
                             ->targets_into(entry,
                                            config.extra_targets_per_block,
                                            target_seed, scratch)
                             .size();
    }
    total_probes = ws.offset[order.size()];
  }

  // Contiguous chunks of the probe order, balanced by probe count. Each
  // chunk owns an ascending, disjoint global probe-index range — the
  // property the merge sort's (key, seq) tie-break relies on.
  const unsigned shard_count = static_cast<unsigned>(std::min<std::uint64_t>(
      util::resolve_threads(spec.threads),
      std::max<std::uint64_t>(order.size(), 1)));
  std::vector<std::size_t> bounds(shard_count + 1, order.size());
  bounds[0] = 0;
  for (unsigned s = 1; s < shard_count; ++s) {
    const std::uint64_t want = total_probes * s / shard_count;
    bounds[s] =
        multi_target
            ? static_cast<std::size_t>(
                  std::lower_bound(ws.offset.begin(), ws.offset.end(), want) -
                  ws.offset.begin())
            : static_cast<std::size_t>(
                  std::min<std::uint64_t>(want, order.size()));
  }

  // Block span of the hitlist: backs the direct-mapped probed-address
  // table (one slot per /24) and the result's dense catchment map, whose
  // site array doubles as the first-reply-wins set. Every probed address
  // lies inside its entry's block, so the span covers all of them.
  std::uint32_t block_lo = 0;
  std::size_t block_span = 0;
  if (!order.empty()) {
    std::uint32_t lo = 0xffffffff, hi = 0;
    for (const hitlist::Entry& entry : hitlist_->entries()) {
      lo = std::min(lo, entry.block.index());
      hi = std::max(hi, entry.block.index());
    }
    block_lo = lo;
    block_span = static_cast<std::size_t>(hi - lo) + 1;
  }
  if (!multi_target) {
    // Filled race-free inside the shard loop: each hitlist entry (and
    // thus each block slot) belongs to exactly one order position. The
    // zero sentinel is unambiguous — probed addresses have a nonzero
    // host byte, so their value is never 0.
    util::arena_reserve(ws.addr_by_block, block_span, *arena);
    ws.addr_by_block.assign(block_span, 0);
  }

  // --- probe phase (sharded, tiled) ---------------------------------------
  const util::SimTime gap =
      util::SimTime::from_seconds(1.0 / config.rate_pps);
  // Fault/retry path: only taken when a live plan or retries are
  // configured, so a plain round stays byte-identical to the pre-fault
  // engine. Retry timing is a pure function of the probe's global index
  // and attempt number (see ProbeConfig::max_retries), which keeps the
  // sharded merge deterministic.
  const sim::FaultInjector* injector =
      (spec.faults != nullptr && spec.faults->plan().enabled()) ? spec.faults
                                                                : nullptr;
  const int max_attempts = 1 + std::max(config.max_retries, 0);
  const bool robust = injector != nullptr || max_attempts > 1;
  const util::SimTime timeout =
      util::SimTime::from_seconds(config.probe_timeout_ms / 1000.0);
  const util::SimTime window =
      util::SimTime{gap.usec * static_cast<std::int64_t>(total_probes)};
  const std::uint32_t tile_entries =
      spec.tile_entries == 0 ? kDefaultTileEntries : spec.tile_entries;
  const std::size_t entry_count = hitlist_->size();
  const std::size_t bucket_count =
      entry_count == 0
          ? 1
          : (entry_count + tile_entries - 1) / tile_entries;

  util::arena_reserve(ws.shards, shard_count, *arena);
  if (ws.shards.size() < shard_count) ws.shards.resize(shard_count);
  std::mutex observer_mutex;
  std::uint64_t sent_total = 0;  // guarded by observer_mutex
  // Each worker reports every `stride` probes; dividing by the shard count
  // keeps the global reporting cadence roughly constant as threads grow.
  const std::uint64_t stride =
      std::max<std::uint64_t>((1u << 16) / shard_count, 4096);

  obs::Span probe_span{&em.probe_phase_ms};
  util::run_shards(shard_count, [&](unsigned s) {
    ShardWs& shard = ws.shards[s];
    // Capacity growths inside this worker are tracked against the
    // steady-state promise (vp_engine_hot_allocs_total): round 2+ of an
    // arena-backed campaign must report zero.
    const auto grow = [&shard](auto& vec, std::size_t n) {
      if (vec.capacity() < n) {
        vec.reserve(n);
        ++shard.hot_grows;
      }
    };
    shard.faults = {};
    shard.obs_probes = shard.obs_replied = shard.obs_unanswered = 0;
    if (shard.replies.size() != site_count) {
      shard.replies.resize(site_count);
      ++shard.hot_grows;
    }
    std::size_t reply_caps = 0;
    for (ReplyBuffer& buf : shard.replies) {
      buf.clear();
      reply_caps += buf.capacity();
    }
    const std::size_t begin = bounds[s];
    const std::size_t end = bounds[s + 1];
    const std::size_t chunk = end - begin;
    shard.probed_addresses.clear();
    if (multi_target) {
      grow(shard.probed_addresses,
           static_cast<std::size_t>(ws.offset[end] - ws.offset[begin]));
    }

    // Bucket the chunk's order positions into block-range tiles with one
    // counting sort: tile t holds the positions whose entry index lands
    // in [t*tile_entries, (t+1)*tile_entries). Entry indices track block
    // indices (the hitlist follows the topology's ascending block run),
    // so a tile's resolver/geo/responsiveness rows stay cache-resident
    // while its probes run, instead of the whole-range random walk that
    // made the 6.4M round memory-bound.
    grow(shard.tile_start, bucket_count + 1);
    grow(shard.tile_cursor, bucket_count);
    grow(shard.tile_entry, chunk);
    grow(shard.tile_gidx, chunk);
    shard.tile_start.assign(bucket_count + 1, 0);
    shard.tile_entry.resize(chunk);
    shard.tile_gidx.resize(chunk);
    for (std::size_t i = begin; i < end; ++i)
      ++shard.tile_start[order[i] / tile_entries + 1];
    for (std::size_t b = 0; b < bucket_count; ++b)
      shard.tile_start[b + 1] += shard.tile_start[b];
    shard.tile_cursor.assign(shard.tile_start.begin(),
                             shard.tile_start.end() - 1);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t slot = shard.tile_cursor[order[i] / tile_entries]++;
      shard.tile_entry[slot] = order[i];
      shard.tile_gidx[slot] =
          multi_target ? ws.offset[i] : static_cast<std::uint64_t>(i);
    }

    std::uint64_t since_report = 0;
    sim::DataplaneTally dataplane;
    sim::ResolveTally resolve_tally;
    for (std::size_t t = 0; t < bucket_count; ++t) {
      const std::uint32_t slot_begin = shard.tile_start[t];
      const std::uint32_t slot_end = shard.tile_start[t + 1];
      if (slot_begin == slot_end) continue;
      if (resolver != nullptr) {
        // Warm-touch the resolver slices this tile will read. Advisory
        // only — results never depend on it.
        const std::size_t e_lo = t * static_cast<std::size_t>(tile_entries);
        const std::size_t e_hi =
            std::min(e_lo + tile_entries, entry_count) - 1;
        resolver->warm_touch(hitlist_->entries()[e_lo].block,
                             hitlist_->entries()[e_hi].block);
      }

      for (std::uint32_t p = slot_begin; p < slot_end; ++p) {
        const hitlist::Entry& entry = hitlist_->entries()[shard.tile_entry[p]];
        const auto targets =
            hitlist_->targets_into(entry, config.extra_targets_per_block,
                                   target_seed, shard.targets_scratch);
        std::uint64_t probe_index = shard.tile_gidx[p];
        for (std::size_t k = 0; k < targets.size(); ++k) {
          const net::Ipv4Address target = targets[k];
          if (multi_target)
            shard.probed_addresses.push_back(target.value());
          else
            ws.addr_by_block[entry.block.index() - block_lo] = target.value();
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
                // All deliveries of one attempt share the same bytes:
                // parse once, then append a row to each receiving site's
                // collector buffer.
                const auto parsed = net::parse_reply_view(shard.reply_bytes);
                for (const sim::DeliveryView& delivery : shard.deliveries) {
                  if (delivery.arrival <= attempt_tx + timeout)
                    answered_in_time = true;
                  ReplyBuffer& buf =
                      shard.replies[static_cast<std::size_t>(delivery.site)];
                  buf.bytes_received += shard.reply_bytes.size();
                  if (!parsed) {
                    ++buf.malformed;
                  } else {
                    buf.push(delivery.arrival.usec, parsed->probe.tx_time_usec,
                             probe_index, parsed->ip.source.value(),
                             parsed->probe.measurement_id, seq);
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
          if (observer != nullptr && ++since_report == stride) {
            std::lock_guard lock{observer_mutex};
            sent_total += since_report;
            since_report = 0;
            observer->on_probe_progress(spec, sent_total, total_probes);
          }
        }
      }
      // One flush of the tile's dataplane/resolution tallies — the only
      // time this worker touches the shared obs layer per tile.
      sim::InternetSim::flush(dataplane);
      sim::FlipModel::flush(resolve_tally);
    }
    std::size_t reply_caps_after = 0;
    for (const ReplyBuffer& buf : shard.replies)
      reply_caps_after += buf.capacity();
    if (reply_caps_after != reply_caps) ++shard.hot_grows;
  });
  const double probe_phase_ms = probe_span.stop();
  if (observer != nullptr)
    observer->on_probe_progress(spec, total_probes, total_probes);

  result.probing_duration = window;
  result.map.measurement_id = config.measurement_id;

  // --- merge --------------------------------------------------------------
  // Fault counters and tallies are sums, so shard order cannot affect
  // them. Every hitlist entry (= one block) was probed by exactly one
  // shard, so blocks_probed is just the entry count.
  // NB: ws.shards may be longer than shard_count when a cross-round arena
  // served a wider round earlier — only the first shard_count entries
  // belong to THIS round, so every merge loop below indexes explicitly.
  std::uint64_t hot_grows = 0;
  for (unsigned s = 0; s < shard_count; ++s) {
    result.faults += ws.shards[s].faults;
    hot_grows += ws.shards[s].hot_grows;
    ws.shards[s].hot_grows = 0;
  }
  em.hot_allocs.add(hot_grows);
  arena->note_grow(hot_grows);
  result.map.probes_sent = total_probes + result.faults.retries;
  result.map.blocks_probed = order.size();
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

  // Gather every shard's SoA rows into one cleaning array. Gather order
  // is irrelevant: the sort below is a strict total order (see
  // CleanRecord), so any processing schedule lands on the same sequence.
  result.raw_replies_per_site.assign(site_count, 0);
  CleaningStats& stats = result.map.cleaning;
  std::size_t total_records = 0;
  for (unsigned s = 0; s < shard_count; ++s)
    for (const ReplyBuffer& buf : ws.shards[s].replies)
      total_records += buf.size();
  // An eighth of headroom so round-to-round reply variance under a
  // cross-round arena doesn't force a yearly regrow.
  util::arena_reserve(ws.merged, total_records + total_records / 8, *arena);
  ws.merged.clear();
  util::arena_reserve(ws.site_bytes, site_count, *arena);
  ws.site_bytes.assign(site_count, 0);
  for (unsigned s = 0; s < shard_count; ++s) {
    const ShardWs& shard = ws.shards[s];
    for (std::size_t site = 0; site < shard.replies.size(); ++site) {
      const ReplyBuffer& buf = shard.replies[site];
      stats.malformed += buf.malformed;
      ws.site_bytes[site] += buf.bytes_received;
      result.raw_replies_per_site[site] += buf.size();
      for (std::size_t i = 0; i < buf.size(); ++i) {
        CleanRecord record;
        record.arrival_usec = buf.arrival_usec[i];
        record.tx_usec = buf.tx_usec[i];
        record.key = buf.key[i];
        record.source = buf.source[i];
        record.measurement_id = buf.measurement_id[i];
        record.seq = buf.seq[i];
        record.site = static_cast<anycast::SiteId>(site);
        ws.merged.push_back(record);
      }
    }
  }
  stats.raw_replies = ws.merged.size() + stats.malformed;
  if (obs::metrics().enabled()) {
    auto& reg = obs::metrics();
    for (std::size_t site = 0; site < site_count; ++site) {
      const std::string label =
          "{site=\"" + deployment.sites[site].code + "\"}";
      reg.counter("vp_collector_replies_total" + label)
          .add(result.raw_replies_per_site[site]);
      reg.counter("vp_collector_bytes_total" + label).add(ws.site_bytes[site]);
    }
    em.malformed.add(stats.malformed);
  }
  if (observer != nullptr)
    observer->on_replies_collected(spec, result.raw_replies_per_site);

  // --- central cleaning (paper §4) ----------------------------------------
  // First reply wins over the total order (arrival, site, key, seq), so
  // the cleaning pass below sees the same sequence for any shard or tile
  // schedule.
  std::sort(ws.merged.begin(), ws.merged.end());
  const util::SimTime cutoff =
      spec.start + util::SimTime::from_minutes(config.late_cutoff_minutes);
  util::arena_reserve(ws.kept_rtts, order.size(), *arena);
  ws.kept_rtts.clear();
  if (multi_target) {
    // Fallback probed-address index: concatenate the shards' (disjoint)
    // address lists and binary-search. The direct map can't be used — a
    // block probes several addresses.
    util::arena_reserve(ws.sorted_addresses, total_probes, *arena);
    ws.sorted_addresses.clear();
    for (unsigned s = 0; s < shard_count; ++s)
      ws.sorted_addresses.insert(ws.sorted_addresses.end(),
                                 ws.shards[s].probed_addresses.begin(),
                                 ws.shards[s].probed_addresses.end());
    std::sort(ws.sorted_addresses.begin(), ws.sorted_addresses.end());
  }
  // The result outlives the round, so its map owns plain vectors rather
  // than arena slots; pre-sizing it to the span means no write regrows.
  if (block_span > 0) {
    result.map.cover(net::Block24{block_lo},
                     net::Block24{block_lo + static_cast<std::uint32_t>(
                                                 block_span - 1)});
  }
  for (const CleanRecord& record : ws.merged) {
    if (record.measurement_id != config.measurement_id) {
      ++stats.wrong_id;
      continue;
    }
    if (record.arrival_usec > cutoff.usec) {
      ++stats.late;
      continue;
    }
    const net::Block24 block =
        net::Block24::containing(net::Ipv4Address{record.source});
    const std::size_t off = static_cast<std::size_t>(
        block.index() - block_lo);  // wraps below block_lo: off >= span
    if (multi_target
            ? !std::binary_search(ws.sorted_addresses.begin(),
                                  ws.sorted_addresses.end(), record.source)
            : off >= block_span || ws.addr_by_block[off] != record.source) {
      ++stats.unsolicited;
      continue;
    }
    const float rtt =
        static_cast<float>(record.arrival_usec - record.tx_usec) / 1000.0f;
    if (!result.map.set(block, record.site, rtt)) {
      ++stats.duplicates;
      continue;
    }
    ws.kept_rtts.push_back(rtt);
    ++stats.kept;
  }
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
