// The simulated Internet dataplane.
//
// Takes raw probe packets from the Verfploeter prober, delivers them to the
// target host (if the block is responsive this round), and routes the raw
// Echo Reply bytes to the anycast site serving that block's catchment —
// exactly the mechanism of Figure 1 (right): the reply returns "to the site
// for their catchment, even if it is not the site that originated the
// query". RTTs are distance-based so reply timestamps and the late-reply
// cleaning path are realistic.
//
// Thread-safety: probe_into() and every model beneath it (responsiveness,
// flips, RTT jitter) are const and PURE — each stochastic decision is a
// stateless hash of (block, round, seed), with all generator state local
// to the call. The sharded round runner (core/verfploeter.hpp) depends on
// this: concurrent probe_into() calls against the same InternetSim and
// RoutingTable must be data-race-free and give identical answers in any
// interleaving. Do not add mutable caches here without a lock and a
// determinism argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/routing.hpp"
#include "net/packet.hpp"
#include "sim/flips.hpp"
#include "sim/responsiveness.hpp"
#include "util/clock.hpp"

namespace vp::sim {

struct InternetConfig {
  ResponsivenessConfig responsiveness;
  FlipConfig flips;
  /// Mean of the random queuing component added to propagation delay.
  double mean_queue_delay_ms = 12.0;
  /// Extra delay (beyond the cutoff) for "late" replies.
  double late_extra_minutes = 20.0;
};

/// A reply packet arriving at one anycast site's collector. All deliveries
/// of one probe attempt are copies of the SAME reply packet (only site and
/// arrival can differ per copy), so probe_into materializes the bytes once
/// in a caller-owned scratch buffer and hands out plain (site, arrival)
/// pairs. Valid until the next probe_into call on the same scratch.
struct DeliveryView {
  anycast::SiteId site = anycast::kUnknownSite;
  util::SimTime arrival;
};

/// Batched dataplane counters: probe_into accumulates here instead of
/// touching the striped metric counters per probe; the caller flushes
/// them via InternetSim::flush (the engine once per tile). Field meanings
/// match the vp_sim_* counters one-to-one.
struct DataplaneTally {
  std::uint64_t probes = 0;
  std::uint64_t malformed = 0;
  std::uint64_t unresponsive = 0;
  std::uint64_t site_lookups = 0;
  std::uint64_t replies = 0;
};

class InternetSim {
 public:
  InternetSim(const topology::Topology& topo, const InternetConfig& config)
      : topo_(&topo),
        config_(config),
        responsiveness_(topo, config.responsiveness),
        flips_(config.flips) {}

  const ResponsivenessModel& responsiveness() const { return responsiveness_; }
  const FlipModel& flips() const { return flips_; }

  /// Ground-truth site for a block in a round (hot-potato + flips). This
  /// is what the paper cannot observe and we can: tests compare measured
  /// catchments against it.
  anycast::SiteId ground_truth_site(const bgp::RoutingTable& routes,
                                    net::Block24 block,
                                    std::uint32_t round) const {
    return flips_.site_in_round(routes, block, round);
  }

  /// Builds `routes`' catchment resolver up front so the first probe of a
  /// round doesn't pay the one-time block->site materialization. Safe to
  /// call concurrently and repeatedly; a no-op when precomputation is
  /// disabled. The probe engine calls this once before fanning out.
  void warm(const bgp::RoutingTable& routes) const { flips_.warm(routes); }

  /// Injects one probe packet at `tx_time` during `round`, using `routes`
  /// as the current BGP state. Every reply delivery it causes lands in
  /// `out` (cleared first; empty for unresponsive/unallocated targets or
  /// malformed packets) as a view over `reply_scratch`, which holds the
  /// reply bytes, built once per attempt. Dataplane counts accumulate in
  /// `tally` for the caller to flush; resolution counts go to
  /// `resolve_tally` when non-null, else straight to the striped
  /// counters (see FlipModel::site_in_round).
  void probe_into(const bgp::RoutingTable& routes,
                  std::span<const std::uint8_t> packet_bytes,
                  util::SimTime tx_time, std::uint32_t round,
                  std::vector<DeliveryView>& out,
                  std::vector<std::uint8_t>& reply_scratch,
                  DataplaneTally& tally,
                  ResolveTally* resolve_tally = nullptr) const;

  /// Flushes a DataplaneTally (and nothing else) to the vp_sim_* striped
  /// counters, zeroing it. ResolveTally flushes via FlipModel::flush.
  static void flush(DataplaneTally& tally);

 private:
  double rtt_ms(net::Block24 block, anycast::SiteId site,
                const bgp::RoutingTable& routes, std::uint64_t jitter_key)
      const;

  const topology::Topology* topo_;
  InternetConfig config_;
  ResponsivenessModel responsiveness_;
  FlipModel flips_;
};

}  // namespace vp::sim
