// Catchment flip model: which blocks change anycast site between rounds.
//
// The paper (§6.3, Table 7) finds anycast is stable for ~99.9% of VPs per
// round, but a small population — concentrated in a handful of ASes with
// load-balanced multipath, half of it in Chinanet — flips persistently.
// We model this on top of the routing table's *tied* candidate sets: a
// block can only flip between sites that BGP actually holds as equal-best
// at its AS. Within load-balanced ASes a small "flappy" population picks a
// tied route per round (per-flow load balancing); every other multi-route
// AS contributes a rare background flip (transient routing changes).
//
// Every decision is a stateless hash of (seed, block, round): const
// methods are pure and safe under concurrent probe workers
// (core/verfploeter.hpp).
#pragma once

#include <cstdint>

#include "bgp/routing.hpp"
#include "net/ipv4.hpp"

namespace vp::sim {

/// Batched resolution counters. The probe engine hands one of these to
/// site_in_round for a whole tile of blocks and flushes the totals to the
/// striped metric counters once per tile, instead of touching the obs
/// layer on every probe. hits = O(1) precomputed-resolver path; misses =
/// full hash-map walk (cache disabled or flip-signature mismatch).
struct ResolveTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct FlipConfig {
  std::uint64_t seed = 11;
  /// Fraction of blocks within a load-balanced, multi-site AS that are
  /// persistently flappy (re-rolled each round).
  double flappy_rate_load_balanced = 0.010;
  /// Same, for ASes that are multi-site-tied but not flagged
  /// load-balanced.
  double flappy_rate_background = 0.0008;
  /// Per-(block, round) probability of a transient routing event sending
  /// the block to a different site for just that round — the long "Other"
  /// tail of Table 7: thousands of ASes with one or two flips each.
  double transient_rate = 0.0003;
};

class FlipModel {
 public:
  explicit FlipModel(const FlipConfig& config = {}) : config_(config) {}

  const FlipConfig& config() const { return config_; }

  /// Ground-truth site of a block in a specific round: the hot-potato
  /// choice, unless the block is flappy (per-round pick among the AS's
  /// tied candidates) or hit by a transient routing event (any other
  /// visible site, for one round only). When `tally` is non-null the
  /// hit/miss count is accumulated there instead of hitting the striped
  /// metric counters — callers flush per tile (the site answer itself is
  /// identical either way).
  anycast::SiteId site_in_round(const bgp::RoutingTable& routes,
                                net::Block24 block, std::uint32_t round,
                                ResolveTally* tally = nullptr) const;

  /// Flushes a ResolveTally accumulated via site_in_round to the metric
  /// counters, leaving `tally` zeroed.
  static void flush(ResolveTally& tally);

  /// Whether the block belongs to the flappy population under `routes`.
  bool is_flappy(const bgp::RoutingTable& routes, net::Block24 block) const;

  /// Hash of the flip configuration that shapes the flappy bitset (seed
  /// and the two flappy rates; transient_rate stays out because transient
  /// events are rolled per probe, never baked into the resolver).
  std::uint64_t flap_signature() const;

  /// The routing table's catchment resolver for this flip configuration,
  /// building it on first use; nullptr when catchment precomputation is
  /// disabled or the table's resolver was built under a different flip
  /// signature (callers fall back to the uncached path — answers are
  /// identical either way).
  const bgp::CatchmentResolver* resolver_for(
      const bgp::RoutingTable& routes) const;

  /// Eagerly builds the resolver (probe engines call this once per round
  /// setup so the first probe doesn't pay the build).
  void warm(const bgp::RoutingTable& routes) const { (void)resolver_for(routes); }

 private:
  FlipConfig config_;
};

}  // namespace vp::sim
