// Gao-Rexford policy routing over the simulated topology.
//
// This computes, for every (AS, PoP), which anycast site BGP selects —
// the simulation's *ground truth* catchment. Verfploeter never reads this
// table (paper §3.1: "we do not model BGP routing ... we measure actual
// deployment"); the measurement pipeline discovers catchments purely from
// which collector receives each reply, and tests validate the measured map
// against this ground truth.
//
// Model:
//  * Valley-free export (Gao-Rexford): customer routes are exported to
//    everyone; peer/provider routes only to customers.
//  * Selection: local-pref by relationship (customer > peer > provider),
//    then shortest AS path (site prepending counts, §6.1), then a
//    deterministic tie-break hash (salted, so distinct "routing epochs"
//    can be generated — the paper's April vs May shift, §5.5).
//  * Equal-best candidates are retained per AS; multi-PoP ASes resolve
//    them per-PoP by hot-potato (nearest egress), producing the intra-AS
//    catchment divisions of §6.2.
//
// Computation lives in bgp::RoutingEngine (bgp/routing_engine.hpp): a
// session object that produces immutable, structurally shared
// RoutingTables and supports incremental recomputation of configuration
// deltas.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "anycast/deployment.hpp"
#include "topology/topology.hpp"

namespace vp::bgp {

class CatchmentResolver;

using anycast::SiteId;
using topology::AsId;

/// Preference class of a route by the relationship it was learned over.
/// Order matters: lower value = preferred (BGP local-pref convention).
enum class RouteClass : std::uint8_t {
  kCustomer = 0,
  kPeer = 1,
  kProvider = 2,
  kNone = 3,
};

/// Upper bound on equal-best routes retained per AS. The engine's reduce
/// step truncates candidate sets to this, and RoutingTable's fixed-width
/// spray rows (one SiteId row of this width per multipath AS) rely on the
/// bound — the multipath flow hash mods by the stored count, which always
/// equals candidates.size() under this cap.
inline constexpr std::size_t kMaxTiedRoutes = 12;

/// One candidate best route at an AS.
struct CandidateRoute {
  SiteId site = anycast::kUnknownSite;
  std::uint8_t path_len = 0;  // AS hops from the origin, incl. prepending
  RouteClass cls = RouteClass::kNone;
  std::int8_t local_pref_bonus = 0;  // per-link policy boost (see Link)
  AsId egress_neighbor = topology::kNoAs;
  std::uint16_t egress_pop = 0;  // local PoP where the route was learned
  std::uint64_t tiebreak = 0;    // deterministic; lowest wins

  bool operator==(const CandidateRoute&) const = default;
};

/// Routing state of one AS: all equal-best candidates plus the canonical
/// (advertised) choice among them. Candidates are kept in canonical
/// order (ascending tiebreak), so the same inputs yield the same bytes
/// whether the state was computed from scratch or by delta propagation.
struct AsRoutingState {
  std::vector<CandidateRoute> candidates;
  std::uint32_t canonical = 0;  // index into candidates

  bool reachable() const { return !candidates.empty(); }
  const CandidateRoute& best() const { return candidates[canonical]; }
  /// True when the tied candidates span more than one site (the raw
  /// material for both hot-potato divisions and route flapping).
  bool multi_site() const;
};

/// Knobs for a routing computation.
struct RoutingOptions {
  /// Salt mixed into the tie-break hash. Different salts model different
  /// routing epochs: ASes with tied candidates may flip their canonical
  /// choice, reproducing the April-to-May catchment shift of §5.5.
  std::uint64_t tiebreak_salt = 0;
  /// Fraction of tied advertisement decisions that are re-rolled per
  /// epoch instead of following nearest-egress hot-potato. Models IGP
  /// re-weighting, maintenance, and TE changes between measurement dates
  /// — the mechanism behind the paper's 82.4% -> 87.8% block shift over
  /// one month (§5.5). Deterministic per salt.
  double epoch_jitter_rate = 0.25;
};

/// A [begin, end) index range into Topology::blocks() whose site answers
/// may differ between a table and its parent.
using BlockRange = std::pair<std::uint32_t, std::uint32_t>;

/// The computed routing outcome for one deployment.
///
/// Tables are immutable. Tables produced by a RoutingEngine share the
/// unchanged per-AS states with their predecessor (`&a.state(as) ==
/// &b.state(as)` for every AS whose routes did not change) and record
/// delta provenance: the predecessor (`parent()`), the ASes whose final
/// route changed, and the affected block ranges — what CatchmentResolver
/// uses to rebuild only the invalidated slice of its block->site table.
class RoutingTable {
 public:
  /// Construction from hand-built plain per-AS states (tests use it to
  /// pin routing shapes). The deployment is borrowed (caller keeps it
  /// alive); no provenance.
  RoutingTable(const topology::Topology& topo,
               const anycast::Deployment& deployment,
               std::vector<AsRoutingState> states,
               std::uint64_t epoch_salt = 0);

  /// Engine construction: shared per-AS states, owned deployment, and
  /// (for delta-produced tables) the parent plus the changed-AS set.
  /// Hot-potato PoP resolution is copied from the parent and recomputed
  /// only for the changed ASes.
  RoutingTable(const topology::Topology& topo,
               std::shared_ptr<const anycast::Deployment> deployment,
               std::vector<std::shared_ptr<const AsRoutingState>> states,
               std::uint64_t epoch_salt,
               std::shared_ptr<const RoutingTable> parent,
               std::vector<AsId> changed_ases);

  const topology::Topology& topology() const { return *topo_; }
  const anycast::Deployment& deployment() const { return *deployment_; }

  const AsRoutingState& state(AsId as) const { return *states_[as]; }

  /// The shared state object itself — lets tests assert structural
  /// sharing between a delta table and its parent.
  const std::shared_ptr<const AsRoutingState>& shared_state(AsId as) const {
    return states_[as];
  }

  /// Hot-potato-resolved site for a specific PoP of an AS.
  SiteId site_for_pop(AsId as, std::uint16_t pop) const {
    return pop_sites_[(*pop_offsets_)[as] + pop];
  }

  /// Site for a /24 block (via its owning AS + PoP); kUnknownSite if the
  /// block is unallocated or its AS is unreachable.
  SiteId site_for_block(net::Block24 block) const;

  /// Same, with the ownership record already in hand — the hot-path
  /// variant: callers that looked a BlockInfo up once thread it through
  /// instead of re-hashing the block per question.
  SiteId site_for_block(const topology::BlockInfo& info) const;

  /// Number of distinct sites chosen across an AS's PoPs and tied routes.
  std::size_t distinct_sites(AsId as) const;

  /// Delta provenance: the table this one was derived from by a
  /// RoutingEngine::apply, if it is still alive; nullptr for tables
  /// computed from scratch (or whose parent has been dropped).
  std::shared_ptr<const RoutingTable> parent() const {
    return parent_.lock();
  }

  /// ASes whose final route differs from parent(); empty for scratch
  /// tables. Sorted ascending.
  std::span<const AsId> changed_ases() const { return changed_ases_; }

  /// Merged, sorted [begin, end) ranges into topology().blocks() owned
  /// by the changed ASes — the slice of the block->site relation a
  /// warm CatchmentResolver rebuild must recompute.
  std::span<const BlockRange> changed_block_ranges() const {
    return changed_block_ranges_;
  }

  /// This table's lazily-built catchment resolver (block -> site table +
  /// flappy bitset, see bgp/catchment_resolver.hpp). The first caller
  /// builds via `build`; concurrent callers wait, later callers get the
  /// built resolver for free. Returns nullptr when the installed
  /// resolver was built under a different `flip_signature` (callers then
  /// use the uncached path — answers are identical either way).
  const CatchmentResolver* catchment_resolver(
      std::uint64_t flip_signature,
      const std::function<std::unique_ptr<const CatchmentResolver>()>& build)
      const;

  /// The resolver if one has been built; nullptr otherwise.
  const CatchmentResolver* catchment_resolver() const;

  /// Approximate heap footprint (route-cache accounting). Structurally
  /// shared states are counted in full for every table holding them.
  std::size_t memory_bytes() const;

 private:
  struct ResolverSlot;  // once-flag + resolver; shared so moves are cheap

  static constexpr std::uint8_t kSprayFlag = 1;  // bits 4..7: tied count

  void resolve_pop_sites(AsId as);
  void index_spray(AsId as);

  const topology::Topology* topo_;
  std::shared_ptr<const anycast::Deployment> deployment_;
  std::uint64_t epoch_salt_ = 0;
  std::vector<std::shared_ptr<const AsRoutingState>> states_;
  std::shared_ptr<const std::vector<std::uint32_t>> pop_offsets_;
  std::vector<SiteId> pop_sites_;
  // SoA hot path for site_for_block: one flag byte per AS (bit 0 = spray
  // across tied routes, bits 4..7 = tied-route count) plus fixed-width
  // SiteId spray rows — the CatchmentResolver direct-mapped layout
  // generalized to per-AS routing state. Replaces a pointer chase through
  // shared_ptr<AsRoutingState> + a candidates-vector scan per block, which
  // dominated uncached probe rounds at millions of blocks.
  std::vector<std::uint8_t> as_flags_;
  std::vector<SiteId> spray_sites_;  // lazily as_count * kMaxTiedRoutes
  std::weak_ptr<const RoutingTable> parent_;
  std::vector<AsId> changed_ases_;
  std::vector<BlockRange> changed_block_ranges_;
  std::shared_ptr<ResolverSlot> resolver_slot_;
};

}  // namespace vp::bgp
