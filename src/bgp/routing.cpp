#include "bgp/routing.hpp"

#include <algorithm>
#include <bitset>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>

#include "bgp/catchment_resolver.hpp"
#include "util/rng.hpp"

namespace vp::bgp {

using topology::AsNode;
using topology::Topology;

bool AsRoutingState::multi_site() const {
  if (candidates.size() < 2) return false;
  const SiteId first = candidates.front().site;
  return std::any_of(
      candidates.begin() + 1, candidates.end(),
      [first](const CandidateRoute& c) { return c.site != first; });
}

/// Holds the lazily-built CatchmentResolver. Lives behind a shared_ptr
/// so RoutingTable stays cheaply movable/copyable (copies of an
/// identical table legitimately share one resolver) and std::once_flag
/// never has to move.
struct RoutingTable::ResolverSlot {
  std::once_flag once;
  std::unique_ptr<const CatchmentResolver> resolver;
};

namespace {

/// Non-owning deployment handle for the plain-states constructor: the
/// caller keeps the deployment alive.
std::shared_ptr<const anycast::Deployment> borrow(
    const anycast::Deployment& deployment) {
  return {std::shared_ptr<const anycast::Deployment>{}, &deployment};
}

std::vector<std::shared_ptr<const AsRoutingState>> share_states(
    std::vector<AsRoutingState> states) {
  std::vector<std::shared_ptr<const AsRoutingState>> shared;
  shared.reserve(states.size());
  for (AsRoutingState& state : states)
    shared.push_back(
        std::make_shared<const AsRoutingState>(std::move(state)));
  return shared;
}

std::shared_ptr<const std::vector<std::uint32_t>> build_pop_offsets(
    const Topology& topo) {
  auto offsets = std::make_shared<std::vector<std::uint32_t>>();
  offsets->resize(topo.as_count() + 1, 0);
  std::uint64_t total = 0;
  for (AsId as = 0; as < topo.as_count(); ++as) {
    total += topo.as_at(as).pops.size();
    // Width audit: the flat pop-site table is uint32-indexed. Even 500k
    // ASes at max PoP fan-out stay far below 2^32, but generated inputs
    // are now arbitrary — fail loudly instead of wrapping.
    assert(total <= 0xffffffffULL);
    (*offsets)[as + 1] = static_cast<std::uint32_t>(total);
  }
  return offsets;
}

}  // namespace

/// Hot-potato: each PoP selects, among the tied candidates, the one whose
/// egress attachment is geographically closest (§6.2 — "routing policies
/// like hot-potato routing are a likely cause for these divisions").
void RoutingTable::resolve_pop_sites(AsId as) {
  const AsRoutingState& state = *states_[as];
  const AsNode& node = topo_->as_at(as);
  const std::uint32_t base = (*pop_offsets_)[as];
  if (!state.reachable()) {
    for (std::size_t p = 0; p < node.pops.size(); ++p)
      pop_sites_[base + p] = anycast::kUnknownSite;
    return;
  }
  for (std::size_t p = 0; p < node.pops.size(); ++p) {
    const CandidateRoute* chosen = &state.best();
    if (state.candidates.size() > 1) {
      double best_distance = std::numeric_limits<double>::max();
      std::uint64_t best_tiebreak = 0;
      for (const CandidateRoute& cand : state.candidates) {
        const double d = geo::distance_km(
            node.pops[p].location, node.pops[cand.egress_pop].location);
        if (d < best_distance - 1e-9 ||
            (std::abs(d - best_distance) <= 1e-9 &&
             cand.tiebreak < best_tiebreak)) {
          best_distance = d;
          best_tiebreak = cand.tiebreak;
          chosen = &cand;
        }
      }
    }
    pop_sites_[base + p] = chosen->site;
  }
}

/// Rebuilds the SoA row for one AS: flag byte (spray bit + tied count)
/// and, for multipath multi-site ASes, the fixed-width spray row the
/// flow-hash path reads instead of chasing the shared state pointer.
void RoutingTable::index_spray(AsId as) {
  const AsRoutingState& state = *states_[as];
  std::uint8_t flags = 0;
  if (topo_->as_at(as).multipath && state.multi_site()) {
    if (state.candidates.size() <= kMaxTiedRoutes) {
      const auto count = static_cast<std::uint8_t>(state.candidates.size());
      flags = static_cast<std::uint8_t>(kSprayFlag | (count << 4));
      if (spray_sites_.empty()) {
        spray_sites_.assign(states_.size() * kMaxTiedRoutes,
                            anycast::kUnknownSite);
      }
      SiteId* row = &spray_sites_[as * kMaxTiedRoutes];
      for (std::uint8_t k = 0; k < count; ++k)
        row[k] = state.candidates[k].site;
    } else {
      // The engine's reduce step caps candidate sets at kMaxTiedRoutes,
      // but hand-built states can tie more sites than the fixed-width
      // row holds (route_cache_test's 40-site deployment). A zero count
      // marks them: the lookup chases the shared state instead, so no
      // tied site is silently truncated away.
      flags = kSprayFlag;
    }
  }
  as_flags_[as] = flags;
}

RoutingTable::RoutingTable(const Topology& topo,
                           const anycast::Deployment& deployment,
                           std::vector<AsRoutingState> states,
                           std::uint64_t epoch_salt)
    : RoutingTable(topo, borrow(deployment), share_states(std::move(states)),
                   epoch_salt, nullptr, {}) {}

RoutingTable::RoutingTable(
    const Topology& topo,
    std::shared_ptr<const anycast::Deployment> deployment,
    std::vector<std::shared_ptr<const AsRoutingState>> states,
    std::uint64_t epoch_salt, std::shared_ptr<const RoutingTable> parent,
    std::vector<AsId> changed_ases)
    : topo_(&topo),
      deployment_(std::move(deployment)),
      epoch_salt_(epoch_salt),
      states_(std::move(states)),
      parent_(parent),
      changed_ases_(std::move(changed_ases)),
      resolver_slot_(std::make_shared<ResolverSlot>()) {
  if (parent != nullptr) {
    // Incremental: reuse the parent's hot-potato resolution and SoA rows
    // everywhere the final route is unchanged; copy-and-patch only the
    // changed ASes.
    pop_offsets_ = parent->pop_offsets_;
    pop_sites_ = parent->pop_sites_;
    as_flags_ = parent->as_flags_;
    spray_sites_ = parent->spray_sites_;
    for (const AsId as : changed_ases_) {
      resolve_pop_sites(as);
      index_spray(as);
    }
  } else {
    pop_offsets_ = build_pop_offsets(topo);
    pop_sites_.assign(pop_offsets_->back(), anycast::kUnknownSite);
    as_flags_.assign(topo.as_count(), 0);
    for (AsId as = 0; as < topo.as_count(); ++as) {
      resolve_pop_sites(as);
      index_spray(as);
    }
  }
  // Blocks owned by changed ASes, as merged sorted ranges into
  // topo.blocks() — the invalidation unit for warm CatchmentResolver
  // rebuilds.
  changed_block_ranges_.reserve(changed_ases_.size());
  for (const AsId as : changed_ases_) {
    const AsNode& node = topo.as_at(as);
    if (node.block_count == 0) continue;
    changed_block_ranges_.emplace_back(node.first_block,
                                       node.first_block + node.block_count);
  }
  std::sort(changed_block_ranges_.begin(), changed_block_ranges_.end());
  std::size_t merged = 0;
  for (const BlockRange& range : changed_block_ranges_) {
    if (merged > 0 && changed_block_ranges_[merged - 1].second >= range.first)
      changed_block_ranges_[merged - 1].second =
          std::max(changed_block_ranges_[merged - 1].second, range.second);
    else
      changed_block_ranges_[merged++] = range;
  }
  changed_block_ranges_.resize(merged);
}

SiteId RoutingTable::site_for_block(net::Block24 block) const {
  const topology::BlockInfo* info = topo_->block_info(block);
  if (info == nullptr) return anycast::kUnknownSite;
  return site_for_block(*info);
}

SiteId RoutingTable::site_for_block(const topology::BlockInfo& info) const {
  const std::uint8_t flags = as_flags_[info.as_id];
  if (flags & kSprayFlag) {
    // Flow-hash load balancing: each block stably picks one of the tied
    // routes. Stable across rounds (same hash), so this creates lasting
    // intra-AS divisions, not flapping — but the hash seed drifts across
    // routing epochs (router restarts, ECMP rehash), which is part of the
    // paper's April-to-May catchment shift (section 5.5). The stored
    // count equals candidates.size(), so the SoA read reproduces the
    // state-chasing path bit for bit.
    const std::uint64_t h = util::hash_combine(
        util::hash_combine(util::mix64(0x6d70617468), epoch_salt_),
        info.block.index());
    const std::uint8_t count = flags >> 4;
    if (count != 0) [[likely]]
      return spray_sites_[info.as_id * kMaxTiedRoutes + h % count];
    // Wide tie set (count 0 sentinel): the fixed row can't hold it;
    // spray over the full candidate list in the shared state.
    const auto& candidates = states_[info.as_id]->candidates;
    return candidates[h % candidates.size()].site;
  }
  return pop_sites_[(*pop_offsets_)[info.as_id] + info.pop];
}

std::size_t RoutingTable::distinct_sites(AsId as) const {
  const AsNode& node = topo_->as_at(as);
  // SiteId is int8, so 128 covers every representable site; a plain
  // `1u << site` mask is UB (and silently wrong) past 32 sites.
  std::bitset<128> seen;
  for (std::size_t p = 0; p < node.pops.size(); ++p) {
    const SiteId site = site_for_pop(as, static_cast<std::uint16_t>(p));
    if (site >= 0) seen.set(static_cast<std::size_t>(site));
  }
  if (node.multipath && states_[as]->multi_site()) {
    for (const CandidateRoute& cand : states_[as]->candidates)
      if (cand.site >= 0) seen.set(static_cast<std::size_t>(cand.site));
  }
  return seen.count();
}

const CatchmentResolver* RoutingTable::catchment_resolver(
    std::uint64_t flip_signature,
    const std::function<std::unique_ptr<const CatchmentResolver>()>& build)
    const {
  ResolverSlot& slot = *resolver_slot_;
  std::call_once(slot.once, [&] { slot.resolver = build(); });
  const CatchmentResolver* resolver = slot.resolver.get();
  return resolver != nullptr && resolver->flip_signature() == flip_signature
             ? resolver
             : nullptr;
}

const CatchmentResolver* RoutingTable::catchment_resolver() const {
  return resolver_slot_->resolver.get();
}

std::size_t RoutingTable::memory_bytes() const {
  std::size_t bytes =
      sizeof(*this) + pop_sites_.capacity() * sizeof(SiteId) +
      pop_offsets_->capacity() * sizeof(std::uint32_t) +
      states_.capacity() * sizeof(states_[0]) +
      as_flags_.capacity() +
      spray_sites_.capacity() * sizeof(SiteId) +
      changed_ases_.capacity() * sizeof(AsId) +
      changed_block_ranges_.capacity() * sizeof(BlockRange);
  for (const auto& state : states_) {
    bytes += sizeof(AsRoutingState) +
             state->candidates.capacity() * sizeof(CandidateRoute);
  }
  if (resolver_slot_->resolver) bytes += resolver_slot_->resolver->bytes();
  return bytes;
}

}  // namespace vp::bgp
