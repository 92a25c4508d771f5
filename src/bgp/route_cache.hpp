// Memoized route computation for deployment sweeps.
//
// Prepending and placement searches (analysis::Scenario, bench_fig5/6,
// bench_ext_placement, bench_table6/7) re-route the same topology over
// and over — Anycast-Agility-style playbook searches do it hundreds of
// times — and a full routing computation is the single most expensive
// call in those loops. Catchments are a pure function of
// (topology, deployment, routing options), so the cache keys each
// computed RoutingTable by (anycast::fingerprint(deployment),
// tiebreak_salt, epoch_jitter_rate) and hands out one shared immutable
// table per distinct configuration — shared across rounds, probe worker
// threads, and campaign resumes. Computation goes through a one-shot
// bgp::RoutingEngine; the delta-aware entry point `routes_delta` keys on
// the *post-delta* fingerprint, so a table reached by delta and the same
// configuration routed directly unify on one cache entry.
//
// Bounded: an optional byte cap (vpctl --route-cache-bytes /
// VP_ROUTE_CACHE_BYTES) evicts least-recently-used entries by
// RoutingTable::memory_bytes() accounting. The most recent entry is
// never evicted; outstanding shared_ptrs always stay valid.
//
// Lifetime: tables own a copy of their deployment, so callers may pass
// short-lived Deployment values — e.g.
// `cache.routes(broot.with_prepend("MIA", 2), opts)` — and hold only the
// table. One cache per Topology; the topology must outlive it.
//
// Determinism: a hit returns a table whose every answer is identical to
// a fresh computation (tests/route_cache_test.cpp byte-compares whole
// campaigns cache-on vs cache-off). Hit/miss/bytes/evictions are
// surfaced through obs::MetricsRegistry (vp_bgp_route_cache_*).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"

namespace vp::bgp {

struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;  // approximate retained table memory
};

class RouteCache {
 public:
  /// `byte_limit` caps retained table memory (0 = unbounded).
  explicit RouteCache(const topology::Topology& topo, bool enabled = true,
                      std::size_t byte_limit = 0)
      : topo_(&topo), enabled_(enabled), byte_limit_(byte_limit) {}

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// The routing table for (deployment, options): a shared cached table
  /// on a hit, a freshly computed (and, when enabled, retained) one on a
  /// miss. Thread-safe; concurrent callers of the same key compute once.
  std::shared_ptr<const RoutingTable> routes(
      const anycast::Deployment& deployment,
      const RoutingOptions& options = {}) const;

  /// The table for `base` with `delta` applied. Keys on the post-delta
  /// deployment fingerprint, so sweeps expressed as deltas and the same
  /// configurations routed directly share cache entries.
  std::shared_ptr<const RoutingTable> routes_delta(
      const anycast::Deployment& base, const anycast::ConfigDelta& delta,
      const RoutingOptions& options = {}) const;

  /// When disabled every call computes fresh and retains nothing —
  /// results are identical (vpctl --no-route-cache A/B).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Adjusts the byte cap (0 = unbounded); evicts immediately if the
  /// retained set now exceeds it.
  void set_byte_limit(std::size_t bytes);
  std::size_t byte_limit() const;

  RouteCacheStats stats() const;

  /// Drops every retained table (outstanding shared_ptrs stay valid).
  void clear();

 private:
  struct Key {
    std::uint64_t fingerprint;   // anycast::fingerprint(deployment)
    std::uint64_t salt;          // RoutingOptions::tiebreak_salt
    std::uint64_t jitter_bits;   // bit pattern of epoch_jitter_rate
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    std::shared_ptr<const RoutingTable> table;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru;  // position in lru_ (front = hottest)
  };

  /// Evicts LRU entries until within the cap; requires mutex_ held.
  void enforce_limit_locked() const;

  const topology::Topology* topo_;
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  mutable std::size_t byte_limit_;
  mutable std::unordered_map<Key, Entry, KeyHash> entries_;
  mutable std::list<Key> lru_;  // most recently used first
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t evictions_ = 0;
  mutable std::size_t bytes_ = 0;
};

}  // namespace vp::bgp
