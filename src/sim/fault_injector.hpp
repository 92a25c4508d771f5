// Fault injection: a deterministic, seed-hashed fault plan layered over
// the simulated Internet (sim/internet.hpp).
//
// The paper leaves loss-robustness as future work (§3.1: "retrying
// immediately ... is future work") and §6.3 shows catchments must stay
// stable under churn; "Anycast Agility" (Rizvi et al.) stresses the same
// machinery with site overload and route withdrawal mid-measurement. The
// FaultInjector makes that misbehavior reproducible: probe loss on the
// forward path, reply loss on the return path, per-site ICMP
// rate-limiting, site outages, mid-round BGP withdrawal/re-route churn,
// and delay spikes that reorder replies or push them past the late
// cutoff.
//
// Thread-safety / determinism contract (same as the rest of sim/): every
// method is const and PURE — each decision is a stateless hash of
// (plan seed, entity, round, attempt, copy), with all generator state
// local to the call. The sharded round runner (core/verfploeter.hpp)
// relies on this to keep rounds bit-identical for any worker count even
// with faults and retries active. Do not add mutable state here.
#pragma once

#include <cstdint>
#include <vector>

#include "anycast/deployment.hpp"
#include "net/ipv4.hpp"
#include "sim/internet.hpp"
#include "util/clock.hpp"

namespace vp::obs {
class MetricsRegistry;
}

namespace vp::sim {

/// One fault plan: which misbehaviors are active and how hard they hit.
/// All rates are probabilities per decision; an all-zero plan (the
/// default) injects nothing and the engine skips the fault path.
struct FaultPlan {
  std::uint64_t seed = 0xfa017;
  /// Forward-path loss: the probe never reaches the target host.
  double probe_loss_rate = 0.0;
  /// Return-path loss: a reply vanishes between host and site.
  double reply_loss_rate = 0.0;
  /// Chance a site's collector is dark during any given outage slice
  /// (models maintenance windows and overload blackouts mid-round).
  double site_outage_rate = 0.0;
  /// Length of one outage decision slice of simulated time.
  double outage_slice_minutes = 5.0;
  /// Chance a site rate-limits inbound ICMP for a whole round.
  double rate_limit_site_rate = 0.0;
  /// Drop probability per reply at a rate-limiting site.
  double rate_limit_drop_rate = 0.0;
  /// Per-(block, round) chance of a mid-round BGP event at the block's
  /// AS: from a deterministic onset within the probing window, replies
  /// are withdrawn (lost) or diverted to a different site.
  double churn_rate = 0.0;
  /// Of churn events, the fraction that withdraw (vs divert).
  double churn_withdraw_fraction = 0.5;
  /// Chance a reply is hit by an extra queuing/suppression delay — the
  /// source of reordering and of extra late-cutoff drops.
  double delay_spike_rate = 0.0;
  /// Mean of the (exponential) delay spike.
  double delay_spike_mean_ms = 30'000.0;

  bool enabled() const {
    return probe_loss_rate > 0 || reply_loss_rate > 0 ||
           site_outage_rate > 0 || rate_limit_site_rate > 0 ||
           churn_rate > 0 || delay_spike_rate > 0;
  }

  /// A bounded random plan derived from one seed — what the property
  /// harness and `vpctl --fault-seed` use. Rates stay in ranges where a
  /// round still maps a meaningful catchment.
  static FaultPlan from_seed(std::uint64_t seed);
};

/// Accounting for one round's injected faults and retry behavior. The
/// engine sums per-shard instances, so every counter is order-invariant
/// and deterministic for any thread count. When the fault/retry path is
/// inactive, all fields stay zero.
struct FaultStats {
  std::uint64_t probes_lost = 0;       // forward-path drops
  std::uint64_t replies_generated = 0; // sim deliveries before reply faults
  std::uint64_t replies_lost = 0;      // return-path drops
  std::uint64_t rate_limited = 0;      // dropped by a rate-limiting site
  std::uint64_t outage_drops = 0;      // site dark at arrival
  std::uint64_t withdrawn = 0;         // churn: route gone, reply lost
  std::uint64_t diverted = 0;          // churn: delivered to another site
  std::uint64_t delayed = 0;           // delay spike injected (not dropped)
  std::uint64_t retries = 0;           // retry probes emitted by the engine
  std::uint64_t recovered = 0;         // probes first answered via a retry

  /// Replies dropped by injected faults (forward-path losses excluded:
  /// those probes never generated a reply).
  std::uint64_t replies_dropped() const {
    return replies_lost + rate_limited + outage_drops + withdrawn;
  }

  FaultStats& operator+=(const FaultStats& other) {
    probes_lost += other.probes_lost;
    replies_generated += other.replies_generated;
    replies_lost += other.replies_lost;
    rate_limited += other.rate_limited;
    outage_drops += other.outage_drops;
    withdrawn += other.withdrawn;
    diverted += other.diverted;
    delayed += other.delayed;
    retries += other.retries;
    recovered += other.recovered;
    return *this;
  }
};

/// One block's mid-round BGP event (if any) for one round.
struct ChurnEvent {
  bool active = false;
  bool withdraw = false;        // else: divert to another site
  double onset_fraction = 0.0;  // into the probing window
  std::uint64_t divert_key = 0; // picks the alternate site at apply time
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan = {}) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// Forward-path loss for one probe attempt at `target`.
  bool drops_probe(net::Ipv4Address target, std::uint32_t round,
                   std::uint32_t attempt) const;

  /// The block's mid-round BGP event for this round, if any.
  ChurnEvent churn(net::Block24 block, std::uint32_t round) const;

  /// Whether a site rate-limits ICMP for the whole round.
  bool site_rate_limited(anycast::SiteId site, std::uint32_t round) const;

  /// Whether a site is dark (outage) at a point in simulated time.
  bool site_dark_at(anycast::SiteId site, util::SimTime when) const;

  /// Applies every reply-path fault to the deliveries of one probe
  /// attempt, in place: churn (withdraw/divert, from its onset within
  /// [window_start, window_start + window_length)), return-path loss,
  /// rate-limiting, outages, and delay spikes. Counts each reply in at
  /// most one drop bucket so accounting is exact:
  ///   surviving = generated - replies_dropped().
  /// Pure given its arguments; `stats` is the caller's (per-shard)
  /// accumulator. The Bernoulli streams are keyed by delivery index.
  void apply_reply_faults(std::vector<DeliveryView>& deliveries,
                          net::Block24 block, std::uint32_t round,
                          std::uint32_t attempt, util::SimTime tx,
                          std::size_t site_count,
                          util::SimTime window_start,
                          util::SimTime window_length,
                          FaultStats& stats) const;

 private:
  FaultPlan plan_;
};

/// Flushes one round's fault accounting into per-fault-kind registry
/// counters (vp_fault_<kind>_total), so dashboards can tell forward-path
/// loss from rate-limiting from outage blackouts while a campaign runs.
/// Observe-only: never read back by any probe decision.
void record_fault_metrics(const FaultStats& stats,
                          obs::MetricsRegistry& registry);

}  // namespace vp::sim
