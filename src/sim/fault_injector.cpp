#include "sim/fault_injector.hpp"

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vp::sim {

namespace {

// Salts separating the injector's decision streams. Arbitrary but fixed:
// changing any of them changes every plan's realization.
constexpr std::uint64_t kProbeLossSalt = 0x10551;
constexpr std::uint64_t kReplyLossSalt = 0x10552;
constexpr std::uint64_t kRateLimitSiteSalt = 0x11317;
constexpr std::uint64_t kRateLimitDropSalt = 0x11318;
constexpr std::uint64_t kOutageSalt = 0x0a7a6e;
constexpr std::uint64_t kChurnSalt = 0xc4012;
constexpr std::uint64_t kDelaySalt = 0xde1a9;

/// One Bernoulli draw from a fresh, key-derived stream.
bool roll(std::uint64_t key, double p) {
  if (p <= 0.0) return false;
  util::Rng rng{key};
  return rng.chance(p);
}

}  // namespace

FaultPlan FaultPlan::from_seed(std::uint64_t seed) {
  util::Rng rng{util::hash_combine(seed, 0xfa0172)};
  FaultPlan plan;
  plan.seed = seed;
  plan.probe_loss_rate = rng.uniform(0.0, 0.25);
  plan.reply_loss_rate = rng.uniform(0.0, 0.25);
  plan.site_outage_rate = rng.uniform(0.0, 0.15);
  plan.outage_slice_minutes = rng.uniform(1.0, 6.0);
  plan.rate_limit_site_rate = rng.uniform(0.0, 0.5);
  plan.rate_limit_drop_rate = rng.uniform(0.0, 0.6);
  plan.churn_rate = rng.uniform(0.0, 0.02);
  plan.churn_withdraw_fraction = rng.uniform();
  plan.delay_spike_rate = rng.uniform(0.0, 0.05);
  plan.delay_spike_mean_ms = rng.uniform(1'000.0, 120'000.0);
  return plan;
}

bool FaultInjector::drops_probe(net::Ipv4Address target, std::uint32_t round,
                                std::uint32_t attempt) const {
  const std::uint64_t key = util::hash_combine(
      util::hash_combine(plan_.seed, kProbeLossSalt),
      util::hash_combine(target.value(),
                         (std::uint64_t{round} << 32) | attempt));
  return roll(key, plan_.probe_loss_rate);
}

ChurnEvent FaultInjector::churn(net::Block24 block,
                                std::uint32_t round) const {
  ChurnEvent event;
  if (plan_.churn_rate <= 0.0) return event;
  util::Rng rng{util::hash_combine(
      util::hash_combine(plan_.seed, kChurnSalt),
      util::hash_combine(block.index(), round))};
  if (!rng.chance(plan_.churn_rate)) return event;
  event.active = true;
  event.withdraw = rng.chance(plan_.churn_withdraw_fraction);
  event.onset_fraction = rng.uniform();
  event.divert_key = rng();
  return event;
}

bool FaultInjector::site_rate_limited(anycast::SiteId site,
                                      std::uint32_t round) const {
  const std::uint64_t key = util::hash_combine(
      util::hash_combine(plan_.seed, kRateLimitSiteSalt),
      util::hash_combine(static_cast<std::uint64_t>(site), round));
  return roll(key, plan_.rate_limit_site_rate);
}

bool FaultInjector::site_dark_at(anycast::SiteId site,
                                 util::SimTime when) const {
  if (plan_.site_outage_rate <= 0.0) return false;
  const auto slice_usec = static_cast<std::int64_t>(
      plan_.outage_slice_minutes * 60.0 * 1e6);
  if (slice_usec <= 0) return false;
  const std::uint64_t slice =
      static_cast<std::uint64_t>(when.usec / slice_usec);
  const std::uint64_t key = util::hash_combine(
      util::hash_combine(plan_.seed, kOutageSalt),
      util::hash_combine(static_cast<std::uint64_t>(site), slice));
  return roll(key, plan_.site_outage_rate);
}

void FaultInjector::apply_reply_faults(
    std::vector<DeliveryView>& deliveries, net::Block24 block,
    std::uint32_t round, std::uint32_t attempt, util::SimTime tx,
    std::size_t site_count, util::SimTime window_start,
    util::SimTime window_length, FaultStats& stats) const {
  if (deliveries.empty()) return;
  stats.replies_generated += deliveries.size();

  // Route state is sampled at probe emission: a BGP event whose onset
  // precedes this attempt's tx affects every reply the attempt causes.
  const ChurnEvent event = churn(block, round);
  const bool churned =
      event.active &&
      tx >= window_start +
                util::SimTime{static_cast<std::int64_t>(
                    event.onset_fraction *
                    static_cast<double>(window_length.usec))};

  const std::uint64_t reply_stream = util::hash_combine(
      util::hash_combine(plan_.seed, util::hash_combine(block.index(), round)),
      attempt);

  std::size_t out = 0;
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    DeliveryView d = deliveries[i];
    const std::uint64_t copy_key = util::hash_combine(reply_stream, i);
    if (churned) {
      if (event.withdraw || site_count < 2) {
        ++stats.withdrawn;
        continue;
      }
      // Divert to a deterministic *different* site.
      d.site = static_cast<anycast::SiteId>(
          (static_cast<std::uint64_t>(d.site) + 1 +
           event.divert_key % (site_count - 1)) %
          site_count);
      ++stats.diverted;
    }
    if (roll(util::hash_combine(copy_key, kReplyLossSalt),
             plan_.reply_loss_rate)) {
      ++stats.replies_lost;
      continue;
    }
    if (site_rate_limited(d.site, round) &&
        roll(util::hash_combine(copy_key, kRateLimitDropSalt),
             plan_.rate_limit_drop_rate)) {
      ++stats.rate_limited;
      continue;
    }
    if (site_dark_at(d.site, d.arrival)) {
      ++stats.outage_drops;
      continue;
    }
    if (roll(util::hash_combine(copy_key, kDelaySalt),
             plan_.delay_spike_rate)) {
      util::Rng rng{util::hash_combine(copy_key, kDelaySalt + 1)};
      d.arrival += util::SimTime::from_seconds(
          rng.exponential(plan_.delay_spike_mean_ms) / 1000.0);
      ++stats.delayed;
    }
    deliveries[out++] = d;
  }
  deliveries.resize(out);
}

void record_fault_metrics(const FaultStats& stats,
                          obs::MetricsRegistry& registry) {
  // Called once per round, so plain name lookups are plenty cheap.
  registry.counter("vp_fault_probes_lost_total").add(stats.probes_lost);
  registry.counter("vp_fault_replies_generated_total")
      .add(stats.replies_generated);
  registry.counter("vp_fault_replies_lost_total").add(stats.replies_lost);
  registry.counter("vp_fault_rate_limited_total").add(stats.rate_limited);
  registry.counter("vp_fault_outage_drops_total").add(stats.outage_drops);
  registry.counter("vp_fault_withdrawn_total").add(stats.withdrawn);
  registry.counter("vp_fault_diverted_total").add(stats.diverted);
  registry.counter("vp_fault_delayed_total").add(stats.delayed);
  registry.counter("vp_fault_retries_total").add(stats.retries);
  registry.counter("vp_fault_recovered_total").add(stats.recovered);
}

}  // namespace vp::sim
