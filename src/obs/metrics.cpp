#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace vp::obs {

unsigned Counter::stripe() noexcept {
  // Each thread gets a fixed stripe on first use; with more threads than
  // stripes the wrap-around only costs occasional cache-line sharing.
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return index;
}

Histogram::Histogram(const std::atomic<bool>* enabled,
                     std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), enabled_(enabled) {
  if (bounds_.empty())
    throw std::invalid_argument("histogram needs at least one bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]) ||
        (i > 0 && bounds_[i] <= bounds_[i - 1])) {
      throw std::invalid_argument(
          "histogram bounds must be finite and strictly ascending");
    }
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  if (std::isnan(v)) {
    nan_rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Bucket i counts v <= bounds[i] (Prometheus `le` semantics), so the
  // first bound >= v is the right bucket; past the end is the +Inf one.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n =
      count_.fetch_add(1, std::memory_order_relaxed) + 1;
  sum_.fetch_add(v, std::memory_order_relaxed);
  merge_extremes(v, v, n == 1);
}

void Histogram::merge_extremes(double lo, double hi, bool first) noexcept {
  if (first) {
    // The first observation seeds min/max; racing first observers fall
    // through to the CAS loops below, so no update is lost.
    min_.store(lo, std::memory_order_relaxed);
    max_.store(hi, std::memory_order_relaxed);
  }
  double seen = min_.load(std::memory_order_relaxed);
  while (lo < seen &&
         !min_.compare_exchange_weak(seen, lo, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (hi > seen &&
         !max_.compare_exchange_weak(seen, hi, std::memory_order_relaxed)) {
  }
}

void Histogram::observe_all(std::span<const float> values) {
  if (!enabled_->load(std::memory_order_relaxed) || values.empty()) return;
  std::vector<std::uint64_t> buckets(bounds_.size() + 1, 0);
  std::uint64_t count = 0, nans = 0;
  double sum = 0.0, lo = 0.0, hi = 0.0;
  for (const float f : values) {
    const double v = f;
    if (std::isnan(v)) {
      ++nans;
      continue;
    }
    ++buckets[static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin())];
    sum += v;
    lo = count == 0 ? v : std::min(lo, v);
    hi = count == 0 ? v : std::max(hi, v);
    ++count;
  }
  if (nans > 0) nan_rejected_.fetch_add(nans, std::memory_order_relaxed);
  if (count == 0) return;
  for (std::size_t i = 0; i < buckets.size(); ++i)
    if (buckets[i] != 0)
      buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  const std::uint64_t before =
      count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  merge_extremes(lo, hi, before == 0);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  nan_rejected_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry::Shard& MetricsRegistry::shard_for(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, MetricKind kind, std::span<const double> bounds) {
  Shard& shard = shard_for(name);
  std::lock_guard lock{shard.mutex};
  const auto it = shard.metrics.find(name);
  if (it != shard.metrics.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered with a different kind");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>(&enabled_);
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>(&enabled_);
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(&enabled_, bounds);
      break;
  }
  return shard.metrics.emplace(std::string(name), std::move(entry))
      .first->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *find_or_create(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *find_or_create(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  return *find_or_create(name, MetricKind::kHistogram, bounds).histogram;
}

void MetricsRegistry::reset_values() {
  for (Shard& shard : shards_) {
    std::lock_guard lock{shard.mutex};
    for (auto& [name, entry] : shard.metrics) {
      switch (entry.kind) {
        case MetricKind::kCounter: entry.counter->reset(); break;
        case MetricKind::kGauge: entry.gauge->reset(); break;
        case MetricKind::kHistogram: entry.histogram->reset(); break;
      }
    }
  }
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    std::lock_guard lock{shard.mutex};
    for (const auto& [name, entry] : shard.metrics) {
      MetricSnapshot m;
      m.name = name;
      m.kind = entry.kind;
      switch (entry.kind) {
        case MetricKind::kCounter:
          m.counter_value = entry.counter->value();
          break;
        case MetricKind::kGauge:
          m.gauge_value = entry.gauge->value();
          break;
        case MetricKind::kHistogram: {
          const Histogram& h = *entry.histogram;
          m.bounds.assign(h.bounds().begin(), h.bounds().end());
          m.cumulative.resize(m.bounds.size() + 1);
          std::uint64_t running = 0;
          for (std::size_t i = 0; i <= m.bounds.size(); ++i) {
            running += h.bucket(i);
            m.cumulative[i] = running;
          }
          m.count = h.count();
          m.nan_rejected = h.nan_rejected();
          m.sum = h.sum();
          m.min = h.min();
          m.max = h.max();
          break;
        }
      }
      snap.metrics.push_back(std::move(m));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::span<const double> latency_buckets_ms() {
  static const double kBuckets[] = {0.01, 0.02, 0.05, 0.1,  0.2,  0.5,
                                    1,    2,    5,    10,   20,   50,
                                    100,  200,  500,  1000, 2000, 5000,
                                    10000, 20000, 50000, 100000};
  return kBuckets;
}

}  // namespace vp::obs
