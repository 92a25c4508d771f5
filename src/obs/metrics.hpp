// Observability: a lock-sharded metrics registry for the probe pipeline.
//
// The engine now runs sharded, fault-injected, crash-safe campaigns —
// and was a black box while doing it. This registry gives every layer
// (probe engine, fault injector, campaign/journal, BGP, the simulated
// dataplane, collectors) cheap counters, gauges, and fixed-bucket
// histograms, exported as JSON or Prometheus text (obs/export.hpp) and
// surfaced live through RoundObserver::on_metrics.
//
// Determinism contract: metrics are OBSERVE-ONLY. Nothing on the probe
// path may ever read a metric to make a decision — measurement results
// (catchment maps, CSVs, journals) are bit-identical with metrics
// enabled or disabled, for any thread count. Wall-clock time enters
// metrics (Span, obs/span.hpp) but never flows back into simulated time.
// tests/metrics_determinism_test.cpp enforces this.
//
// Cost model (budget: < 2% of a full measurement round, bench_metrics):
//  * handle acquisition (counter()/gauge()/histogram()) takes a shard
//    mutex and hashes the name — do it once per round or per object,
//    never per probe;
//  * Counter::add is a relaxed load of the enabled flag plus a relaxed
//    fetch_add on a per-thread stripe — no sharing between probe
//    workers, so the per-probe hot path stays in the low nanoseconds;
//  * Histogram::observe is a branch, a bounds scan, and two relaxed
//    atomic RMWs — keep it off the per-probe path. For a batch, tally
//    locally and publish once with observe_all (the engine publishes a
//    round's kept-reply RTTs that way after its serial cleaning pass).
//
// Naming scheme (DESIGN.md §11): vp_<subsystem>_<what>[_total|_ms],
// with optional Prometheus-style labels embedded in the name, e.g.
// vp_engine_shard_probes_total{shard="3"}. Counters end in _total,
// durations are histograms in milliseconds ending in _ms.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vp::obs {

/// Monotonic event count. Increments are striped across cache-line-sized
/// cells indexed by thread, so concurrent probe workers never contend;
/// value() sums the stripes (exact, but only quiescently consistent
/// while writers are active).
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void add(std::uint64_t delta = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[stripe()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& cell : cells_)
      sum += cell.value.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr unsigned kStripes = 16;  // power of two
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  static unsigned stripe() noexcept;

  std::array<Cell, kStripes> cells_;
  const std::atomic<bool>* enabled_;
};

/// A value that goes up and down (queue depths, in-flight rounds).
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void set(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket histogram: finite ascending upper bounds plus an
/// implicit +Inf overflow bucket. observe() is thread-safe (relaxed
/// atomics per bucket); NaN is rejected and counted separately rather
/// than poisoning sum/min/max.
class Histogram {
 public:
  Histogram(const std::atomic<bool>* enabled, std::span<const double> bounds);

  void observe(double v) noexcept;
  /// Observes every value in input order, tallying buckets, count, sum,
  /// min, max and NaNs locally and publishing them once: the same
  /// snapshot as one observe() per value on an empty histogram.
  void observe_all(std::span<const float> values);

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t nan_rejected() const noexcept {
    return nan_rejected_.load(std::memory_order_relaxed);
  }
  std::span<const double> bounds() const noexcept { return bounds_; }
  /// Count in bucket i (0..bounds().size(): the last is +Inf overflow).
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }

  void reset() noexcept;

 private:
  /// Folds [lo, hi] into min/max; `first` = these are the first values.
  void merge_extremes(double lo, double hi, bool first) noexcept;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> nan_rejected_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  const std::atomic<bool>* enabled_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one metric, for export. Sorted by name in a
/// Snapshot so both export formats are deterministic.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  // Histogram fields (kind == kHistogram only).
  std::vector<double> bounds;                 // finite upper bounds
  std::vector<std::uint64_t> cumulative;      // size bounds.size() + 1 (+Inf)
  std::uint64_t count = 0;
  std::uint64_t nan_rejected = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  // sorted by name
};

/// Name-keyed registry of metrics, sharded by name hash so concurrent
/// handle lookups from different subsystems rarely contend. Handles
/// (Counter&/Gauge&/Histogram&) are stable for the registry's lifetime;
/// reset_values() zeroes values without invalidating them. A name maps
/// to exactly one kind — re-registering under a different kind is a
/// programming error and throws.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// When disabled, every add/set/observe is a cheap no-op; handle
  /// lookups still work. Measurement results never depend on this.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` must be finite and strictly ascending; ignored (the
  /// existing buckets win) when the histogram already exists.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Zeroes every metric's value; handles stay valid. For tests and for
  /// per-run exports from long-lived processes.
  void reset_values();

  Snapshot snapshot() const;

  /// The process-wide registry the pipeline reports into.
  static MetricsRegistry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, Entry, std::less<>> metrics;
  };

  Shard& shard_for(std::string_view name);
  Entry& find_or_create(std::string_view name, MetricKind kind,
                        std::span<const double> bounds = {});

  static constexpr std::size_t kShards = 8;
  std::array<Shard, kShards> shards_;
  std::atomic<bool> enabled_{true};
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

/// Default duration buckets, in milliseconds: 1-2-5 decades from 10µs to
/// 100s. Wide enough for per-probe RTTs and whole-round wall times.
std::span<const double> latency_buckets_ms();

}  // namespace vp::obs
