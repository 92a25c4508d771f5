// Span recording for the traced run.
//
// Spans are taken in the benchmark's own code, around its calls into the
// libraries and between the engine's public RoundObserver callbacks; the
// program itself is not instrumented. Spans are kept in memory and
// written out when the run ends. With tracing off every call is a no-op
// returning id -1.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/round.hpp"

namespace vpbench {

struct SpanRecord {
  std::string name;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  int parent = -1;        ///< id of the enclosing span, -1 for a root
  std::uint64_t op = 0;   ///< cycle, config or request id
};

class Tracer {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  TimePoint origin() const { return origin_; }

  /// Opens a span starting now (or at `start`); returns its id.
  int begin(std::string_view name, int parent, std::uint64_t op);
  int begin_at(std::string_view name, TimePoint start, int parent,
               std::uint64_t op);
  /// Closes span `id` now (or at `end`). Ignores id -1.
  void end(int id);
  void end_at(int id, TimePoint end);
  /// Records an already finished span.
  int record(std::string_view name, TimePoint start, TimePoint end,
             int parent, std::uint64_t op);

  /// A copy of every span recorded so far.
  std::vector<SpanRecord> spans() const;

 private:
  const bool enabled_;
  const TimePoint origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int parent,
             std::uint64_t op)
      : tracer_(tracer), id_(tracer.begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Splits one Verfploeter::run call into engine phases from its public
/// callbacks: probe (call -> on_fault_stats), gather (-> on_replies_
/// collected), clean (-> on_round_complete) and tail (-> return). Also
/// keeps the engine's own probe-phase time from on_metrics.
class EnginePhases : public vp::core::RoundObserver {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Marks the call; `parent` is the span around the run call.
  void start(int parent, std::uint64_t op);
  /// Marks the return and records the four phase spans.
  void finish(Tracer& tracer);

  void on_fault_stats(const vp::core::RoundSpec&,
                      const vp::sim::FaultStats&) override;
  void on_replies_collected(const vp::core::RoundSpec&,
                            const std::vector<std::uint64_t>&) override;
  void on_round_complete(const vp::core::RoundSpec&,
                         const vp::core::RoundResult&) override;
  void on_metrics(const vp::core::RoundSpec&,
                  const vp::core::RoundMetrics& metrics) override;

  double probe_ms() const;
  double gather_ms() const;
  double clean_ms() const;
  double tail_ms() const;
  double probe_phase_ms() const { return probe_phase_ms_; }

 private:
  int parent_ = -1;
  std::uint64_t op_ = 0;
  TimePoint called_{}, faults_{}, gathered_{}, cleaned_{}, returned_{};
  double probe_phase_ms_ = 0.0;
};

/// One row of the per-layer self-time table.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;  ///< summed span durations
  double self_ms = 0.0;   ///< summed durations minus child coverage
};

/// Aggregates spans by name, computing self time per span as its
/// duration minus the union of its children's intervals within it.
std::vector<LayerRow> layer_table(const std::vector<SpanRecord>& spans);

/// For every span named `root`: the share of its duration covered by its
/// direct children.
std::vector<double> child_coverage(const std::vector<SpanRecord>& spans,
                                   std::string_view root);

/// Writes id,name,start_us,end_us,parent,op (microseconds from the
/// tracer's origin). Returns false on I/O failure.
bool write_spans_csv(const std::string& path,
                     const std::vector<SpanRecord>& spans,
                     std::chrono::steady_clock::time_point origin);

}  // namespace vpbench
