#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace vpbench {

namespace {

double ms(Tracer::TimePoint a, Tracer::TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_ms(std::vector<std::pair<Tracer::TimePoint,
                                        Tracer::TimePoint>> intervals,
                  Tracer::TimePoint lo, Tracer::TimePoint hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  Tracer::TimePoint reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += ms(start, end);
    reach = end;
  }
  return covered;
}

std::vector<std::vector<int>> children_of(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
      children[static_cast<std::size_t>(parent)].push_back(static_cast<int>(i));
  }
  return children;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int Tracer::begin(std::string_view name, int parent, std::uint64_t op) {
  if (!enabled_) return -1;
  return begin_at(name, std::chrono::steady_clock::now(), parent, op);
}

int Tracer::begin_at(std::string_view name, TimePoint start, int parent,
                     std::uint64_t op) {
  return record(name, start, start, parent, op);
}

void Tracer::end(int id) {
  if (id < 0) return;
  end_at(id, std::chrono::steady_clock::now());
}

void Tracer::end_at(int id, TimePoint end) {
  if (id < 0) return;
  std::lock_guard lock{mutex_};
  spans_[static_cast<std::size_t>(id)].end = end;
}

int Tracer::record(std::string_view name, TimePoint start, TimePoint end,
                   int parent, std::uint64_t op) {
  if (!enabled_) return -1;
  std::lock_guard lock{mutex_};
  spans_.push_back(SpanRecord{std::string{name}, start, end, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock{mutex_};
  return spans_;
}

void EnginePhases::start(int parent, std::uint64_t op) {
  parent_ = parent;
  op_ = op;
  called_ = faults_ = gathered_ = cleaned_ = std::chrono::steady_clock::now();
}

void EnginePhases::finish(Tracer& tracer) {
  returned_ = std::chrono::steady_clock::now();
  tracer.record("core.engine.probe", called_, faults_, parent_, op_);
  tracer.record("core.engine.gather", faults_, gathered_, parent_, op_);
  tracer.record("core.engine.clean", gathered_, cleaned_, parent_, op_);
  tracer.record("core.engine.tail", cleaned_, returned_, parent_, op_);
}

void EnginePhases::on_fault_stats(const vp::core::RoundSpec&,
                                  const vp::sim::FaultStats&) {
  faults_ = std::chrono::steady_clock::now();
}

void EnginePhases::on_replies_collected(const vp::core::RoundSpec&,
                                        const std::vector<std::uint64_t>&) {
  gathered_ = std::chrono::steady_clock::now();
}

void EnginePhases::on_round_complete(const vp::core::RoundSpec&,
                                     const vp::core::RoundResult&) {
  cleaned_ = std::chrono::steady_clock::now();
}

void EnginePhases::on_metrics(const vp::core::RoundSpec&,
                              const vp::core::RoundMetrics& metrics) {
  probe_phase_ms_ = metrics.probe_phase_ms;
}

double EnginePhases::probe_ms() const { return ms(called_, faults_); }
double EnginePhases::gather_ms() const { return ms(faults_, gathered_); }
double EnginePhases::clean_ms() const { return ms(gathered_, cleaned_); }
double EnginePhases::tail_ms() const { return ms(cleaned_, returned_); }

std::vector<LayerRow> layer_table(const std::vector<SpanRecord>& spans) {
  const auto children = children_of(spans);
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::vector<std::pair<Tracer::TimePoint, Tracer::TimePoint>> kids;
    for (const int c : children[i]) {
      const SpanRecord& child = spans[static_cast<std::size_t>(c)];
      kids.emplace_back(child.start, child.end);
    }
    const double duration = ms(span.start, span.end);
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.count;
    row.total_ms += duration;
    row.self_ms += duration - covered_ms(std::move(kids), span.start, span.end);
  }
  std::vector<LayerRow> table;
  for (auto& [name, row] : rows) table.push_back(std::move(row));
  std::sort(table.begin(), table.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return table;
}

std::vector<double> child_coverage(const std::vector<SpanRecord>& spans,
                                   std::string_view root) {
  const auto children = children_of(spans);
  std::vector<double> coverage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.name != root) continue;
    std::vector<std::pair<Tracer::TimePoint, Tracer::TimePoint>> kids;
    for (const int c : children[i]) {
      const SpanRecord& child = spans[static_cast<std::size_t>(c)];
      kids.emplace_back(child.start, child.end);
    }
    const double duration = ms(span.start, span.end);
    if (duration <= 0.0) continue;
    coverage.push_back(covered_ms(std::move(kids), span.start, span.end) /
                       duration);
  }
  return coverage;
}

bool write_spans_csv(const std::string& path,
                     const std::vector<SpanRecord>& spans,
                     std::chrono::steady_clock::time_point origin) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  out << "id,name,start_us,end_us,parent,op\n";
  const auto us = [origin](Tracer::TimePoint t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  char line[64];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << i << ',' << span.name << ',';
    std::snprintf(line, sizeof line, "%.1f,%.1f", us(span.start), us(span.end));
    out << line << ',' << span.parent << ',' << span.op << '\n';
  }
  return static_cast<bool>(out.flush());
}

}  // namespace vpbench
