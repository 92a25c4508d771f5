#include "report.hpp"

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "stats.hpp"

namespace vpbench {

namespace {

struct Named {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"; README.md maps them onto each workload).
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cycle_cpu_s", "s"},
    {"answer_cpu_ms", "ms"},
};

// The per-layer metrics every traced run reports (BENCHMARK.json
// "per_layer"); 0 where the workload never enters the layer.
constexpr Named kPerLayer[] = {
    {"topology.generate_s", "s"},
    {"hitlist.build_s", "s"},
    {"bgp.full_s", "s"},
    {"dnsload.model_s", "s"},
    {"sim.internet_s", "s"},
    {"analysis.scenario_s", "s"},
    {"service.daemon_init_s", "s"},
    {"bgp.resolver_build_ms", "ms"},
    {"bgp.delta_apply_ms", "ms"},
    {"bgp.delta_changed_ases", "count"},
    {"hitlist.order_ms", "ms"},
    {"core.engine.probe_ms", "ms"},
    {"core.engine.probe_phase_ms", "ms"},
    {"core.engine.gather_ms", "ms"},
    {"core.engine.clean_ms", "ms"},
    {"core.engine.tail_ms", "ms"},
    {"core.replies_raw", "count"},
    {"core.kept", "count"},
    {"core.duplicates", "count"},
    {"core.unsolicited", "count"},
    {"core.late", "count"},
    {"core.wrong_id", "count"},
    {"core.malformed", "count"},
    {"core.kept_ratio", "ratio"},
    {"core.arena_hot_allocs", "count"},
    {"core.result_free_ms", "ms"},
    {"core.csv_write_s", "s"},
    {"core.csv_bytes", "bytes"},
    {"core.journal_append_ms", "ms"},
    {"core.journal_bytes", "bytes"},
    {"analysis.predict_load_ms", "ms"},
    {"service.handle_block_us", "us"},
    {"service.handle_load_ms", "ms"},
    {"net.http_wait_ms", "ms"},
    {"service.rounds_published", "count"},
    {"service.rounds_failed", "count"},
    {"gen.late_ms", "ms"},
};

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

RegistryReading read_registry(const std::string& name) {
  for (const auto& metric : vp::obs::metrics().snapshot().metrics) {
    if (metric.name != name) continue;
    if (metric.kind == vp::obs::MetricKind::kHistogram)
      return RegistryReading{metric.sum, metric.count};
    return RegistryReading{0.0, metric.counter_value};
  }
  return {};
}

void add_medians(Outcome& outcome, const LayerSamples& samples) {
  for (const auto& [name, values] : samples)
    outcome.per_layer[name] = median(values).value_or(0.0);
}

void add_cleaning(Outcome& outcome,
                  const std::vector<vp::core::CleaningStats>& rounds) {
  using Field = std::uint64_t vp::core::CleaningStats::*;
  const auto field_median = [&rounds](Field field) {
    std::vector<double> values;
    for (const auto& stats : rounds) values.push_back(static_cast<double>(stats.*field));
    return median(values).value_or(0.0);
  };
  auto& layer = outcome.per_layer;
  layer["core.replies_raw"] = field_median(&vp::core::CleaningStats::raw_replies);
  layer["core.kept"] = field_median(&vp::core::CleaningStats::kept);
  layer["core.duplicates"] = field_median(&vp::core::CleaningStats::duplicates);
  layer["core.unsolicited"] = field_median(&vp::core::CleaningStats::unsolicited);
  layer["core.late"] = field_median(&vp::core::CleaningStats::late);
  layer["core.wrong_id"] = field_median(&vp::core::CleaningStats::wrong_id);
  layer["core.malformed"] = field_median(&vp::core::CleaningStats::malformed);
  const double raw = layer["core.replies_raw"];
  layer["core.kept_ratio"] = raw > 0 ? layer["core.kept"] / raw : 0.0;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs{};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void require_end_to_end(Outcome& outcome) {
  for (const Named& m : kEndToEnd) {
    const auto it = outcome.end_to_end.find(m.name);
    outcome.check(it != outcome.end_to_end.end() && it->second.value > 0.0 &&
                      std::isfinite(it->second.value),
                  std::string{"end-to-end metric measured: "} + m.name);
  }
}

void print_report(const Options& options, const Outcome& outcome,
                  const std::vector<SpanRecord>& spans, const char* root_span) {
  std::printf("== vpbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : outcome.notes)
    std::printf("note: %s\n", note.c_str());
  std::printf("-- end-to-end (benchmark names)\n");
  for (const Named& m : kEndToEnd) {
    const auto it = outcome.end_to_end.find(m.name);
    if (it == outcome.end_to_end.end()) continue;
    std::printf("  %-24s %14.6f %s\n", m.name, it->second.value, m.unit);
  }
  std::printf("-- end-to-end (workload names)\n");
  const double error_rate =
      outcome.attempted == 0
          ? 0.0
          : static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted);
  std::printf("  %-24s %14.6f %s\n", "error_rate", error_rate, "ratio");
  for (const auto& [name, metric] : outcome.workload_figures)
    std::printf("  %-24s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("  attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& failure : outcome.check_failures)
    std::printf("  FAILED CHECK: %s\n", failure.c_str());

  if (!options.trace) return;
  std::printf("-- per-layer metrics\n");
  for (const Named& m : kPerLayer) {
    const auto it = outcome.per_layer.find(m.name);
    std::printf("  %-28s %16.6f %s\n", m.name,
                it == outcome.per_layer.end() ? 0.0 : it->second, m.unit);
  }
  std::printf("-- self time by span (%zu spans)\n", spans.size());
  const auto table = layer_table(spans);
  double self_total = 0.0;
  for (const LayerRow& row : table) self_total += row.self_ms;
  std::printf("  %-28s %8s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  for (const LayerRow& row : table) {
    std::printf("  %-28s %8zu %12.3f %12.3f %6.2f%%\n", row.name.c_str(),
                row.count, row.total_ms, row.self_ms,
                self_total > 0.0 ? 100.0 * row.self_ms / self_total : 0.0);
  }
  const auto coverage = child_coverage(spans, root_span);
  if (!coverage.empty()) {
    double lowest = 1.0;
    for (const double c : coverage) lowest = std::min(lowest, c);
    std::printf("  child-span coverage of '%s': median %.4f, min %.4f over %zu\n",
                root_span, median(coverage).value_or(0.0), lowest,
                coverage.size());
  }
}

void print_result_line(const Options& options, const Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name, double value, const char* unit) {
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(name).append("\": {\"value\": ");
    json.append(number(value)).append(", \"unit\": \"").append(unit);
    json.append("\"}");
  };
  if (options.trace) {
    for (const Named& m : kPerLayer) {
      const auto it = outcome.per_layer.find(m.name);
      emit(m.name, it == outcome.per_layer.end() ? 0.0 : it->second, m.unit);
    }
  } else {
    for (const Named& m : kEndToEnd) {
      const auto it = outcome.end_to_end.find(m.name);
      emit(m.name, it == outcome.end_to_end.end() ? 0.0 : it->second.value,
           m.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace vpbench
