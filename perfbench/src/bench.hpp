// Shared types of the repository benchmark (vpbench).
//
// Each workload builds its own inputs from the seed, drives the libraries
// through their public API, checks the outputs outside the timed region,
// and fills an Outcome. main.cpp turns the Outcome into the report and the
// final JSON line.
#pragma once

#include <pthread.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/catchment.hpp"
#include "trace.hpp"

namespace vpbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time `clock` has counted so far, in seconds; by default that of
/// every thread of this process. The gated timings are CPU time: unlike
/// wall time it leaves out the time a thread waits for a core, which on
/// a shared host follows how busy the machine is at the moment.
inline double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The CPU clock of the calling thread, which other threads can read.
inline clockid_t this_thread_cpu_clock() {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  ::pthread_getcpuclockid(::pthread_self(), &clock);
  return clock;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< spans and scratch outputs
  std::string work_dir;                ///< per-run scratch, removed at exit
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< operations plus output checks
  std::uint64_t failed = 0;     ///< failed operations plus failed checks
  std::vector<std::string> check_failures;
  /// The benchmark-wide end-to-end metrics (names in report.cpp).
  std::map<std::string, Metric> end_to_end;
  /// The workload's own end-to-end figures under their workload-specific
  /// names (block_p99_ms, whatif_p90_ms, ...), printed in the report.
  std::vector<std::pair<std::string, Metric>> workload_figures;
  /// Per-layer values measured by this workload; layers it never enters
  /// are reported as 0.
  std::map<std::string, double> per_layer;
  std::vector<std::string> notes;

  /// Records one output check; a failed check counts as a failed
  /// operation and makes the run exit nonzero.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      check_failures.push_back(what);
    }
  }

  /// Sets end-to-end metric `name` when it was measured.
  void put(const char* name, std::optional<double> value, const char* unit) {
    if (value) end_to_end[name] = Metric{*value, unit};
  }
};

/// Per-layer samples by metric name, one per setup, cycle or config.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Runs `body` inside span `span` (child of `parent`) and appends its
/// duration in seconds to `samples[layer]`.
template <class Body>
void timed_layer(Tracer& tracer, const char* span, int parent, std::uint64_t op,
                 LayerSamples& samples, const char* layer, Body&& body) {
  const auto t0 = Clock::now();
  const int id = tracer.begin(span, parent, op);
  body();
  tracer.end(id);
  samples[layer].push_back(seconds_between(t0, Clock::now()));
}

/// Sets each per-layer metric in `samples` to the median of its samples.
void add_medians(Outcome& outcome, const LayerSamples& samples);

/// Sets the core.* cleaning metrics to the per-field medians over
/// `rounds` (at least one round).
void add_cleaning(Outcome& outcome,
                  const std::vector<vp::core::CleaningStats>& rounds);

/// A reading of one metric from the program's global registry: a
/// counter's value (in `count`) or a histogram's sum and count.
struct RegistryReading {
  double sum = 0.0;
  std::uint64_t count = 0;
};
RegistryReading read_registry(const std::string& name);

/// Mean per observation of a histogram between two readings (0 if none).
inline double mean_between(const RegistryReading& before,
                           const RegistryReading& after) {
  return after.count > before.count
             ? (after.sum - before.sum) /
                   static_cast<double>(after.count - before.count)
             : 0.0;
}

/// Peak resident set size (VmHWM) of this process, in MiB.
double peak_rss_mb();

/// Filesystem type of `path` as a short name ("tmpfs", "ext4", ...).
std::string filesystem_type(const std::string& path);

Outcome run_paper_round(const Options& options, Tracer& tracer);
Outcome run_whatif_sweep(const Options& options, Tracer& tracer);
Outcome run_serve_live(const Options& options, Tracer& tracer);

}  // namespace vpbench
