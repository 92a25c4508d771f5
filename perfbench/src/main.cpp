// vpbench: the repository benchmark.
//
//   vpbench --workload {paper_round,whatif_sweep,serve_live} --seed N
//           --seconds S --trace {0,1} [--out-dir DIR]
//
// Checks its own median and percentile helpers first, then runs the
// workload. Prints a human-readable report and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Exits 1 when the self-test or any output check failed, 2 on bad
// arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "vpbench: %s\nusage: vpbench --workload "
               "{paper_round,whatif_sweep,serve_live} --seed N --seconds S "
               "--trace {0,1} [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vpbench::Options options;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("--seed must be an integer");
      seed_given = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0))
        return usage("--seconds must be a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!seed_given) return usage("--seed is required");
  if (vpbench::stats_selftest() != 0) {
    std::fprintf(stderr, "vpbench: statistics self-test failed\n");
    return 1;
  }

  vpbench::Outcome (*run)(const vpbench::Options&, vpbench::Tracer&) = nullptr;
  const char* root_span = "";
  if (options.workload == "paper_round") {
    run = vpbench::run_paper_round;
    root_span = "cycle";
  } else if (options.workload == "whatif_sweep") {
    run = vpbench::run_whatif_sweep;
    root_span = "config";
  } else if (options.workload == "serve_live") {
    run = vpbench::run_serve_live;
    root_span = "request";
  } else {
    return usage("unknown --workload");
  }

  std::error_code ec;
  options.work_dir = options.out_dir + "/work-" + options.workload + "-" +
                     std::to_string(::getpid());
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "vpbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  vpbench::Tracer tracer{options.trace};
  vpbench::Outcome outcome;
  try {
    outcome = run(options, tracer);
  } catch (const std::exception& e) {
    outcome.check(false, std::string{"workload threw: "} + e.what());
  }
  std::filesystem::remove_all(options.work_dir, ec);
  vpbench::require_end_to_end(outcome);

  const auto spans = tracer.spans();
  if (options.trace) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".csv";
    if (vpbench::write_spans_csv(path, spans, tracer.origin()))
      outcome.notes.push_back("spans written to " + path);
    else
      outcome.check(false, "write spans to " + path);
  }
  vpbench::print_report(options, outcome, spans, root_span);
  vpbench::print_result_line(options, outcome);
  return outcome.failed == 0 ? 0 : 1;
}
