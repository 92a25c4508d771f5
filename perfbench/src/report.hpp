// The run report: a human-readable summary and the final JSON line.
#pragma once

#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace vpbench {

/// Adds one check per benchmark end-to-end metric: it must have been
/// measured and be positive.
void require_end_to_end(Outcome& outcome);

/// Prints every figure with its unit; with tracing on, also the per-layer
/// metrics, the self-time table and how much of each `root_span` its
/// child spans cover.
void print_report(const Options& options, const Outcome& outcome,
                  const std::vector<SpanRecord>& spans, const char* root_span);

/// Prints the last line of standard output: correct/attempted/failed and
/// the end-to-end metrics (untraced) or the per-layer metrics (traced).
void print_result_line(const Options& options, const Outcome& outcome);

}  // namespace vpbench
