// Order statistics for the benchmark's own figures.
#pragma once

#include <optional>
#include <vector>

namespace vpbench {

/// Median (mean of the two middle values for an even count); nullopt when
/// `values` is empty.
std::optional<double> median(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100). A percentile is reported only
/// when at least ten samples lie beyond it, i.e. n * (1 - p/100) >= 10:
/// p90 needs 100 samples and p99 needs 1000. nullopt otherwise.
std::optional<double> percentile(std::vector<double> values, double p);

/// Checks median() and percentile() against hand-computed cases; returns
/// the number of failed cases (0 = all good) and prints each failure.
int stats_selftest();

}  // namespace vpbench
