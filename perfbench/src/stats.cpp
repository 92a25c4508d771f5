#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vpbench {

std::optional<double> median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

std::optional<double> percentile(std::vector<double> values, double p) {
  if (!(p > 0.0 && p < 100.0)) return std::nullopt;
  const double n = static_cast<double>(values.size());
  // Samples strictly beyond the nearest-rank position.
  const double rank = std::ceil(p / 100.0 * n);
  if (values.empty() || n - rank < 10.0) return std::nullopt;
  const std::size_t index = static_cast<std::size_t>(rank) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

int stats_selftest() {
  int failures = 0;
  const auto expect = [&failures](const char* what, std::optional<double> got,
                                  std::optional<double> want) {
    const bool ok = got.has_value() == want.has_value() &&
                    (!got || std::fabs(*got - *want) < 1e-12);
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest: %s: got %s%g, want %s%g\n", what,
                   got ? "" : "none ", got.value_or(0.0), want ? "" : "none ",
                   want.value_or(0.0));
    }
  };
  std::vector<double> ramp;  // 1..1000, shuffled order must not matter
  for (int i = 1000; i >= 1; --i) ramp.push_back(i);

  expect("median of nothing", median({}), std::nullopt);
  expect("median odd", median({3, 1, 2}), 2.0);
  expect("median even", median({4, 1, 3, 2}), 2.5);
  expect("median single", median({7}), 7.0);
  expect("p99 of 1000", percentile(ramp, 99), 990.0);
  expect("p90 of 1000", percentile(ramp, 90), 900.0);
  expect("p50 of 1000", percentile(ramp, 50), 500.0);
  expect("p99 needs 1000", percentile({ramp.begin(), ramp.begin() + 999}, 99),
         std::nullopt);
  std::vector<double> hundred(ramp.end() - 100, ramp.end());  // 100..1
  expect("p90 of 100", percentile(hundred, 90), 90.0);
  expect("p90 needs 100", percentile({hundred.begin(), hundred.begin() + 99}, 90),
         std::nullopt);
  expect("p50 of 20", percentile({hundred.end() - 20, hundred.end()}, 50), 10.0);
  expect("p50 needs 20", percentile({hundred.end() - 19, hundred.end()}, 50),
         std::nullopt);
  expect("p out of range", percentile(ramp, 100), std::nullopt);
  return failures;
}

}  // namespace vpbench
