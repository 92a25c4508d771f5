// Command-line flags shared by vpctl and vpd.
//
// Every token is `--key`, followed by its value unless `key` is one of
// the caller's boolean flags. Numeric values are parsed strictly where
// each flag is read: the whole token must be a number in the flag's
// range, or the read throws BadFlag, which main turns into the usage
// text and exit 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace vp::cli {

/// Upper bound for the millisecond flags (timeouts, cadences): a day.
inline constexpr double kMaxMs = 86'400'000.0;

/// A numeric flag whose value is not a whole number in its range.
struct BadFlag {
  std::string key;
  std::string value;
  std::string want;  // "an integer in 0..256", "a number in 0..1000"
};

struct Args {
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  /// Integer flag: the whole token must be a decimal T in [lo, hi]
  /// ("abc", "2x", "-1" for an unsigned flag, overflow: BadFlag).
  template <typename T>
  T get_int(const std::string& key, T fallback, T lo = T{0},
            T hi = std::numeric_limits<T>::max()) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size() || value < lo ||
        value > hi)
      throw BadFlag{key, text,
                    "an integer in " + std::to_string(lo) + ".." +
                        std::to_string(hi)};
    return value;
  }

  /// Floating-point flag: the whole token must be a finite decimal in
  /// [lo, hi] ("abc", "0.5x", "nan", "inf", out of range: BadFlag).
  double get_double(const std::string& key, double fallback, double lo,
                    double hi) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size() ||
        !std::isfinite(value) || value < lo || value > hi) {
      char range[64];
      std::snprintf(range, sizeof range, "a number in %g..%g", lo, hi);
      throw BadFlag{key, text, range};
    }
    return value;
  }
};

/// Parses `--key [value]` tokens; keys in `boolean_flags` take no value.
/// nullopt on a token that is not a flag or a flag missing its value.
inline std::optional<Args> parse_args(
    std::span<char* const> tokens,
    std::span<const std::string_view> boolean_flags) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string_view arg = tokens[i];
    if (!arg.starts_with("--")) return std::nullopt;
    const std::string key{arg.substr(2)};
    if (std::find(boolean_flags.begin(), boolean_flags.end(), key) !=
        boolean_flags.end()) {
      args.options.try_emplace(key);  // present, no value
      continue;
    }
    if (i + 1 >= tokens.size()) return std::nullopt;
    args.options.insert_or_assign(key, tokens[++i]);
  }
  return args;
}

}  // namespace vp::cli
