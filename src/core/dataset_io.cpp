#include "core/dataset_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/atomic_file.hpp"

namespace vp::core {

namespace {

/// Splits a CSV line at commas (our fields never contain commas/quotes).
std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  // from_chars accepts "nan"/"inf", which would sail through the
  // range checks below (NaN compares false to everything).
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

// --- buffered serialization ------------------------------------------------
// The writers below build the whole CSV in one string with
// std::to_chars and hand it to the stream in a single write. The old
// per-row path (snprintf into a stack buffer + five operator<< calls per
// row) spent most of write time inside ostream's sentry/locale machinery
// — at 6.4M rows that dominated `vpctl gen --probe --out`. Byte
// fidelity: to_chars(fixed, p) and to_chars(general, p) are specified to
// format exactly as printf "%.pf" / "%.pg", so output is identical to
// the legacy writer (the dataset_io tests byte-compare both paths).

void append_uint(std::string& out, std::uint32_t v) {
  char buf[10];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// "a.b.c.0/24" — what block.prefix().to_string() produces, without the
/// temporary strings.
void append_block(std::string& out, net::Block24 block) {
  const std::uint32_t index = block.index();
  append_uint(out, (index >> 16) & 0xff);
  out.push_back('.');
  append_uint(out, (index >> 8) & 0xff);
  out.push_back('.');
  append_uint(out, index & 0xff);
  out.append(".0/24");
}

/// printf "%.<precision>f".
void append_fixed(std::string& out, double v, int precision) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::fixed, precision);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// printf "%.<precision>g".
void append_general(std::string& out, double v, int precision) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, precision);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void build_catchment_csv(std::string& out, const RoundResult& round,
                         const anycast::Deployment& deployment) {
  out += "block,site,rtt_ms\n";
  // The map iterates in ascending block order, which is the file order.
  // ~27 bytes/row ("255.255.255.0/24,XXX,12.34\n"); headroom avoids the
  // doubling regrows on the big half of the fill.
  out.reserve(out.size() + round.map.mapped_blocks() * 28);
  for (const auto& [block, site] : round.map.entries()) {
    append_block(out, block);
    out.push_back(',');
    out += deployment.sites[static_cast<std::size_t>(site)].code;
    out.push_back(',');
    append_fixed(out, static_cast<double>(round.map.rtt_of(block)), 2);
    out.push_back('\n');
  }
}

void build_load_csv(std::string& out,
                    std::span<const dnsload::BlockLoad> blocks) {
  out += "block,daily_queries,good_fraction\n";
  out.reserve(out.size() + blocks.size() * 40);
  for (const dnsload::BlockLoad& bl : blocks) {
    append_block(out, bl.block);
    out.push_back(',');
    append_general(out, bl.daily_queries, 6);
    out.push_back(',');
    append_fixed(out, static_cast<double>(bl.good_fraction), 4);
    out.push_back('\n');
  }
}

}  // namespace

void write_catchment_csv(std::ostream& out, const RoundResult& round,
                         const anycast::Deployment& deployment) {
  std::string csv;
  build_catchment_csv(csv, round, deployment);
  out.write(csv.data(), static_cast<std::streamsize>(csv.size()));
}

std::optional<RoundResult> read_catchment_csv(
    std::istream& in, const anycast::Deployment& deployment) {
  std::string line;
  if (!std::getline(in, line) || line != "block,site,rtt_ms")
    return std::nullopt;
  RoundResult round;
  round.raw_replies_per_site.assign(deployment.sites.size(), 0);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 3) return std::nullopt;
    const auto prefix = net::Prefix::parse(fields[0]);
    if (!prefix || prefix->length() != 24) return std::nullopt;
    const auto site = deployment.site_by_code(fields[1]);
    if (!site) return std::nullopt;
    const auto rtt = parse_double(fields[2]);
    if (!rtt || *rtt < 0) return std::nullopt;
    const net::Block24 block{prefix->base().value() >> 8};
    // A second row for a block is a duplicate: reject.
    if (!round.map.set(block, *site, static_cast<float>(*rtt)))
      return std::nullopt;
  }
  return round;
}

void write_load_csv(std::ostream& out,
                    std::span<const dnsload::BlockLoad> blocks) {
  std::string csv;
  build_load_csv(csv, blocks);
  out.write(csv.data(), static_cast<std::streamsize>(csv.size()));
}

void write_load_csv(std::ostream& out, const dnsload::LoadModel& load) {
  write_load_csv(out, load.blocks());
}

std::optional<LoadDataset> read_load_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) ||
      line != "block,daily_queries,good_fraction") {
    return std::nullopt;
  }
  LoadDataset dataset;
  std::unordered_set<net::Block24> seen;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 3) return std::nullopt;
    const auto prefix = net::Prefix::parse(fields[0]);
    const auto queries = parse_double(fields[1]);
    const auto good = parse_double(fields[2]);
    if (!prefix || prefix->length() != 24 || !queries || *queries < 0 ||
        !good || *good < 0 || *good > 1) {
      return std::nullopt;
    }
    dnsload::BlockLoad bl;
    bl.block = net::Block24{prefix->base().value() >> 8};
    // A repeated block would silently double-count into
    // total_daily_queries; reject, matching the catchment reader.
    if (!seen.insert(bl.block).second) return std::nullopt;
    bl.daily_queries = *queries;
    bl.good_fraction = static_cast<float>(*good);
    dataset.total_daily_queries += bl.daily_queries;
    dataset.blocks.push_back(bl);
  }
  return dataset;
}

bool save_catchment(const std::string& path, const RoundResult& round,
                    const anycast::Deployment& deployment) {
  std::string csv;
  build_catchment_csv(csv, round, deployment);
  return util::atomic_write_file(path, csv);
}

bool save_load_csv(const std::string& path, const dnsload::LoadModel& load) {
  std::string csv;
  build_load_csv(csv, load.blocks());
  return util::atomic_write_file(path, csv);
}

std::optional<RoundResult> load_catchment(
    const std::string& path, const anycast::Deployment& deployment) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_catchment_csv(in, deployment);
}

}  // namespace vp::core
