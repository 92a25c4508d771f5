#include "hitlist/hitlist.hpp"

#include <algorithm>
#include <optional>

#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp::hitlist {

namespace {
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Entry for one block, or nullopt when the block is missing from the
/// hitlist. A pure function of (config, block), which is what makes the
/// parallel build order-independent.
std::optional<Entry> make_entry(const topology::BlockInfo& info,
                                const sim::ResponsivenessModel& responsiveness,
                                const HitlistConfig& config) {
  const std::uint64_t h = util::hash_combine(
      util::hash_combine(config.seed, 0xb10c), info.block.index());
  if (to_unit(h) < config.missing_block_rate) return std::nullopt;
  std::uint8_t host = responsiveness.responsive_host(info.block);
  const std::uint64_t h2 = util::hash_combine(h, 0x57a1e);
  if (to_unit(h2) < config.stale_entry_rate) {
    // Stale entry: the census-era host is gone; point somewhere else.
    host = static_cast<std::uint8_t>(1 + (host + 1 + h2 % 248) % 250);
  }
  return Entry{info.block, info.block.address(host)};
}
}  // namespace

Hitlist Hitlist::build(const topology::Topology& topo,
                       const sim::ResponsivenessModel& responsiveness,
                       const HitlistConfig& config, unsigned threads) {
  Hitlist out;
  const std::span<const topology::BlockInfo> blocks = topo.blocks();
  const unsigned n = util::resolve_threads(threads);
  if (n <= 1 || blocks.size() < 4096) {
    out.entries_.reserve(blocks.size());
    for (const topology::BlockInfo& info : blocks) {
      if (const auto entry = make_entry(info, responsiveness, config))
        out.entries_.push_back(*entry);
    }
    return out;
  }
  // Parallel build: each worker fills a private vector over a contiguous
  // block range; splicing the parts in range order reproduces the
  // sequential result exactly (per-block decisions are stateless hashes,
  // and the responsiveness model is documented const + pure).
  std::vector<std::vector<Entry>> parts(n);
  util::run_shards(n, [&](unsigned shard) {
    const std::size_t lo = blocks.size() * shard / n;
    const std::size_t hi = blocks.size() * (shard + 1) / n;
    auto& part = parts[shard];
    part.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      if (const auto entry = make_entry(blocks[i], responsiveness, config))
        part.push_back(*entry);
    }
  });
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.entries_.reserve(total);
  for (auto& part : parts)
    out.entries_.insert(out.entries_.end(), part.begin(), part.end());
  return out;
}

std::uint32_t Hitlist::crc32() const {
  std::uint32_t crc = 0;
  for (const Entry& entry : entries_) {
    const std::uint32_t words[2] = {entry.block.index(),
                                    entry.target.value()};
    crc = util::crc32(words, sizeof(words), crc);
  }
  return crc;
}

void Hitlist::probe_order_into(std::uint64_t round_seed,
                               std::vector<std::uint32_t>& out) const {
  out.resize(entries_.size());
  for (std::uint32_t i = 0; i < out.size(); ++i) out[i] = i;
  util::Rng rng{round_seed};
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
}

std::span<const net::Ipv4Address> Hitlist::targets_into(
    const Entry& entry, int extra_targets_per_block, std::uint64_t seed,
    std::vector<net::Ipv4Address>& scratch) const {
  if (extra_targets_per_block <= 0) return {&entry.target, 1};
  scratch.clear();
  scratch.push_back(entry.target);
  util::Rng rng{util::hash_combine(seed, entry.block.index())};
  for (int i = 0; i < extra_targets_per_block; ++i) {
    net::Ipv4Address candidate =
        entry.block.address(static_cast<std::uint8_t>(1 + rng.below(250)));
    if (std::find(scratch.begin(), scratch.end(), candidate) ==
        scratch.end()) {
      scratch.push_back(candidate);
    }
  }
  return scratch;
}

}  // namespace vp::hitlist
