// The ISI-style IPv4 hitlist (paper §3.1, [17]): one representative,
// ping-likely address per /24 block, probed in pseudorandom order.
//
// The hitlist is built from *historical* knowledge, so it is imperfect on
// purpose: for most blocks it names the address that actually answers, but
// for a fraction it points at a stale address (the host moved), making the
// block unmappable even though something in it is alive — one of the
// reasons the paper sees only ~55% response and proposes multi-target
// probing as future work (our retry ablation exercises exactly this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "sim/responsiveness.hpp"
#include "topology/topology.hpp"

namespace vp::hitlist {

struct HitlistConfig {
  std::uint64_t seed = 23;
  /// Fraction of entries pointing at a stale (wrong) host address.
  double stale_entry_rate = 0.07;
  /// Fraction of allocated blocks missing from the hitlist entirely
  /// (never observed by the historical censuses that feed it).
  double missing_block_rate = 0.02;
};

/// One hitlist entry: the representative address to probe for a block.
struct Entry {
  net::Block24 block;
  net::Ipv4Address target;
};

class Hitlist {
 public:
  /// Builds the hitlist for every allocated block of the topology. The
  /// responsiveness model supplies the "true" live host per block; staleness
  /// and missing blocks are then layered on deterministically. Per-block
  /// decisions are stateless hashes, so the build parallelizes over block
  /// ranges (`threads` > 1) with output identical to the sequential build —
  /// at the paper's 6.4M blocks this is the difference between seconds and
  /// a blink.
  static Hitlist build(const topology::Topology& topo,
                       const sim::ResponsivenessModel& responsiveness,
                       const HitlistConfig& config = {},
                       unsigned threads = 1);

  std::span<const Entry> entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// CRC-32 over the (block, target) sequence — the cheap fingerprint the
  /// determinism and golden-stats suites compare.
  std::uint32_t crc32() const;

  /// A pseudorandom probe order over the entries (paper §3.1: requests are
  /// sent "in a pseudorandom order (following [25])" to spread load),
  /// written into a reused buffer: no allocation once `out` has the
  /// capacity (the engine's cross-round arena keeps it; at 6.4M entries
  /// the order alone is 25 MB). Different rounds get different
  /// permutations via `round_seed`.
  void probe_order_into(std::uint64_t round_seed,
                        std::vector<std::uint32_t>& out) const;

  /// The entry's target plus up to `extra_targets_per_block` additional
  /// distinct addresses in its block (the Trinocular-style retry
  /// ablation, §3.1 "we could improve the response rate by probing
  /// multiple targets in each block"), returned as a span over `scratch`
  /// (or directly over the entry's own target when no extras are
  /// requested — zero work on the paper's single-probe design).
  std::span<const net::Ipv4Address> targets_into(
      const Entry& entry, int extra_targets_per_block, std::uint64_t seed,
      std::vector<net::Ipv4Address>& scratch) const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace vp::hitlist
