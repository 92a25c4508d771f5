// The product of one Verfploeter measurement: block -> site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "anycast/deployment.hpp"
#include "net/ipv4.hpp"

namespace vp::core {

/// Counters from the data-cleaning pass (paper §4, "Data cleaning: we
/// remove ... duplicate results, replies from IP-addresses that we did not
/// send a request to, and late replies").
struct CleaningStats {
  std::uint64_t raw_replies = 0;   // everything collectors recorded
  std::uint64_t malformed = 0;     // failed parse/checksum at collectors
  std::uint64_t wrong_id = 0;      // stale measurement id (older round)
  std::uint64_t unsolicited = 0;   // source address we never probed
  std::uint64_t duplicates = 0;    // block already mapped this round
  std::uint64_t late = 0;          // arrived after the cutoff
  std::uint64_t kept = 0;          // survived all filters

  std::uint64_t dropped() const {
    return malformed + wrong_id + unsolicited + duplicates + late;
  }
};

/// The catchment map measured by one round, with the RTT of the reply
/// that mapped each block (paper §7 suggests using these RTTs to decide
/// where new anycast sites would help; see analysis/latency).
///
/// Dense over a block span: slot i describes block base + i, a site
/// array with kUnknownSite marking unmapped slots plus a parallel RTT
/// array. A round pre-sizes the span to its hitlist's blocks (`cover`),
/// so the cleaning pass writes by index and iteration is ascending by
/// construction; a write outside the span grows it in either direction.
/// Worst case — blocks at both ends of the IPv4 space — is all 2^24
/// slots at 5 B each, ~80 MB.
class CatchmentMap {
 public:
  /// Ascending (block, site) view over the mapped slots.
  class Entries {
   public:
    class const_iterator {
     public:
      // Yields pairs by value: a multipass (C++20 forward) iterator, but
      // only an input iterator to legacy algorithms.
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = std::pair<net::Block24, anycast::SiteId>;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = value_type;

      const_iterator() = default;
      value_type operator*() const {
        return {net::Block24{map_->base_ + static_cast<std::uint32_t>(off_)},
                map_->sites_[off_]};
      }
      const_iterator& operator++() {
        off_ = map_->next_mapped(off_ + 1);
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const const_iterator& a,
                             const const_iterator& b) {
        return a.off_ == b.off_;
      }

     private:
      friend class Entries;
      const_iterator(const CatchmentMap* map, std::size_t off)
          : map_(map), off_(off) {}
      const CatchmentMap* map_ = nullptr;
      std::size_t off_ = 0;
    };

    const_iterator begin() const { return {map_, map_->next_mapped(0)}; }
    const_iterator end() const { return {map_, map_->sites_.size()}; }
    std::size_t size() const { return map_->mapped_; }

    /// Logical equality: the same (block, site) pairs, whatever the spans.
    friend bool operator==(const Entries& a, const Entries& b);

   private:
    friend class CatchmentMap;
    explicit Entries(const CatchmentMap* map) : map_(map) {}
    const CatchmentMap* map_;
  };

  /// Site serving a block; kUnknownSite if the block did not map.
  anycast::SiteId site_of(net::Block24 block) const {
    const std::size_t off = offset(block);
    return off < sites_.size() ? sites_[off] : anycast::kUnknownSite;
  }

  /// RTT of the reply that mapped a block, in ms; 0 if it did not map.
  float rtt_of(net::Block24 block) const {
    const std::size_t off = offset(block);
    return off < sites_.size() && sites_[off] != anycast::kUnknownSite
               ? rtts_[off]
               : 0.0f;
  }

  bool contains(net::Block24 block) const {
    return site_of(block) != anycast::kUnknownSite;
  }

  /// Maps `block` to `site` unless it is already mapped: the first write
  /// wins, as the first reply does in cleaning. Returns whether it
  /// stored; setting kUnknownSite stores nothing.
  bool set(net::Block24 block, anycast::SiteId site, float rtt_ms = 0.0f) {
    if (site == anycast::kUnknownSite) return false;
    std::size_t off = offset(block);
    if (off >= sites_.size()) off = grow_to(block);
    if (sites_[off] != anycast::kUnknownSite) return false;
    sites_[off] = site;
    rtts_[off] = rtt_ms;
    ++mapped_;
    return true;
  }

  /// Widens the span to hold every block in [first, last], so later
  /// writes in that range never regrow it.
  void cover(net::Block24 first, net::Block24 last);

  std::size_t mapped_blocks() const { return mapped_; }

  Entries entries() const { return Entries{this}; }

  /// Blocks per site; index = site id, one extra slot is NOT added for
  /// unknown (unmapped blocks are simply absent).
  std::vector<std::uint64_t> per_site_counts(std::size_t site_count) const;

  /// Fraction of mapped blocks served by `site`.
  double fraction_to(anycast::SiteId site) const;

  CleaningStats cleaning;
  std::uint64_t probes_sent = 0;
  std::uint64_t blocks_probed = 0;
  std::uint32_t measurement_id = 0;

 private:
  /// Slot of `block`; wraps to >= sites_.size() below the base.
  std::size_t offset(net::Block24 block) const {
    return static_cast<std::uint32_t>(block.index() - base_);
  }
  /// First mapped slot at or after `off` (sites_.size() if none).
  std::size_t next_mapped(std::size_t off) const {
    while (off < sites_.size() && sites_[off] == anycast::kUnknownSite) ++off;
    return off;
  }
  /// Grows the span to hold `block` and returns its slot.
  std::size_t grow_to(net::Block24 block);

  std::uint32_t base_ = 0;
  std::vector<anycast::SiteId> sites_;
  std::vector<float> rtts_;
  std::size_t mapped_ = 0;
};

}  // namespace vp::core
