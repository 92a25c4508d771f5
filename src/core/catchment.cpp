#include "core/catchment.hpp"

#include <algorithm>
#include <type_traits>

namespace vp::core {

namespace {
constexpr std::uint32_t kLastBlock = 0xffffff;  // 2^24 /24s in IPv4
}  // namespace

bool operator==(const CatchmentMap::Entries& a,
                const CatchmentMap::Entries& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void CatchmentMap::cover(net::Block24 first, net::Block24 last) {
  std::uint32_t lo = first.index();
  std::uint32_t hi = last.index();
  if (hi < lo) return;
  if (!sites_.empty()) {
    const std::uint32_t old_hi =
        base_ + static_cast<std::uint32_t>(sites_.size()) - 1;
    if (lo >= base_ && hi <= old_hi) return;
    lo = std::min(lo, base_);
    hi = std::max(hi, old_hi);
  }
  // Each new slot is written once: padding below, the old span, padding
  // above.
  const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
  const std::size_t below = sites_.empty() ? 0 : base_ - lo;
  const auto widen = [&](auto& old, auto fill) {
    std::remove_reference_t<decltype(old)> slots;
    slots.reserve(span);
    slots.assign(below, fill);
    slots.insert(slots.end(), old.begin(), old.end());
    slots.resize(span, fill);
    old = std::move(slots);
  };
  widen(sites_, anycast::kUnknownSite);
  widen(rtts_, 0.0f);
  base_ = lo;
}

std::size_t CatchmentMap::grow_to(net::Block24 block) {
  const std::uint32_t index = block.index();
  if (sites_.empty()) {
    cover(block, block);
    return 0;
  }
  // Double the span toward the write (clamped to the IPv4 space), so a
  // run of outward writes regrows O(log n) times, not once per write.
  const auto size = static_cast<std::uint32_t>(sites_.size());
  const std::uint32_t last = base_ + size - 1;
  if (index < base_) {
    cover(net::Block24{std::min(index, base_ > size ? base_ - size : 0u)},
          net::Block24{last});
  } else {
    cover(net::Block24{base_},
          net::Block24{std::max(index, std::min(last + size, kLastBlock))});
  }
  return offset(block);
}

std::vector<std::uint64_t> CatchmentMap::per_site_counts(
    std::size_t site_count) const {
  std::vector<std::uint64_t> counts(site_count, 0);
  for (const anycast::SiteId site : sites_) {
    if (site >= 0 && static_cast<std::size_t>(site) < site_count)
      ++counts[static_cast<std::size_t>(site)];
  }
  return counts;
}

double CatchmentMap::fraction_to(anycast::SiteId site) const {
  if (mapped_ == 0 || site == anycast::kUnknownSite) return 0.0;
  const auto hits = static_cast<std::uint64_t>(
      std::count(sites_.begin(), sites_.end(), site));
  return static_cast<double>(hits) / static_cast<double>(mapped_);
}

}  // namespace vp::core
