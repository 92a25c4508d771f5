// Host responsiveness model: which /24 blocks answer pings, and how.
//
// Calibrated to the paper's observations:
//  * ~55% of probed blocks reply (Table 4; consistent with the 56-59% of
//    the ISI hitlist studies [17]);
//  * responsiveness churns between rounds — a median of ~2.4% of VPs go
//    non-responsive per round and about as many return (Figure 9);
//  * ~2% of replies are duplicates, some hosts replying up to thousands
//    of times (§4, data cleaning);
//  * some hosts reply from a different address than probed (§4);
//  * a small tail of replies arrives after the measurement cutoff;
//  * whole ASes can be ICMP-unfriendly (icmp_response_scale, e.g. the
//    Korea-heavy unmappable region of Figure 4a).
//
// All decisions are deterministic hashes of (seed, block, round), so any
// round can be re-evaluated independently and reproducibly. This also
// makes every const method safe to call from concurrent probe workers
// (core/verfploeter.hpp): the model holds no per-call mutable state.
#pragma once

#include <cstdint>

#include "net/ipv4.hpp"
#include "topology/topology.hpp"

namespace vp::sim {

struct ResponsivenessConfig {
  std::uint64_t seed = 7;
  /// Probability a block's representative host ever answers pings (before
  /// the per-AS icmp_response_scale multiplier).
  double base_responsive_rate = 0.68;
  /// Probability that an otherwise-responsive block is down in a round.
  double round_down_rate = 0.024;
  /// Probability a reply is sent twice.
  double duplicate_rate = 0.02;
  /// Probability a reply is sent many times (tens; "in some cases up to
  /// thousands" — we cap the tail for runtime sanity).
  double heavy_duplicate_rate = 0.0002;
  /// Probability a host replies from a different address than probed.
  double alias_rate = 0.012;
  /// Probability the (single) reply arrives after the late cutoff.
  double late_rate = 0.003;
  /// Probability that any given non-representative host offset is also
  /// alive (multi-target probing can find these).
  double secondary_live_rate = 0.12;
};

/// How one probe of one block in one round behaves.
struct ReplyBehavior {
  bool responds = false;
  std::uint8_t copies = 1;     // replies emitted (duplicates when > 1)
  bool alias = false;          // reply source differs from probed target
  bool late = false;           // reply arrives past the measurement window
};

class ResponsivenessModel {
 public:
  ResponsivenessModel(const topology::Topology& topo,
                      const ResponsivenessConfig& config)
      : topo_(&topo), config_(config) {}

  const ResponsivenessConfig& config() const { return config_; }

  /// Persistent property: does this block's host answer pings at all?
  bool ever_responds(net::Block24 block) const;

  /// Is the block up in the given round? (ever_responds AND not in a
  /// transient down period).
  bool responds_in_round(net::Block24 block, std::uint32_t round) const;

  /// Full behavior of the reply (duplicates / alias / lateness).
  ReplyBehavior behavior(net::Block24 block, std::uint32_t round) const;

  /// The host offset within the block that answers (the "representative
  /// address"), stable per block.
  std::uint8_t responsive_host(net::Block24 block) const;

  /// Whether a specific host offset within the block is alive. The
  /// representative host always is (when the block responds at all); a
  /// sprinkling of secondary hosts is too, which is what multi-target
  /// probing (the Trinocular-style ablation) can discover.
  bool is_live_host(net::Block24 block, std::uint8_t host) const;

 private:
  std::uint64_t block_hash(net::Block24 block, std::uint64_t stream) const;

  const topology::Topology* topo_;
  ResponsivenessConfig config_;
};

}  // namespace vp::sim
