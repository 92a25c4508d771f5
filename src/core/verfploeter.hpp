// Verfploeter: the paper's primary contribution (§3).
//
// Runs one measurement round end-to-end:
//   1. the prober walks the hitlist in pseudorandom order, rate-limited,
//      emitting ICMP Echo Requests sourced from the measurement address
//      inside the anycast service prefix;
//   2. the (simulated) Internet routes each reply to the anycast site
//      serving the responder's catchment;
//   3. each site's collector parses and records the replies it receives;
//   4. the central cleaner removes duplicates, replies from never-probed
//      addresses, stale-round replies, and late replies (§4), and emits
//      the catchment map: /24 block -> site.
//
// Crucially, this pipeline never consults the routing table: catchments
// are *discovered* from which collector received each reply, exactly as
// the real system must. Multi-round policy lives in core/campaign.hpp.
//
// The round runs sharded across N worker threads, and its result is
// bit-identical to the serial walk. Why this is safe to parallelize:
// every stochastic decision on the probe path — responsiveness,
// duplicates, aliases, flips, RTT jitter — is a pure function of
// (block, round, seed) (see sim/), and the hitlist's pseudorandom order
// plus per-probe timestamps and ICMP sequence numbers are pure functions
// of the probe's *global index* in that order. So run():
//
//   1. materializes the round's probe order, its inverse (entry ->
//      order position) and, in multi-target mode, the prefix sums of the
//      per-entry target counts, giving every probe its global index up
//      front;
//   2. splits the HITLIST, not the order, into N contiguous entry ranges
//      of equal size; each worker walks its range in ascending entry
//      (= block) order, so the resolver/geo/responsiveness rows and the
//      entry-table slots it touches are contiguous and its own. Each
//      probe keeps its global index, and tx times and sequence numbers
//      are pure functions of that index, so the walk order cannot change
//      a single packet. Each site's collector counts what it received,
//      drops what the reply alone condemns (wrong measurement id, late,
//      source outside the hitlist's blocks), and files every other reply
//      as one 32-byte record (block, source, arrival, global probe
//      index, RTT, per-probe delivery seq, site) in the bucket of the
//      worker that owns the source's block range;
//   3. cleans by block owner: after the barrier, owner o gathers its
//      bucket from every shard, sorts it by the strict total order
//      (block, arrival, site, probe index, seq) — within one block the
//      order a serial walk that appended each site's replies in probe
//      order, then stable-sorted by arrival, would produce — and keeps
//      the first reply per block whose source was one of the block's
//      probed targets (paper §4: first reply wins; the others are
//      unsolicited or duplicates). The kept replies reach the map and
//      the RTT histogram in owner order, which is block order.
//
// Equal-arrival ties therefore resolve identically for any thread count,
// and the CatchmentMap, CleaningStats, and per-block RTTs match the
// one-thread run bit for bit.
//
// Faults and retries preserve the guarantee: the fault plan
// (sim/fault_injector.hpp) is const-pure like the rest of sim/, retry
// attempt times are pure functions of (global probe index, attempt), and
// fault counters are per-shard sums — so a faulty, retrying round is
// still bit-identical for any thread count.
#pragma once

#include "bgp/routing.hpp"
#include "core/round.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"

namespace vp::core {

class Verfploeter {
 public:
  Verfploeter(const sim::InternetSim& internet, const hitlist::Hitlist& hitlist)
      : internet_(&internet), hitlist_(&hitlist) {}

  /// Runs the round described by `spec` against the current BGP state
  /// with spec.threads probe workers; bit-identical result for any value.
  /// Safe to call concurrently from multiple threads (e.g. overlapping
  /// rounds of a campaign): it holds no mutable state and the sim layer
  /// is const-pure.
  RoundResult run(const bgp::RoutingTable& routes, const RoundSpec& spec,
                  RoundObserver* observer = nullptr) const;

 private:
  const sim::InternetSim* internet_;
  const hitlist::Hitlist* hitlist_;
};

}  // namespace vp::core
