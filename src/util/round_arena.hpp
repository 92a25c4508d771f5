// Cross-round scratch arena for the probe hot path.
//
// A measurement round needs a pile of working storage — per-shard SoA
// reply buffers, tile buckets, packet scratch, the merged cleaning
// array — whose *shapes* repeat exactly from round to round (same
// hitlist, same thread count). Allocating them per round is pure waste:
// at 6.4M blocks the allocator traffic and the cold pages it hands back
// are a measurable slice of the probe phase, and a continuous daemon
// pays it every round forever.
//
// RoundArena is a typed-slot holder: the first round creates each state
// object (a "grow"), later rounds get the same object back with its
// vectors' capacity intact (a "reuse"). It is deliberately dumb — no
// size classes, no freelists — because the engine's workspaces already
// know how to size themselves; the arena only keeps them alive between
// rounds and counts what happened, so a regression test can assert that
// round 2+ performs zero hot-path growth (vp_engine_arena_reuses_total /
// vp_engine_hot_allocs_total, see core/verfploeter.cpp).
//
// Threading: an arena may be used by AT MOST ONE round at a time. The
// engine's workers never touch the arena directly — the coordinator
// checks out the workspace once, workers get disjoint slices. Campaign
// keeps a pool (one arena per in-flight round); service::Daemon keeps a
// shared_ptr it drops if the watchdog abandons a round, so an abandoned
// worker can never race the next attempt's arena.
#pragma once

#include <cstdint>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <vector>

namespace vp::util {

class RoundArena {
 public:
  RoundArena() = default;
  RoundArena(const RoundArena&) = delete;
  RoundArena& operator=(const RoundArena&) = delete;

  /// The arena's single instance of `T`, default-constructed on first
  /// use. Later calls return the same object (capacity intact) and count
  /// one reuse.
  template <typename T>
  T& state() {
    const std::type_index key{typeid(T)};
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_shared<T>()).first;
    } else {
      ++reuses_;
    }
    return *std::static_pointer_cast<T>(it->second);
  }

  /// Workspaces report every vector-capacity growth here; zero across a
  /// steady-state round is the arena's whole point.
  void note_grow(std::uint64_t n = 1) { grow_events_ += n; }

  /// Times a state<T>() call handed back an existing object.
  std::uint64_t reuses() const { return reuses_; }
  /// Cumulative capacity-growth events reported by the workspaces.
  std::uint64_t grow_events() const { return grow_events_; }

 private:
  std::unordered_map<std::type_index, std::shared_ptr<void>> slots_;
  std::uint64_t reuses_ = 0;
  std::uint64_t grow_events_ = 0;
};

/// reserve() that tells the arena when it actually grew. Hot loops size
/// their vectors through this so the steady-state allocation test can
/// count growths instead of hooking the global allocator.
template <typename T>
void arena_reserve(std::vector<T>& v, std::size_t n, RoundArena& arena) {
  if (v.capacity() < n) {
    v.reserve(n);
    arena.note_grow();
  }
}

}  // namespace vp::util
