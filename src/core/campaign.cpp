#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include <memory>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"
#include "util/thread_pool.hpp"

namespace vp::core {

RoundSpec Campaign::spec_for(std::uint32_t r) const {
  RoundSpec spec;
  spec.probe = base_;
  spec.probe.measurement_id = base_.measurement_id + r;
  spec.probe.order_seed = util::hash_combine(base_.order_seed, r);
  spec.round = r;
  spec.start = util::SimTime{interval_.usec * r};
  spec.threads = threads_;
  spec.faults = faults_;
  return spec;
}

std::uint64_t Campaign::fingerprint() const {
  std::uint64_t f = 0x76706a6f75726eULL;  // "vpjourn"
  f = util::hash_combine(f, probe_fingerprint(base_));
  f = util::hash_combine(f, rounds_);
  f = util::hash_combine(f, static_cast<std::uint64_t>(interval_.usec));
  f = util::hash_combine(f, threads_);
  f = util::hash_combine(f, fault_fingerprint(faults_));
  f = util::hash_combine(f, deployment_hash_);
  return f;
}

std::vector<RoundResult> Campaign::run() const {
  return run_reported().results;
}

CampaignReport Campaign::run_reported() const {
  CampaignReport report;
  report.results.resize(rounds_);
  CampaignJournal journal;
  std::vector<bool> done(rounds_, false);
  if (!journal_path_.empty()) {
    const JournalManifest manifest{fingerprint(), rounds_};
    auto opened = journal.open(journal_path_, manifest, resume_);
    report.journal = opened.status;
    report.truncated_bytes = opened.truncated_bytes;
    if (!report.ok()) {
      report.results.clear();
      return report;
    }
    for (auto& [r, result] : opened.completed) {
      report.results[r] = std::move(result);
      done[r] = true;
      ++report.rounds_loaded;
    }
  }
  report.rounds_executed = rounds_ - report.rounds_loaded;
  auto& registry = obs::metrics();
  registry.counter("vp_campaign_rounds_resumed_total")
      .add(report.rounds_loaded);
  registry.counter("vp_campaign_rounds_executed_total")
      .add(report.rounds_executed);
  obs::Histogram& round_wall =
      registry.histogram("vp_campaign_round_wall_ms",
                         obs::latency_buckets_ms());

  // Appends are serialized; rounds completing out of order under
  // concurrency > 1 interleave their records in completion order, which
  // is fine — records carry round ids and resume takes the set.
  std::mutex journal_mutex;
  std::atomic<bool> append_ok{true};
  std::atomic<bool> cancelled{false};
  const auto cancel_requested = [&] {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  // Cross-round arena pool: one arena per in-flight round, checked out
  // for the duration of a round and returned afterwards, so round N+1
  // starts with round N's capacities instead of cold allocations. The
  // arena is attached here — NOT in spec_for() — because it is a pure
  // performance knob: specs stay value types, and the campaign
  // fingerprint (and therefore journal resume) is unaffected.
  std::mutex arena_mutex;
  std::vector<std::unique_ptr<util::RoundArena>> arena_pool;
  const auto acquire_arena = [&] {
    std::lock_guard lock{arena_mutex};
    if (arena_pool.empty()) return std::make_unique<util::RoundArena>();
    auto arena = std::move(arena_pool.back());
    arena_pool.pop_back();
    return arena;
  };
  const auto release_arena = [&](std::unique_ptr<util::RoundArena> arena) {
    std::lock_guard lock{arena_mutex};
    arena_pool.push_back(std::move(arena));
  };
  const auto run_one = [&](std::uint32_t r) {
    // Wall time of the round INCLUDING its journal append, as the
    // campaign experiences it (the engine's vp_engine_round_ms excludes
    // the append; the spread between the two is the durability tax).
    obs::Span span{&round_wall};
    auto arena = acquire_arena();
    RoundSpec spec = spec_for(r);
    spec.arena = arena.get();
    RoundResult result = verfploeter_->run(*routes_, spec, observer_);
    release_arena(std::move(arena));
    if (journal.is_open()) {
      std::lock_guard lock{journal_mutex};
      if (!journal.append_round(r, result)) append_ok = false;
    }
    report.results[r] = std::move(result);
  };

  const unsigned in_flight =
      std::min(util::resolve_threads(concurrency_),
               std::max<std::uint32_t>(rounds_, 1));
  // Cancellation is checked before each round starts (including inside
  // the pool tasks): rounds in flight finish and journal normally, rounds
  // not yet started are simply skipped — the journal stays a resumable
  // prefix of the campaign.
  if (in_flight <= 1) {
    for (std::uint32_t r = 0; r < rounds_ && !cancel_requested(); ++r)
      if (!done[r]) run_one(r);
  } else {
    util::ThreadPool pool{in_flight};
    for (std::uint32_t r = 0; r < rounds_; ++r)
      if (!done[r])
        pool.submit([&run_one, &cancel_requested, r] {
          if (!cancel_requested()) run_one(r);
        });
    pool.wait_idle();
  }
  report.interrupted = cancelled.load(std::memory_order_relaxed);
  if (!append_ok) report.journal = JournalStatus::kIoError;
  return report;
}

}  // namespace vp::core
