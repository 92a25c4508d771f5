// Campaign: a builder for multi-round measurement runs.
//
// Owns the per-round policy the old Verfploeter::campaign() loop hard-
// coded: round r gets measurement id `base + r`, a fresh probe order via
// a per-round seed, and start time `r * interval` (the paper's 24-hour
// campaign is 96 rounds, 15 minutes apart, §4.2). Rounds are independent
// by construction — every stochastic process is a pure function of
// (block, round, seed) — so they can run concurrently; results land in
// round order regardless of completion order.
//
// With journal(path) set, every completed round is appended to a
// crash-safe CampaignJournal (core/journal.hpp) and resume(true) skips
// rounds already journaled — because rounds are pure functions of their
// spec, a kill → resume cycle produces results bit-identical to an
// uninterrupted run. Under concurrency > 1 rounds complete out of order,
// so resume honors the journaled *set* of round ids, not a high-water
// mark, and a partially-written (torn) round record simply re-runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/round.hpp"
#include "core/verfploeter.hpp"

namespace vp::core {

/// What a journaled run did, alongside the results themselves.
struct CampaignReport {
  /// results[r] is round r's result whatever the completion order.
  /// Empty when ok() is false (resume was refused).
  std::vector<RoundResult> results;
  JournalStatus journal = JournalStatus::kDisabled;
  std::uint32_t rounds_loaded = 0;    ///< taken from the journal
  std::uint32_t rounds_executed = 0;  ///< actually run by this process
  std::uint64_t truncated_bytes = 0;  ///< torn tail discarded on resume
  /// True when the cancel flag stopped the run early. Rounds that were
  /// in flight finished and were journaled; later results are empty, so
  /// interrupted runs must not be treated as complete campaigns.
  bool interrupted = false;

  /// False when the journal refused (mismatch/corruption) or appends
  /// failed; refused runs carry no results.
  bool ok() const {
    return journal == JournalStatus::kDisabled ||
           journal == JournalStatus::kFresh ||
           journal == JournalStatus::kResumed;
  }
};

class Campaign {
 public:
  Campaign(const Verfploeter& verfploeter, const bgp::RoutingTable& routes)
      : verfploeter_(&verfploeter), routes_(&routes) {}

  /// Base probe configuration; round r runs with measurement id
  /// `base.measurement_id + r` and order seed derived from
  /// `base.order_seed` and r.
  Campaign& probe(const ProbeConfig& base) {
    base_ = base;
    return *this;
  }
  Campaign& rounds(std::uint32_t count) {
    rounds_ = count;
    return *this;
  }
  Campaign& interval(util::SimTime spacing) {
    interval_ = spacing;
    return *this;
  }
  /// Probe-phase worker shards per round (RoundSpec::threads).
  Campaign& threads(unsigned probe_workers) {
    threads_ = probe_workers;
    return *this;
  }
  /// How many rounds run concurrently (1 = sequential, 0 = one per
  /// hardware thread). Total threads in flight is concurrency x threads.
  Campaign& concurrency(unsigned rounds_in_flight) {
    concurrency_ = rounds_in_flight;
    return *this;
  }
  /// Observer shared by every round; with concurrency > 1 its callbacks
  /// arrive from overlapping rounds (see RoundObserver's contract).
  Campaign& observe(RoundObserver& observer) {
    observer_ = &observer;
    return *this;
  }
  /// Fault plan applied to every round (RoundSpec::faults); the injector
  /// must outlive run(). Null (the default) runs clean.
  Campaign& faults(const sim::FaultInjector* injector) {
    faults_ = injector;
    return *this;
  }
  /// Journal completed rounds to `path`. `deployment_hash` folds the
  /// deployment's identity (anycast::fingerprint) into the manifest so a
  /// journal can never be resumed against different sites. Empty path
  /// (the default) disables journaling.
  Campaign& journal(std::string path, std::uint64_t deployment_hash = 0) {
    journal_path_ = std::move(path);
    deployment_hash_ = deployment_hash;
    return *this;
  }
  /// Attempt to resume from an existing journal at the journal path;
  /// without it a pre-existing journal is overwritten.
  Campaign& resume(bool attempt = true) {
    resume_ = attempt;
    return *this;
  }
  /// Cooperative cancellation (SIGINT-safe shutdown): the flag is checked
  /// before each round starts, never mid-round, so the round in flight —
  /// and its journal append — always completes. The journal therefore
  /// stays a prefix a later --resume continues bit-identically. Null (the
  /// default) never cancels; the flag must outlive run().
  Campaign& cancel(const std::atomic<bool>* flag) {
    cancel_ = flag;
    return *this;
  }

  /// The fully-resolved spec for round r — the campaign's spacing and
  /// seeding policy in one place.
  RoundSpec spec_for(std::uint32_t r) const;

  /// Fingerprint of everything that determines results: probe config,
  /// round count, interval, threads, fault plan, deployment hash. The
  /// journal manifest stores it; resume refuses on mismatch.
  std::uint64_t fingerprint() const;

  /// Runs all rounds; out[r] is round r's result whatever the
  /// completion order. Ignores any journal refusal (use run_reported()
  /// when journaling).
  std::vector<RoundResult> run() const;

  /// Runs all rounds with full journal/resume reporting. When resume is
  /// refused (fingerprint mismatch, corruption) no rounds run and the
  /// report carries the refusal status with empty results.
  CampaignReport run_reported() const;

 private:
  const Verfploeter* verfploeter_;
  const bgp::RoutingTable* routes_;
  ProbeConfig base_;
  std::uint32_t rounds_ = 1;
  util::SimTime interval_ = util::SimTime::from_minutes(15);
  unsigned threads_ = 1;
  unsigned concurrency_ = 1;
  RoundObserver* observer_ = nullptr;
  const sim::FaultInjector* faults_ = nullptr;
  std::string journal_path_;
  std::uint64_t deployment_hash_ = 0;
  bool resume_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace vp::core
