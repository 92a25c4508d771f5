// In-process tests for the campaign journal: round-trips, torn-tail
// recovery, bit-flip detection, fingerprint refusal, and the journaled
// Campaign resume path (including concurrency > 1). The out-of-process
// kill-point harness lives in crash_recovery_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "util/atomic_file.hpp"

namespace vp::core {
namespace {

std::string temp_path(const char* tag) {
  return "/tmp/vp_journal_test_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

/// A small synthetic result with every field populated, so round-trip
/// equality exercises the whole encoding.
RoundResult synthetic_round(std::uint32_t r) {
  RoundResult result;
  result.map.measurement_id = 100 + r;
  result.map.probes_sent = 1000 + r;
  result.map.blocks_probed = 990;
  result.map.cleaning = {900 + r, 1, 2, 3, 4, 5, 880};
  result.map.set(net::Block24{0x010200 + r}, 0, 12.5f + r);
  result.map.set(net::Block24{0x020300 + r}, 1);
  result.raw_replies_per_site = {400 + r, 500};
  result.started = util::SimTime::from_minutes(15.0 * r);
  result.probing_duration = util::SimTime::from_seconds(8.0);
  result.faults.probes_lost = 7 + r;
  result.faults.retries = 3;
  return result;
}

void expect_equal(const RoundResult& a, const RoundResult& b) {
  EXPECT_EQ(a.map.measurement_id, b.map.measurement_id);
  EXPECT_EQ(a.map.probes_sent, b.map.probes_sent);
  EXPECT_EQ(a.map.blocks_probed, b.map.blocks_probed);
  EXPECT_EQ(a.map.cleaning.raw_replies, b.map.cleaning.raw_replies);
  EXPECT_EQ(a.map.cleaning.kept, b.map.cleaning.kept);
  EXPECT_EQ(a.map.entries(), b.map.entries());
  for (const auto& [block, site] : a.map.entries())
    EXPECT_EQ(b.map.rtt_of(block), a.map.rtt_of(block));
  EXPECT_EQ(a.raw_replies_per_site, b.raw_replies_per_site);
  EXPECT_EQ(a.started.usec, b.started.usec);
  EXPECT_EQ(a.probing_duration.usec, b.probing_duration.usec);
  EXPECT_EQ(a.faults.probes_lost, b.faults.probes_lost);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
}

const JournalManifest kManifest{0xfeedbeefcafe1234ull, 6};

std::string journal_with_rounds(const std::string& path,
                                std::uint32_t count) {
  CampaignJournal journal;
  const auto opened = journal.open(path, kManifest, false);
  EXPECT_EQ(opened.status, JournalStatus::kFresh);
  for (std::uint32_t r = 0; r < count; ++r)
    EXPECT_TRUE(journal.append_round(r, synthetic_round(r)));
  journal.close();
  return read_file(path);
}

TEST(Journal, RoundTripsAllFields) {
  const std::string path = temp_path("roundtrip");
  journal_with_rounds(path, 3);
  CampaignJournal journal;
  const auto opened = journal.open(path, kManifest, true);
  ASSERT_EQ(opened.status, JournalStatus::kResumed);
  EXPECT_EQ(opened.truncated_bytes, 0u);
  ASSERT_EQ(opened.completed.size(), 3u);
  for (std::uint32_t r = 0; r < 3; ++r)
    expect_equal(opened.completed.at(r), synthetic_round(r));
  // The reopened journal accepts further appends.
  EXPECT_TRUE(journal.append_round(3, synthetic_round(3)));
  journal.close();
  CampaignJournal again;
  EXPECT_EQ(again.open(path, kManifest, true).completed.size(), 4u);
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedAndRecovers) {
  const std::string path = temp_path("torn");
  const std::string full = journal_with_rounds(path, 3);
  const std::string two = journal_with_rounds(path, 2);
  // Every proper prefix that still contains two whole rounds must
  // recover exactly those two and truncate the rest.
  for (std::size_t keep = two.size(); keep < full.size(); ++keep) {
    write_file(path, full.substr(0, keep));
    CampaignJournal journal;
    const auto opened = journal.open(path, kManifest, true);
    ASSERT_EQ(opened.status, JournalStatus::kResumed) << "keep " << keep;
    EXPECT_EQ(opened.completed.size(), 2u) << "keep " << keep;
    EXPECT_EQ(opened.truncated_bytes, keep - two.size());
    journal.close();
    EXPECT_EQ(read_file(path).size(), two.size());
  }
  std::remove(path.c_str());
}

TEST(Journal, TornManifestStartsFresh) {
  const std::string path = temp_path("tornmanifest");
  const std::string full = journal_with_rounds(path, 1);
  // Anything shorter than the whole manifest frame is "no usable state".
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}}) {
    write_file(path, full.substr(0, keep));
    CampaignJournal journal;
    EXPECT_EQ(journal.open(path, kManifest, true).status,
              JournalStatus::kFresh);
    journal.close();
  }
  std::remove(path.c_str());
}

TEST(Journal, EmptyFileResumesExactlyLikeMissing) {
  // The explicit 0-byte == missing contract: an empty journal is the
  // fingerprint of a crash before the manifest write, so a resume finds
  // no state to validate, reports kFresh, and recreates the file —
  // byte-for-byte the same outcome as resuming a path that never existed.
  const std::string missing = temp_path("missing");
  const std::string empty = temp_path("empty");
  std::remove(missing.c_str());
  write_file(empty, "");
  ASSERT_EQ(read_file(empty).size(), 0u);

  std::string contents[2];
  int i = 0;
  for (const std::string& path : {missing, empty}) {
    CampaignJournal journal;
    const auto opened = journal.open(path, kManifest, true);
    EXPECT_EQ(opened.status, JournalStatus::kFresh) << path;
    EXPECT_TRUE(opened.completed.empty()) << path;
    EXPECT_EQ(opened.truncated_bytes, 0u) << path;
    // The recreated journal accepts appends like any fresh one.
    EXPECT_TRUE(journal.append_round(0, synthetic_round(0))) << path;
    journal.close();
    contents[i++] = read_file(path);
  }
  EXPECT_FALSE(contents[0].empty());
  EXPECT_EQ(contents[0], contents[1]);
  std::remove(missing.c_str());
  std::remove(empty.c_str());
}

TEST(Journal, BitFlipInRecordBodyIsRejected) {
  const std::string path = temp_path("bitflip");
  const std::string full = journal_with_rounds(path, 3);
  const std::string manifest_only = journal_with_rounds(path, 0);
  // Flip one bit in the middle of the second round record's body.
  std::string flipped = full;
  const std::size_t target =
      manifest_only.size() + (full.size() - manifest_only.size()) / 2;
  flipped[target] = static_cast<char>(flipped[target] ^ 0x10);
  write_file(path, flipped);
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  EXPECT_FALSE(journal.is_open());
  // Refusal must leave the file untouched (no truncation, no rewrite).
  EXPECT_EQ(read_file(path), flipped);
  std::remove(path.c_str());
}

TEST(Journal, BitFlipInManifestIsRejected) {
  const std::string path = temp_path("manifestflip");
  std::string data = journal_with_rounds(path, 1);
  data[10] = static_cast<char>(data[10] ^ 0x01);  // inside manifest payload
  write_file(path, data);
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  std::remove(path.c_str());
}

TEST(Journal, FingerprintMismatchRefuses) {
  const std::string path = temp_path("mismatch");
  journal_with_rounds(path, 2);
  CampaignJournal journal;
  JournalManifest other = kManifest;
  other.fingerprint ^= 1;
  EXPECT_EQ(journal.open(path, other, true).status,
            JournalStatus::kFingerprintMismatch);
  JournalManifest fewer_rounds = kManifest;
  fewer_rounds.rounds = 4;
  EXPECT_EQ(journal.open(path, fewer_rounds, true).status,
            JournalStatus::kFingerprintMismatch);
  std::remove(path.c_str());
}

TEST(Journal, RoundIdBeyondManifestIsCorrupt) {
  const std::string path = temp_path("badround");
  {
    CampaignJournal journal;
    ASSERT_EQ(journal.open(path, kManifest, false).status,
              JournalStatus::kFresh);
    ASSERT_TRUE(journal.append_round(kManifest.rounds, synthetic_round(0)));
  }
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  std::remove(path.c_str());
}

// ---- record format v2: map rows ---------------------------------------
//
// A round record ends with u32 row count, then (block u32, site u8,
// rtt f32) rows strictly ascending by block. The cases below rewrite
// those rows in an honestly encoded record and re-frame it, so the CRC
// is valid and only the decoder's own checks stand between the bytes and
// the consumers that index deployment.sites by the site id.

constexpr std::size_t kRow = 9;

/// Status of resuming a journal whose one round record is `payload`.
JournalStatus resume_status(const char* tag, const std::string& payload) {
  const std::string path = temp_path(tag);
  const std::string data =
      CampaignJournal::frame(CampaignJournal::encode_manifest(kManifest)) +
      CampaignJournal::frame(payload);
  write_file(path, data);
  CampaignJournal journal;
  const JournalStatus status = journal.open(path, kManifest, true).status;
  journal.close();
  // A refusal leaves the file as it was.
  if (status == JournalStatus::kCorrupt) {
    EXPECT_EQ(read_file(path), data);
  }
  std::remove(path.c_str());
  return status;
}

/// synthetic_round(0)'s record, whose two rows (sites 0 and 1 of the
/// record's 2) are its last 2 * kRow bytes.
std::string two_row_record() {
  return CampaignJournal::encode_round(0, synthetic_round(0));
}

TEST(Journal, V2RecordRowsAreAscendingWithRtts) {
  const std::string payload = two_row_record();
  ASSERT_EQ(resume_status("v2ok", payload), JournalStatus::kResumed);
  const std::string rows = payload.substr(payload.size() - 2 * kRow);
  // Block 0x010200 (site 0, 12.5 ms) before block 0x020300 (site 1).
  EXPECT_EQ(rows.substr(0, 5), std::string("\x00\x02\x01\x00\x00", 5));
  EXPECT_EQ(rows.substr(kRow, 5), std::string("\x00\x03\x02\x00\x01", 5));
  float rtt = 0.0f;
  std::memcpy(&rtt, rows.data() + 5, sizeof rtt);
  EXPECT_EQ(rtt, 12.5f);
}

TEST(Journal, SiteIdBeyondTheRecordsSiteCountIsCorrupt) {
  std::string payload = two_row_record();
  payload[payload.size() - kRow + 4] = 2;  // the record has 2 sites
  EXPECT_EQ(resume_status("badsite", payload), JournalStatus::kCorrupt);
}

TEST(Journal, DescendingRowsAreCorrupt) {
  std::string payload = two_row_record();
  const std::size_t rows = payload.size() - 2 * kRow;
  const std::string first = payload.substr(rows, kRow);
  payload.replace(rows, kRow, payload.substr(rows + kRow, kRow));
  payload.replace(rows + kRow, kRow, first);
  EXPECT_EQ(resume_status("descending", payload), JournalStatus::kCorrupt);
}

TEST(Journal, DuplicateBlockRowsAreCorrupt) {
  std::string payload = two_row_record();
  const std::size_t rows = payload.size() - 2 * kRow;
  payload.replace(rows + kRow, 4, payload.substr(rows, 4));  // same block
  EXPECT_EQ(resume_status("duplicate", payload), JournalStatus::kCorrupt);
}

TEST(Journal, VersionOneJournalIsRefused) {
  // The manifest's version field (bytes 1-4 of its payload) gates the
  // record format: a v1 journal — map and RTT sections in hash order —
  // is refused as a whole rather than misread as v2 rows.
  std::string manifest = CampaignJournal::encode_manifest(kManifest);
  ASSERT_EQ(manifest[1], 2);
  manifest[1] = 1;
  const std::string path = temp_path("v1");
  const std::string data = CampaignJournal::frame(manifest) +
                           CampaignJournal::frame(two_row_record());
  write_file(path, data);
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  EXPECT_FALSE(journal.is_open());
  EXPECT_EQ(read_file(path), data);
  std::remove(path.c_str());
}

TEST(Journal, WithoutResumeOverwrites) {
  const std::string path = temp_path("overwrite");
  journal_with_rounds(path, 3);
  CampaignJournal journal;
  const auto opened = journal.open(path, kManifest, false);
  EXPECT_EQ(opened.status, JournalStatus::kFresh);
  EXPECT_TRUE(opened.completed.empty());
  journal.close();
  CampaignJournal again;
  EXPECT_TRUE(again.open(path, kManifest, true).completed.empty());
  std::remove(path.c_str());
}

// ---- Campaign integration: journal + resume against a real scenario ----

class JournaledCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 7;
    config.scale = 0.03;
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
  }
  static void TearDownTestSuite() {
    routes_.reset();
    delete scenario_;
  }

  static Campaign make_campaign() {
    ProbeConfig probe;
    probe.measurement_id = 300;
    Campaign campaign{scenario_->verfploeter(), *routes_};
    campaign.probe(probe).rounds(4).journal(
        temp_path("campaign"), anycast::fingerprint(scenario_->broot()));
    return campaign;
  }

  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
};

analysis::Scenario* JournaledCampaignTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> JournaledCampaignTest::routes_;

TEST_F(JournaledCampaignTest, ResumeSkipsJournaledRoundsBitIdentically) {
  const std::string path = temp_path("campaign");
  auto fresh = make_campaign().run_reported();
  EXPECT_EQ(fresh.journal, JournalStatus::kFresh);
  EXPECT_EQ(fresh.rounds_executed, 4u);

  // Resume with nothing missing: all four rounds load, none run.
  auto resumed = make_campaign().resume().run_reported();
  EXPECT_EQ(resumed.journal, JournalStatus::kResumed);
  EXPECT_EQ(resumed.rounds_loaded, 4u);
  EXPECT_EQ(resumed.rounds_executed, 0u);
  ASSERT_EQ(resumed.results.size(), fresh.results.size());
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(resumed.results[r], fresh.results[r]);

  // Chop the journal down to two rounds: resume re-runs the missing two
  // and the merged results still match the uninterrupted run.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - (full.size() / 3)));
  auto partial = make_campaign().resume().run_reported();
  EXPECT_EQ(partial.journal, JournalStatus::kResumed);
  EXPECT_GT(partial.rounds_executed, 0u);
  EXPECT_LT(partial.rounds_executed, 4u);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(partial.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, ConcurrentResumeMatchesSequential) {
  const std::string path = temp_path("campaign");
  auto fresh = make_campaign().run_reported();
  // Truncate to force a partial resume, then run it with overlapping
  // rounds: the journaled-set logic must cope with out-of-order
  // completion and still reproduce the sequential results.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() / 2));
  auto concurrent = make_campaign().resume().concurrency(2).run_reported();
  EXPECT_EQ(concurrent.journal, JournalStatus::kResumed);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(concurrent.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, PreSetCancelFlagRunsNothing) {
  const std::string path = temp_path("campaign");
  std::atomic<bool> flag{true};
  auto campaign = make_campaign();
  auto cancelled = campaign.cancel(&flag).run_reported();
  EXPECT_TRUE(cancelled.interrupted);
  EXPECT_EQ(cancelled.journal, JournalStatus::kFresh);
  for (const RoundResult& result : cancelled.results)
    EXPECT_EQ(result.map.blocks_probed, 0u);
  // The manifest-only journal is a valid (empty) prefix: a later resume
  // finishes the campaign as if nothing had happened.
  auto finished = make_campaign().resume().run_reported();
  EXPECT_FALSE(finished.interrupted);
  EXPECT_EQ(finished.journal, JournalStatus::kResumed);
  EXPECT_EQ(finished.rounds_loaded, 0u);
  EXPECT_EQ(finished.rounds_executed, 4u);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, CancelMidRunLeavesResumablePrefix) {
  const std::string path = temp_path("campaign");
  const auto fresh = make_campaign().run_reported();
  std::remove(path.c_str());

  // Cancel as soon as the first round completes: the in-flight round and
  // its journal append finish, later rounds never start.
  std::atomic<bool> flag{false};
  struct CancelAfterFirst : RoundObserver {
    std::atomic<bool>* flag;
    void on_round_complete(const RoundSpec&, const RoundResult&) override {
      flag->store(true, std::memory_order_relaxed);
    }
  } observer;
  observer.flag = &flag;
  auto campaign = make_campaign();
  const auto cancelled =
      campaign.cancel(&flag).observe(observer).run_reported();
  EXPECT_TRUE(cancelled.interrupted);
  ASSERT_EQ(cancelled.results.size(), 4u);
  expect_equal(cancelled.results[0], fresh.results[0]);
  EXPECT_EQ(cancelled.results[1].map.blocks_probed, 0u);

  // The journal holds exactly the completed prefix; resuming it finishes
  // the campaign bit-identically to the uninterrupted run.
  const auto resumed = make_campaign().resume().run_reported();
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.journal, JournalStatus::kResumed);
  EXPECT_EQ(resumed.rounds_loaded, 1u);
  EXPECT_EQ(resumed.rounds_executed, 3u);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(resumed.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, ChangedConfigRefusesResume) {
  const std::string path = temp_path("campaign");
  make_campaign().run_reported();
  auto refused = make_campaign().threads(2).resume().run_reported();
  EXPECT_EQ(refused.journal, JournalStatus::kFingerprintMismatch);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.results.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vp::core
