#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>

#include "util/atomic_file.hpp"
#include "util/rng.hpp"

namespace vp::core {

namespace {

constexpr std::uint8_t kManifestType = 1;
constexpr std::uint8_t kRoundType = 2;
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kFrameHeader = 8;  // payload_len:u32 + crc:u32
constexpr std::size_t kMapRow = 9;       // block:u32 + site:u8 + rtt:f32

// ---- little-endian encode helpers -------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

// Chunked appends, not per-byte push_back: a round record is ~0.4 MB of
// these and the encode shows up in the journaling overhead bench.

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(b, sizeof b);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(b, sizeof b);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f32(std::string& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

// ---- bounds-checked decode cursor -------------------------------------

struct Cursor {
  const unsigned char* p;
  std::size_t left;
  bool ok = true;

  explicit Cursor(std::string_view bytes)
      : p(reinterpret_cast<const unsigned char*>(bytes.data())),
        left(bytes.size()) {}

  bool take(std::size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    const std::uint8_t v = p[0];
    ++p, --left;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    p += 4, left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    p += 8, left -= 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() { return std::bit_cast<float>(u32()); }
};

// ---- RoundResult <-> bytes --------------------------------------------

void encode_result(std::string& out, const RoundResult& result) {
  put_u32(out, result.map.measurement_id);
  put_u64(out, result.map.probes_sent);
  put_u64(out, result.map.blocks_probed);
  const CleaningStats& c = result.map.cleaning;
  for (const std::uint64_t v : {c.raw_replies, c.malformed, c.wrong_id,
                                c.unsolicited, c.duplicates, c.late, c.kept})
    put_u64(out, v);
  put_i64(out, result.started.usec);
  put_i64(out, result.probing_duration.usec);
  const sim::FaultStats& f = result.faults;
  for (const std::uint64_t v :
       {f.probes_lost, f.replies_generated, f.replies_lost, f.rate_limited,
        f.outage_drops, f.withdrawn, f.diverted, f.delayed, f.retries,
        f.recovered})
    put_u64(out, v);
  put_u32(out, static_cast<std::uint32_t>(result.raw_replies_per_site.size()));
  for (const std::uint64_t v : result.raw_replies_per_site) put_u64(out, v);
  // One (block, site, rtt) row per mapped block, strictly ascending by
  // block: the map iterates in that order, so the record bytes depend on
  // the result alone and never on a container's iteration order.
  out.reserve(out.size() + 4 + result.map.mapped_blocks() * kMapRow);
  put_u32(out, static_cast<std::uint32_t>(result.map.mapped_blocks()));
  for (const auto& [block, site] : result.map.entries()) {
    put_u32(out, block.index());
    put_u8(out, static_cast<std::uint8_t>(site));
    put_f32(out, result.map.rtt_of(block));
  }
}

bool decode_result(Cursor& in, RoundResult& result) {
  result.map.measurement_id = in.u32();
  result.map.probes_sent = in.u64();
  result.map.blocks_probed = in.u64();
  CleaningStats& c = result.map.cleaning;
  for (std::uint64_t* v : {&c.raw_replies, &c.malformed, &c.wrong_id,
                           &c.unsolicited, &c.duplicates, &c.late, &c.kept})
    *v = in.u64();
  result.started.usec = in.i64();
  result.probing_duration.usec = in.i64();
  sim::FaultStats& f = result.faults;
  for (std::uint64_t* v :
       {&f.probes_lost, &f.replies_generated, &f.replies_lost,
        &f.rate_limited, &f.outage_drops, &f.withdrawn, &f.diverted,
        &f.delayed, &f.retries, &f.recovered})
    *v = in.u64();
  const std::uint32_t sites = in.u32();
  if (!in.ok || sites > 1u << 16) return false;
  result.raw_replies_per_site.resize(sites);
  for (std::uint32_t s = 0; s < sites; ++s)
    result.raw_replies_per_site[s] = in.u64();
  // The map rows must be the exact rest of the record, strictly
  // ascending, with every site id inside the record's own site count —
  // consumers index the deployment's sites by it.
  const std::uint32_t mapped = in.u32();
  if (!in.ok || mapped > 1u << 24 || in.left != mapped * kMapRow) return false;
  if (mapped > 0) {
    // Rows are fixed-width, so the last block is known up front: size
    // the span once instead of regrowing it row by row.
    Cursor last{std::string_view{
        reinterpret_cast<const char*>(in.p) + (mapped - 1) * kMapRow, 4}};
    Cursor first{std::string_view{reinterpret_cast<const char*>(in.p), 4}};
    result.map.cover(net::Block24{first.u32()}, net::Block24{last.u32()});
  }
  std::uint64_t previous = 0;  // block index + 1 of the row before
  for (std::uint32_t i = 0; i < mapped; ++i) {
    const std::uint32_t index = in.u32();
    const std::uint8_t site = in.u8();
    const float rtt = in.f32();
    if (!in.ok || index > 0xffffff || index + std::uint64_t{1} <= previous ||
        site >= sites || site > std::numeric_limits<anycast::SiteId>::max()) {
      return false;
    }
    previous = index + std::uint64_t{1};
    result.map.set(net::Block24{index}, static_cast<anycast::SiteId>(site),
                   rtt);
  }
  return in.ok && in.left == 0;
}

// ---- POSIX write plumbing + the kill-point hook -----------------------

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Test-only crash hook: VP_JOURNAL_CRASH_AT=k makes the k-th frame write
/// of this process (1-based, the manifest counts) die mid-write with exit
/// code 86. The cut point cycles with k so a kill-at-every-write sweep
/// exercises all three crash positions: k%3==1 writes nothing (crash
/// before the append), k%3==2 writes half a frame (torn tail), k%3==0
/// writes the whole frame (crash after a durable append).
std::atomic<int> g_frame_writes{0};

int crash_at_frame() {
  static const int k = [] {
    const char* env = std::getenv("VP_JOURNAL_CRASH_AT");
    return env ? std::atoi(env) : 0;
  }();
  return k;
}

/// Test-only I/O-failure hook: VP_JOURNAL_FAIL_AT=k makes every frame
/// write from the k-th on (1-based, same counter as the crash hook)
/// report failure without touching the file — the signature of a journal
/// directory going unwritable (disk full, volume remounted read-only)
/// mid-campaign. Unlike the crash hook the process survives, so tests
/// can assert the failure is *surfaced* (exit code 6) rather than frames
/// being silently dropped.
int fail_at_frame() {
  static const int k = [] {
    const char* env = std::getenv("VP_JOURNAL_FAIL_AT");
    return env ? std::atoi(env) : 0;
  }();
  return k;
}

bool write_frame(int fd, std::string_view frame) {
  const int crash_k = crash_at_frame();
  const int fail_k = fail_at_frame();
  if (crash_k > 0 || fail_k > 0) {
    const int n = ++g_frame_writes;
    if (n == crash_k) {
      std::size_t cut = frame.size();
      if (crash_k % 3 == 1) cut = 0;
      if (crash_k % 3 == 2) cut = frame.size() / 2;
      write_all(fd, frame.data(), cut);
      ::fsync(fd);
      ::_exit(86);
    }
    if (fail_k > 0 && n >= fail_k) return false;
  }
  return write_all(fd, frame.data(), frame.size()) && ::fsync(fd) == 0;
}

// ---- journal parsing ---------------------------------------------------

struct Parsed {
  JournalStatus status = JournalStatus::kCorrupt;
  std::map<std::uint32_t, RoundResult> completed;
  std::uint64_t valid_bytes = 0;
};

/// Walks the frame sequence. A short frame at the tail is a torn append
/// (truncate there); a complete frame with a bad CRC or an undecodable
/// payload is corruption (refuse).
Parsed parse_journal(std::string_view data, const JournalManifest& expect) {
  Parsed out;
  std::size_t pos = 0;
  bool saw_manifest = false;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) break;  // torn header
    Cursor header{data.substr(pos, kFrameHeader)};
    const std::uint32_t len = header.u32();
    const std::uint32_t crc = header.u32();
    if (data.size() - pos - kFrameHeader < len) break;  // torn payload
    const std::string_view payload = data.substr(pos + kFrameHeader, len);
    if (util::crc32(payload) != crc) {
      out.status = JournalStatus::kCorrupt;
      return out;
    }
    Cursor in{payload};
    const std::uint8_t type = in.u8();
    if (!saw_manifest) {
      if (type != kManifestType || in.u32() != kFormatVersion) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      const std::uint64_t fingerprint = in.u64();
      const std::uint32_t rounds = in.u32();
      if (!in.ok || in.left != 0) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      if (fingerprint != expect.fingerprint || rounds != expect.rounds) {
        out.status = JournalStatus::kFingerprintMismatch;
        return out;
      }
      saw_manifest = true;
    } else {
      if (type != kRoundType) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      const std::uint32_t round = in.u32();
      RoundResult result;
      if (!in.ok || round >= expect.rounds || !decode_result(in, result)) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      // Duplicates can only be bit-identical re-appends (results are
      // deterministic); first wins.
      out.completed.emplace(round, std::move(result));
    }
    pos += kFrameHeader + len;
  }
  // A torn (or absent) manifest means no usable state: start fresh.
  out.status = saw_manifest ? JournalStatus::kResumed : JournalStatus::kFresh;
  out.valid_bytes = pos;
  return out;
}

}  // namespace

const char* to_string(JournalStatus status) {
  switch (status) {
    case JournalStatus::kDisabled: return "disabled";
    case JournalStatus::kFresh: return "fresh";
    case JournalStatus::kResumed: return "resumed";
    case JournalStatus::kFingerprintMismatch: return "fingerprint-mismatch";
    case JournalStatus::kCorrupt: return "corrupt";
    case JournalStatus::kIoError: return "io-error";
  }
  return "unknown";
}

std::string CampaignJournal::frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeader + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, util::crc32(payload));
  out.append(payload);
  return out;
}

std::string CampaignJournal::encode_manifest(const JournalManifest& manifest) {
  std::string payload;
  put_u8(payload, kManifestType);
  put_u32(payload, kFormatVersion);
  put_u64(payload, manifest.fingerprint);
  put_u32(payload, manifest.rounds);
  return payload;
}

std::string CampaignJournal::encode_round(std::uint32_t round,
                                          const RoundResult& result) {
  std::string payload;
  put_u8(payload, kRoundType);
  put_u32(payload, round);
  encode_result(payload, result);
  return payload;
}

CampaignJournal::OpenResult CampaignJournal::open(
    const std::string& path, const JournalManifest& manifest, bool resume) {
  close();
  OpenResult out;
  if (resume) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      const std::string data{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
      Parsed parsed = parse_journal(data, manifest);
      if (parsed.status == JournalStatus::kFingerprintMismatch ||
          parsed.status == JournalStatus::kCorrupt) {
        out.status = parsed.status;  // refuse; file left untouched
        return out;
      }
      if (parsed.status == JournalStatus::kResumed) {
        if (parsed.valid_bytes < data.size() &&
            ::truncate(path.c_str(),
                       static_cast<off_t>(parsed.valid_bytes)) != 0) {
          out.status = JournalStatus::kIoError;
          return out;
        }
        fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
        if (fd_ < 0) {
          out.status = JournalStatus::kIoError;
          return out;
        }
        out.status = JournalStatus::kResumed;
        out.completed = std::move(parsed.completed);
        out.truncated_bytes = data.size() - parsed.valid_bytes;
        auto& registry = obs::metrics();
        registry.counter("vp_journal_rounds_loaded_total")
            .add(out.completed.size());
        registry.counter("vp_journal_truncated_bytes_total")
            .add(out.truncated_bytes);
        return out;
      }
      // kFresh: file exists but holds no usable manifest — recreate below.
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd_ < 0) {
    out.status = JournalStatus::kIoError;
    return out;
  }
  if (!write_frame(fd_, frame(encode_manifest(manifest)))) {
    close();
    out.status = JournalStatus::kIoError;
    return out;
  }
  out.status = JournalStatus::kFresh;
  return out;
}

bool CampaignJournal::append_round(std::uint32_t round,
                                   const RoundResult& result) {
  if (fd_ < 0) return false;
  // The append span covers serialize + CRC + write + fsync — the whole
  // durability tax bench_journal prices (EXPERIMENTS.md: < 5% of a
  // round); the histogram makes it visible on live campaigns too.
  auto& registry = obs::metrics();
  obs::Span span{&registry.histogram("vp_journal_append_ms",
                                     obs::latency_buckets_ms())};
  const std::string framed = frame(encode_round(round, result));
  if (!write_frame(fd_, framed)) {
    close();  // fail fast: never append past a hole
    return false;
  }
  registry.counter("vp_journal_appends_total").add();
  registry.counter("vp_journal_bytes_total").add(framed.size());
  return true;
}

void CampaignJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t probe_fingerprint(const ProbeConfig& probe) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t f = 0x70726f6265ULL;  // "probe"
  f = util::hash_combine(f, probe.measurement_id);
  f = util::hash_combine(f, bits(probe.rate_pps));
  f = util::hash_combine(f, bits(probe.late_cutoff_minutes));
  f = util::hash_combine(f, probe.order_seed);
  f = util::hash_combine(f,
                         static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(
                                 probe.extra_targets_per_block)));
  f = util::hash_combine(
      f, static_cast<std::uint64_t>(
             static_cast<std::int64_t>(probe.max_retries)));
  f = util::hash_combine(f, bits(probe.probe_timeout_ms));
  f = util::hash_combine(f, bits(probe.retry_backoff_ms));
  f = util::hash_combine(f, bits(probe.retry_backoff_factor));
  return f;
}

std::uint64_t fault_fingerprint(const sim::FaultInjector* faults) {
  if (faults == nullptr) return 0;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const sim::FaultPlan& plan = faults->plan();
  std::uint64_t f = 0x6661756c74ULL;  // "fault"
  f = util::hash_combine(f, plan.seed);
  for (const double rate :
       {plan.probe_loss_rate, plan.reply_loss_rate, plan.site_outage_rate,
        plan.outage_slice_minutes, plan.rate_limit_site_rate,
        plan.rate_limit_drop_rate, plan.churn_rate,
        plan.churn_withdraw_fraction, plan.delay_spike_rate,
        plan.delay_spike_mean_ms})
    f = util::hash_combine(f, bits(rate));
  return f;
}

}  // namespace vp::core
