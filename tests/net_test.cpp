#include <gtest/gtest.h>

#include <vector>

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/prefix_trie.hpp"
#include "util/rng.hpp"

namespace vp::net {
namespace {

// --- addresses -------------------------------------------------------------

TEST(Ipv4Address, ParseAndPrintRoundTrip) {
  const auto addr = Ipv4Address::parse("192.168.1.200");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "192.168.1.200");
  EXPECT_EQ(addr->octet(0), 192);
  EXPECT_EQ(addr->octet(3), 200);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1"));
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 "));
  EXPECT_FALSE(Ipv4Address::parse("-1.2.3.4"));
}

TEST(Ipv4Address, ConstructionFromOctets) {
  constexpr Ipv4Address addr{10, 0, 0, 1};
  static_assert(addr.value() == 0x0a000001u);
  EXPECT_EQ(addr.to_string(), "10.0.0.1");
}

// --- prefixes ---------------------------------------------------------------

TEST(Prefix, NormalizesHostBits) {
  const Prefix p{Ipv4Address{192, 168, 1, 200}, 24};
  EXPECT_EQ(p.base().to_string(), "192.168.1.0");
  EXPECT_EQ(p.to_string(), "192.168.1.0/24");
}

TEST(Prefix, ContainsAddress) {
  const auto p = Prefix::parse("10.20.0.0/16");
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->contains(*Ipv4Address::parse("10.20.255.255")));
  EXPECT_FALSE(p->contains(*Ipv4Address::parse("10.21.0.0")));
}

TEST(Prefix, ContainsPrefix) {
  const auto outer = Prefix::parse("10.0.0.0/8");
  const auto inner = Prefix::parse("10.99.0.0/16");
  ASSERT_TRUE(outer && inner);
  EXPECT_TRUE(outer->contains(*inner));
  EXPECT_FALSE(inner->contains(*outer));
}

TEST(Prefix, ZeroLengthContainsEverything) {
  const Prefix all{Ipv4Address{0}, 0};
  EXPECT_TRUE(all.contains(Ipv4Address{0xffffffff}));
  EXPECT_EQ(all.size(), 1ull << 32);
}

TEST(Prefix, SizesAndBlockCounts) {
  EXPECT_EQ(Prefix::parse("1.0.0.0/24")->block24_count(), 1u);
  EXPECT_EQ(Prefix::parse("1.0.0.0/16")->block24_count(), 256u);
  EXPECT_EQ(Prefix::parse("1.0.0.0/25")->block24_count(), 0u);
  EXPECT_EQ(Prefix::parse("1.0.0.0/30")->size(), 4u);
}

TEST(Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix::parse("1.2.3.4"));
  EXPECT_FALSE(Prefix::parse("1.2.3.4/33"));
  EXPECT_FALSE(Prefix::parse("1.2.3/24"));
  EXPECT_FALSE(Prefix::parse("1.2.3.4/-1"));
}

TEST(Block24, RoundTripsThroughAddress) {
  const Block24 block{0x010203};
  EXPECT_EQ(block.base_address().to_string(), "1.2.3.0");
  EXPECT_EQ(block.address(77).to_string(), "1.2.3.77");
  EXPECT_EQ(Block24::containing(block.address(255)), block);
  EXPECT_EQ(block.prefix().to_string(), "1.2.3.0/24");
}

// --- checksum ----------------------------------------------------------------

TEST(Checksum, KnownVector) {
  // RFC 1071 worked example: 0x0001, 0xf203, 0xf4f5, 0xf6f7.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03,
                                       0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0xffff - (0xddf2));
}

TEST(Checksum, ValidatesToZero) {
  // A buffer with its checksum appended sums to zero.
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x1c, 0xbe, 0xef};
  const std::uint16_t sum = internet_checksum(data);
  data.push_back(static_cast<std::uint8_t>(sum >> 8));
  data.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Checksum, OddLengthHandled) {
  const std::vector<std::uint8_t> data{0xab};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xab00));
}

TEST(Checksum, AccumulatorMatchesSingleShot) {
  util::Rng rng{3};
  std::vector<std::uint8_t> data(301);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  // Split at an odd boundary to exercise the straddling-byte path.
  ChecksumAccumulator acc;
  acc.add(std::span<const std::uint8_t>{data.data(), 151});
  acc.add(std::span<const std::uint8_t>{data.data() + 151, 150});
  EXPECT_EQ(acc.finish(), internet_checksum(data));
}

// --- packets ------------------------------------------------------------------

ProbePayload test_payload() {
  ProbePayload p;
  p.measurement_id = 0xdeadbeef;
  p.tx_time_usec = 123456789;
  p.original_target = Ipv4Address{1, 2, 3, 4};
  return p;
}

std::vector<std::uint8_t> echo_request(Ipv4Address source,
                                       Ipv4Address destination,
                                       std::uint16_t identifier,
                                       std::uint16_t sequence,
                                       const ProbePayload& payload) {
  std::vector<std::uint8_t> bytes;
  build_echo_request_into(bytes, source, destination, identifier, sequence,
                          payload);
  return bytes;
}

/// The reply a host at `reply_source` sends to `request`, which must be a
/// well-formed echo request.
std::vector<std::uint8_t> echo_reply(std::span<const std::uint8_t> request,
                                     Ipv4Address reply_source) {
  const auto packet = parse_icmp_packet_view(request);
  EXPECT_TRUE(packet);
  std::vector<std::uint8_t> bytes;
  if (packet)
    build_echo_reply_into(bytes, packet->ip, packet->icmp, reply_source);
  return bytes;
}

TEST(Packet, EchoRequestRoundTrip) {
  const auto pkt = echo_request(Ipv4Address{192, 0, 2, 1},
                                Ipv4Address{1, 2, 3, 4}, 42, 7,
                                test_payload());
  const auto ip = Ipv4Header::parse(pkt);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->source, (Ipv4Address{192, 0, 2, 1}));
  EXPECT_EQ(ip->destination, (Ipv4Address{1, 2, 3, 4}));
  EXPECT_EQ(ip->protocol, IpProtocol::kIcmp);
  EXPECT_EQ(ip->total_length, pkt.size());

  const auto icmp = parse_icmp_echo_view(
      std::span<const std::uint8_t>{pkt}.subspan(Ipv4Header::kSize));
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, IcmpType::kEchoRequest);
  EXPECT_EQ(icmp->identifier, 42);
  EXPECT_EQ(icmp->sequence, 7);

  const auto payload = ProbePayload::parse(icmp->payload);
  ASSERT_TRUE(payload);
  EXPECT_EQ(payload->measurement_id, 0xdeadbeefu);
  EXPECT_EQ(payload->tx_time_usec, 123456789);
  EXPECT_EQ(payload->original_target, (Ipv4Address{1, 2, 3, 4}));
}

TEST(Packet, BuildersReuseTheirBuffer) {
  // The *_into builders clear the buffer first, so a reused buffer holds
  // exactly the newest packet.
  std::vector<std::uint8_t> bytes(100, 0xab);
  build_echo_request_into(bytes, Ipv4Address{192, 0, 2, 1},
                          Ipv4Address{1, 2, 3, 4}, 42, 7, test_payload());
  EXPECT_EQ(bytes, echo_request(Ipv4Address{192, 0, 2, 1},
                                Ipv4Address{1, 2, 3, 4}, 42, 7,
                                test_payload()));
}

TEST(Packet, ReplyEchoesPayloadAndSwapsAddresses) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  const auto reply = echo_reply(request, Ipv4Address{1, 2, 3, 9});

  // Everything a collector records per reply: who answered, which
  // measurement it belongs to, when the probe left, whom it was sent to.
  const auto parsed = parse_reply_view(reply);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ip.source, (Ipv4Address{1, 2, 3, 9}));
  EXPECT_EQ(parsed->ip.destination, (Ipv4Address{192, 0, 2, 1}));
  EXPECT_EQ(parsed->icmp.type, IcmpType::kEchoReply);
  EXPECT_EQ(parsed->probe.measurement_id, 0xdeadbeefu);
  EXPECT_EQ(parsed->probe.tx_time_usec, 123456789);
  EXPECT_EQ(parsed->probe.original_target, (Ipv4Address{1, 2, 3, 4}));
}

TEST(Packet, ParseReplyRejectsRequests) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  EXPECT_FALSE(parse_reply_view(request));
}

TEST(Packet, ParseReplyRejectsGarbage) {
  // Stray traffic at a collector: bytes that are no IPv4 packet at all.
  const std::vector<std::uint8_t> garbage{0x01, 0x02, 0x03};
  EXPECT_FALSE(parse_reply_view(garbage));
  EXPECT_FALSE(parse_reply_view(std::span<const std::uint8_t>{}));
}

TEST(Packet, ParseRejectsTruncation) {
  const auto pkt = echo_request(Ipv4Address{192, 0, 2, 1},
                                Ipv4Address{1, 2, 3, 4}, 1, 2,
                                test_payload());
  for (std::size_t len = 0; len < pkt.size(); len += 3) {
    EXPECT_FALSE(
        parse_reply_view(std::span<const std::uint8_t>{pkt.data(), len}))
        << "accepted truncated packet of " << len << " bytes";
  }
}

TEST(Packet, SingleBitCorruptionIsDetected) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  const auto good = echo_reply(request, Ipv4Address{1, 2, 3, 4});
  ASSERT_TRUE(parse_reply_view(good));
  // Flip every byte (one at a time); the checksums must catch each one
  // except bits that only affect fields parse doesn't validate.
  int accepted = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    if (parse_reply_view(bad)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Packet, ChecksumFieldsAreValid) {
  const auto pkt = echo_request(Ipv4Address{203, 0, 113, 7},
                                Ipv4Address{9, 9, 9, 9}, 3, 4,
                                test_payload());
  // IPv4 header checksum validates to zero over the header.
  EXPECT_EQ(internet_checksum(
                std::span<const std::uint8_t>{pkt.data(), Ipv4Header::kSize}),
            0);
  // ICMP checksum validates to zero over the ICMP part.
  EXPECT_EQ(internet_checksum(
                std::span<const std::uint8_t>{pkt}.subspan(Ipv4Header::kSize)),
            0);
}

// --- prefix trie -------------------------------------------------------------

TEST(PrefixTrie, LongestMatchWins) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);

  const auto hit = trie.lookup(*Ipv4Address::parse("10.1.2.3"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->second, 24);
  EXPECT_EQ(trie.lookup(*Ipv4Address::parse("10.1.9.9"))->second, 16);
  EXPECT_EQ(trie.lookup(*Ipv4Address::parse("10.9.9.9"))->second, 8);
  EXPECT_FALSE(trie.lookup(*Ipv4Address::parse("11.0.0.1")));
}

TEST(PrefixTrie, InsertReplaceSemantics) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(*Prefix::parse("1.2.3.0/24"), 1));
  EXPECT_FALSE(trie.insert(*Prefix::parse("1.2.3.0/24"), 2));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(*Ipv4Address::parse("1.2.3.4"))->second, 2);
}

TEST(PrefixTrie, ExactFind) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("5.0.0.0/8"), 5);
  EXPECT_NE(trie.find(*Prefix::parse("5.0.0.0/8")), nullptr);
  EXPECT_EQ(trie.find(*Prefix::parse("5.0.0.0/9")), nullptr);
}

TEST(PrefixTrie, DefaultRouteMatchesAll) {
  PrefixTrie<int> trie;
  trie.insert(Prefix{Ipv4Address{0}, 0}, -1);
  EXPECT_EQ(trie.lookup(Ipv4Address{0xdeadbeef})->second, -1);
}

TEST(PrefixTrie, ForEachVisitsAllInOrder) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("2.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("1.0.0.0/8"), 2);
  trie.insert(*Prefix::parse("1.128.0.0/9"), 3);
  std::vector<std::string> seen;
  trie.for_each([&](Prefix p, int) { seen.push_back(p.to_string()); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "1.0.0.0/8");
  EXPECT_EQ(seen[1], "1.128.0.0/9");
  EXPECT_EQ(seen[2], "2.0.0.0/8");
}

/// Property sweep: trie lookups agree with brute-force longest match over
/// random prefix sets.
class PrefixTrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTrieProperty, AgreesWithBruteForce) {
  util::Rng rng{GetParam()};
  PrefixTrie<std::size_t> trie;
  std::vector<Prefix> prefixes;
  for (int i = 0; i < 200; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.range(4, 28));
    const Prefix p{Ipv4Address{static_cast<std::uint32_t>(rng())}, length};
    if (trie.insert(p, prefixes.size())) prefixes.push_back(p);
  }
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address addr{static_cast<std::uint32_t>(rng())};
    // Brute force: most specific containing prefix.
    const Prefix* expected = nullptr;
    for (const Prefix& p : prefixes) {
      if (p.contains(addr) &&
          (expected == nullptr || p.length() > expected->length())) {
        expected = &p;
      }
    }
    const auto actual = trie.lookup(addr);
    if (expected == nullptr) {
      EXPECT_FALSE(actual);
    } else {
      ASSERT_TRUE(actual);
      EXPECT_EQ(actual->first, *expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTrieProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Property sweep: packet round trip with random payload contents.
class PacketRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketRoundTrip, SurvivesWire) {
  util::Rng rng{GetParam()};
  ProbePayload payload;
  payload.measurement_id = static_cast<std::uint32_t>(rng());
  payload.tx_time_usec = static_cast<std::int64_t>(rng() >> 1);
  payload.original_target = Ipv4Address{static_cast<std::uint32_t>(rng())};
  const Ipv4Address src{static_cast<std::uint32_t>(rng())};
  const Ipv4Address dst = payload.original_target;
  const auto id = static_cast<std::uint16_t>(rng());
  const auto seq = static_cast<std::uint16_t>(rng());

  const auto request = echo_request(src, dst, id, seq, payload);
  const auto host_view = parse_icmp_packet_view(request);
  ASSERT_TRUE(host_view);
  EXPECT_EQ(host_view->icmp.type, IcmpType::kEchoRequest);
  const auto reply = echo_reply(request, dst);
  const auto parsed = parse_reply_view(reply);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->probe.measurement_id, payload.measurement_id);
  EXPECT_EQ(parsed->probe.tx_time_usec, payload.tx_time_usec);
  EXPECT_EQ(parsed->probe.original_target, payload.original_target);
  EXPECT_EQ(parsed->icmp.identifier, id);
  EXPECT_EQ(parsed->icmp.sequence, seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketRoundTrip,
                         ::testing::Range<std::uint64_t>(100, 116));

}  // namespace
}  // namespace vp::net
