// Wire-format IPv4 + ICMP echo packets.
//
// The probe pipeline works on real packet bytes end-to-end, like the
// original Verfploeter: the prober serializes an ICMP Echo Request inside an
// IPv4 header, the simulated Internet delivers the raw bytes, hosts parse
// them and emit Echo Replies, and per-site collectors parse the replies.
// Every field crossing the "network" passes through serialize/parse with
// checksums validated, so the parsing code is tested under the same
// adversarial conditions a real deployment sees (truncation, corruption,
// duplicate and unsolicited replies).
//
// The probe engine builds and parses millions of packets per round, so
// the builders write into caller-owned buffers and the parsers return
// views that borrow the packet bytes: a steady-state round touches the
// allocator zero times per probe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "util/clock.hpp"

namespace vp::net {

/// IPv4 protocol numbers we care about.
enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kUdp = 17,
};

/// A 20-byte IPv4 header (no options), RFC 791.
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;

  std::uint8_t ttl = 64;
  IpProtocol protocol = IpProtocol::kIcmp;
  Ipv4Address source;
  Ipv4Address destination;
  std::uint16_t identification = 0;
  std::uint16_t total_length = kSize;

  /// Appends the serialized header (with correct checksum) to `out`.
  void serialize(std::vector<std::uint8_t>& out) const;

  /// Parses and checksum-validates a header from the front of `data`.
  static std::optional<Ipv4Header> parse(std::span<const std::uint8_t> data);
};

/// ICMP message types used by the prober.
enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestinationUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

/// Verfploeter's probe payload. The original tool embeds enough state in
/// the echo payload to (a) associate replies with a measurement round and
/// (b) detect hosts replying from a different address than probed (§4,
/// "data cleaning"). We mirror that: a magic tag, the measurement id, the
/// transmit timestamp, and the original target address.
struct ProbePayload {
  static constexpr std::uint32_t kMagic = 0x56504c54;  // "VPLT"
  static constexpr std::size_t kSize = 20;

  std::uint32_t measurement_id = 0;
  std::int64_t tx_time_usec = 0;
  Ipv4Address original_target;

  void serialize(std::vector<std::uint8_t>& out) const;
  static std::optional<ProbePayload> parse(std::span<const std::uint8_t> data);
};

/// An ICMP echo request/reply, RFC 792: an 8-byte header plus a payload
/// that is a view into the containing packet.
struct IcmpEchoView {
  static constexpr std::size_t kHeaderSize = 8;

  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  std::span<const std::uint8_t> payload;
};

/// Parses and checksum-validates an ICMP echo from `data`.
std::optional<IcmpEchoView> parse_icmp_echo_view(
    std::span<const std::uint8_t> data);

/// Builds the raw bytes of an ICMP Echo Request probe into a reused
/// buffer (cleared first).
void build_echo_request_into(std::vector<std::uint8_t>& out,
                             Ipv4Address source, Ipv4Address destination,
                             std::uint16_t identifier, std::uint16_t sequence,
                             const ProbePayload& payload);

/// Builds an Echo Reply for a parsed request into a reused buffer (cleared
/// first), echoing the payload verbatim (as RFC 792 requires), optionally
/// from a different source address.
void build_echo_reply_into(std::vector<std::uint8_t>& out,
                           const Ipv4Header& request_ip,
                           const IcmpEchoView& request_icmp,
                           Ipv4Address reply_source);

/// An ICMP echo carried in IPv4: the validated header and the echo it
/// frames. The view borrows the packet bytes and must not outlive them.
struct IcmpPacketView {
  Ipv4Header ip;
  IcmpEchoView icmp;
};

/// Parses the IPv4 + ICMP echo layering of a packet, as both a probed
/// host and a collector see it: a valid IPv4 header carrying ICMP, at
/// least `total_length` bytes, and a checksum-valid echo (request or
/// reply) in the first `total_length` bytes; nullopt otherwise.
std::optional<IcmpPacketView> parse_icmp_packet_view(
    std::span<const std::uint8_t> data);

/// A parsed probe reply as seen by a collector.
struct ParsedReplyView {
  Ipv4Header ip;
  IcmpEchoView icmp;
  ProbePayload probe;
};

/// Parses and validates a full reply packet; nullopt if any layer is
/// malformed, the checksum fails, the echo is not a reply, or the payload
/// lacks the probe magic. The view borrows `data` and must not outlive it.
std::optional<ParsedReplyView> parse_reply_view(
    std::span<const std::uint8_t> data);

}  // namespace vp::net
