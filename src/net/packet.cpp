#include "net/packet.hpp"

#include <cstring>

#include "net/checksum.hpp"

namespace vp::net {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> d, std::size_t at) {
  return static_cast<std::uint16_t>((std::uint16_t{d[at]} << 8) | d[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t at) {
  return (std::uint32_t{get_u16(d, at)} << 16) | get_u16(d, at + 2);
}

std::uint64_t get_u64(std::span<const std::uint8_t> d, std::size_t at) {
  return (std::uint64_t{get_u32(d, at)} << 32) | get_u32(d, at + 4);
}

}  // namespace

void Ipv4Header::serialize(std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  out.push_back(0x45);  // version 4, IHL 5
  out.push_back(0x00);  // DSCP/ECN
  put_u16(out, total_length);
  put_u16(out, identification);
  put_u16(out, 0x4000);  // flags: DF, fragment offset 0
  out.push_back(ttl);
  out.push_back(static_cast<std::uint8_t>(protocol));
  put_u16(out, 0);  // checksum placeholder
  put_u32(out, source.value());
  put_u32(out, destination.value());
  const std::uint16_t sum = internet_checksum(
      std::span<const std::uint8_t>{out.data() + start, kSize});
  out[start + 10] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(sum);
}

std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if (data[0] != 0x45) return std::nullopt;  // require v4, no options
  if (internet_checksum(data.first(kSize)) != 0) return std::nullopt;
  Ipv4Header h;
  h.total_length = get_u16(data, 2);
  h.identification = get_u16(data, 4);
  h.ttl = data[8];
  h.protocol = static_cast<IpProtocol>(data[9]);
  h.source = Ipv4Address{get_u32(data, 12)};
  h.destination = Ipv4Address{get_u32(data, 16)};
  if (h.total_length < kSize) return std::nullopt;
  return h;
}

void ProbePayload::serialize(std::vector<std::uint8_t>& out) const {
  put_u32(out, kMagic);
  put_u32(out, measurement_id);
  put_u64(out, static_cast<std::uint64_t>(tx_time_usec));
  put_u32(out, original_target.value());
}

std::optional<ProbePayload> ProbePayload::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if (get_u32(data, 0) != kMagic) return std::nullopt;
  ProbePayload p;
  p.measurement_id = get_u32(data, 4);
  p.tx_time_usec = static_cast<std::int64_t>(get_u64(data, 8));
  p.original_target = Ipv4Address{get_u32(data, 16)};
  return p;
}

std::optional<IcmpEchoView> parse_icmp_echo_view(
    std::span<const std::uint8_t> data) {
  if (data.size() < IcmpEchoView::kHeaderSize) return std::nullopt;
  if (internet_checksum(data) != 0) return std::nullopt;
  IcmpEchoView m;
  m.type = static_cast<IcmpType>(data[0]);
  if (m.type != IcmpType::kEchoRequest && m.type != IcmpType::kEchoReply)
    return std::nullopt;
  if (data[1] != 0) return std::nullopt;  // echo code must be 0
  m.identifier = get_u16(data, 4);
  m.sequence = get_u16(data, 6);
  m.payload = data.subspan(IcmpEchoView::kHeaderSize);
  return m;
}

namespace {

/// Appends an ICMP echo header, then the payload `write_payload` appends,
/// to `out`, and fixes up the checksum over both.
template <typename WritePayload>
void append_icmp_echo(std::vector<std::uint8_t>& out, IcmpType type,
                      std::uint16_t identifier, std::uint16_t sequence,
                      WritePayload&& write_payload) {
  const std::size_t start = out.size();
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);  // code
  put_u16(out, 0);   // checksum placeholder
  put_u16(out, identifier);
  put_u16(out, sequence);
  write_payload(out);
  const std::uint16_t sum = internet_checksum(std::span<const std::uint8_t>{
      out.data() + start, out.size() - start});
  out[start + 2] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 3] = static_cast<std::uint8_t>(sum);
}

}  // namespace

void build_echo_request_into(std::vector<std::uint8_t>& out,
                             Ipv4Address source, Ipv4Address destination,
                             std::uint16_t identifier, std::uint16_t sequence,
                             const ProbePayload& payload) {
  out.clear();
  Ipv4Header ip;
  ip.protocol = IpProtocol::kIcmp;
  ip.source = source;
  ip.destination = destination;
  ip.identification = sequence;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + IcmpEchoView::kHeaderSize + ProbePayload::kSize);
  out.reserve(ip.total_length);
  ip.serialize(out);
  append_icmp_echo(out, IcmpType::kEchoRequest, identifier, sequence,
                   [&payload](std::vector<std::uint8_t>& bytes) {
                     payload.serialize(bytes);
                   });
}

void build_echo_reply_into(std::vector<std::uint8_t>& out,
                           const Ipv4Header& request_ip,
                           const IcmpEchoView& request_icmp,
                           Ipv4Address reply_source) {
  out.clear();
  Ipv4Header ip;
  ip.protocol = IpProtocol::kIcmp;
  ip.source = reply_source;
  ip.destination = request_ip.source;
  ip.identification = request_icmp.sequence;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize +
                                               IcmpEchoView::kHeaderSize +
                                               request_icmp.payload.size());
  out.reserve(ip.total_length);
  ip.serialize(out);
  append_icmp_echo(out, IcmpType::kEchoReply, request_icmp.identifier,
                   request_icmp.sequence,
                   [&request_icmp](std::vector<std::uint8_t>& bytes) {
                     bytes.insert(bytes.end(), request_icmp.payload.begin(),
                                  request_icmp.payload.end());
                   });
}

std::optional<IcmpPacketView> parse_icmp_packet_view(
    std::span<const std::uint8_t> data) {
  const auto ip = Ipv4Header::parse(data);
  if (!ip || ip->protocol != IpProtocol::kIcmp) return std::nullopt;
  if (data.size() < ip->total_length) return std::nullopt;
  const auto icmp = parse_icmp_echo_view(
      data.subspan(Ipv4Header::kSize, ip->total_length - Ipv4Header::kSize));
  if (!icmp) return std::nullopt;
  return IcmpPacketView{*ip, *icmp};
}

std::optional<ParsedReplyView> parse_reply_view(
    std::span<const std::uint8_t> data) {
  const auto packet = parse_icmp_packet_view(data);
  if (!packet || packet->icmp.type != IcmpType::kEchoReply)
    return std::nullopt;
  const auto probe = ProbePayload::parse(packet->icmp.payload);
  if (!probe) return std::nullopt;
  return ParsedReplyView{packet->ip, packet->icmp, *probe};
}

}  // namespace vp::net
