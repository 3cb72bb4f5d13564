#include "dataplane/hypervisor_switch.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/provenance.h"

namespace elmo::dp {

SuffixStore::Suffix SuffixStore::share(std::uint32_t group,
                                       std::span<const std::uint8_t> header,
                                       const elmo::HeaderCodec& codec) {
  if (header.empty()) return nullptr;
  auto& slot = current_[group];
  if (auto held = slot.lock();
      held != nullptr && held->size() <= header.size() &&
      std::memcmp(held->data(), header.data() + header.size() - held->size(),
                  held->size()) == 0) {
    return held;
  }
  std::size_t split = 0;
  try {
    split = codec.sections(header).pop_offset(elmo::SectionTag::kSpineRules);
  } catch (const std::logic_error&) {
    if (slot.expired()) current_.erase(group);
    return nullptr;
  }
  auto fresh = std::make_shared<const std::vector<std::uint8_t>>(
      header.begin() + static_cast<std::ptrdiff_t>(split), header.end());
  slot = fresh;
  return fresh;
}

void SuffixStore::forget_if_unused(std::uint32_t group) {
  const auto it = current_.find(group);
  if (it != current_.end() && it->second.expired()) current_.erase(it);
}

std::vector<std::uint8_t> HypervisorSwitch::HeaderParts::bytes() const {
  std::vector<std::uint8_t> out(prefix.begin(), prefix.end());
  out.insert(out.end(), suffix.begin(), suffix.end());
  return out;
}

void HypervisorSwitch::install_flow(net::Ipv4Address group, std::uint32_t vni,
                                    std::span<const std::uint32_t> local_vms,
                                    std::span<const std::uint8_t> header) {
  auto& flow = flows_[group.value];
  flow.vni = vni;
  flow.local_vms.assign(local_vms.begin(), local_vms.end());
  auto suffix = suffixes_->share(group.value, header, codec_);
  const auto split = header.size() - (suffix ? suffix->size() : 0);
  flow.prefix.assign(header.begin(),
                     header.begin() + static_cast<std::ptrdiff_t>(split));
  // Dropping the last reference to the group's suffix (the flow stops
  // sending) also drops its slot.
  const bool dropped = flow.suffix != nullptr && suffix == nullptr;
  flow.suffix = std::move(suffix);
  if (dropped) suffixes_->forget_if_unused(group.value);
}

void HypervisorSwitch::remove_flow(net::Ipv4Address group) {
  const auto it = flows_.find(group.value);
  if (it == flows_.end()) return;
  const bool held = it->second.suffix != nullptr;
  flows_.erase(it);
  if (held) suffixes_->forget_if_unused(group.value);
}

std::optional<net::Packet> HypervisorSwitch::encapsulate(
    net::Ipv4Address group, std::span<const std::uint8_t> payload) {
  const auto it = flows_.find(group.value);
  if (it == flows_.end()) return std::nullopt;
  const auto& flow = it->second;
  const auto elmo = flow.header();

  net::EthernetHeader eth;
  eth.src = host_mac(host_);
  eth.dst = fabric_mac();

  net::Ipv4Header ip;
  ip.src = host_address(host_);
  ip.dst = group;
  ip.total_length = static_cast<std::uint16_t>(
      net::Ipv4Header::kSize + net::UdpHeader::kSize + net::VxlanHeader::kSize +
      elmo.size() + payload.size());

  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(0xc000 | (host_ & 0x3fff));
  udp.length = static_cast<std::uint16_t>(
      net::UdpHeader::kSize + net::VxlanHeader::kSize + elmo.size() +
      payload.size());

  net::VxlanHeader vxlan;
  vxlan.vni = flow.vni;
  vxlan.elmo_present = !elmo.empty();

  // One buffer with room for the whole header; every part is written
  // straight into its headroom — the "one header, one write" fast path.
  const std::size_t header_bytes = net::kOuterHeaderBytes + elmo.size();
  net::Packet packet{payload,
                     std::max(net::Packet::kDefaultHeadroom, header_bytes)};
  auto at = packet.prepend(header_bytes).begin();
  const auto put = [&at](std::span<const std::uint8_t> part) {
    at = std::copy(part.begin(), part.end(), at);
  };
  put(eth.serialize());
  put(ip.serialize());
  put(udp.serialize());
  put(vxlan.serialize());
  put(elmo.prefix);
  put(elmo.suffix);
  ++stats_.sent;
  stats_.bytes_sent += packet.size();
  return packet;
}

std::span<Emission> HypervisorSwitch::process(const net::PacketView& packet,
                                              std::size_t /*ingress_port*/,
                                              EmissionArena& arena,
                                              obs::HopDecision* decision) {
  const auto mark = arena.mark();
  ++stats_.received;
  stats_.bytes_received += packet.size();
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto ip =
      net::Ipv4Header::parse(outer.subspan(net::EthernetHeader::kSize));
  const auto it = flows_.find(ip.dst.value);
  if (it == flows_.end() || it->second.local_vms.empty()) {
    ++stats_.discarded;
    if (decision != nullptr) decision->rule = obs::RuleClass::kHostDiscard;
    return arena.since(mark);
  }
  // Elmo-capable leaves strip all p-rules at egress; behind a legacy leaf
  // (§7) the header survives and the VXLAN flag tells us to skip it.
  const auto vxlan = net::VxlanHeader::parse(
      outer.subspan(net::EthernetHeader::kSize + net::Ipv4Header::kSize +
                    net::UdpHeader::kSize));
  const std::size_t elmo_bytes =
      vxlan.elmo_present
          ? codec_.sections(packet.from(net::kOuterHeaderBytes)).length()
          : 0;
  // Decapsulation is a cursor advance: one payload view, shared per VM.
  net::PacketView payload = packet;
  payload.pop_front(net::kOuterHeaderBytes + elmo_bytes);
  for (const auto vm : it->second.local_vms) {
    arena.emit(vm, payload);
    ++stats_.delivered_to_vms;
    stats_.delivered_bytes += payload.size();
  }
  const auto out = arena.since(mark);
  if (decision != nullptr) {
    decision->rule = obs::RuleClass::kHostDeliver;
    decision->vm_deliveries = static_cast<std::uint32_t>(out.size());
    decision->popped_bytes = net::kOuterHeaderBytes + elmo_bytes;
  }
  return out;
}

std::vector<HypervisorSwitch::Delivery> HypervisorSwitch::receive(
    const net::Packet& packet) {
  EmissionArena arena;
  const net::PacketView view{packet.bytes()};
  const auto emissions = process(view, kNetworkPort, arena);
  std::vector<Delivery> deliveries;
  deliveries.reserve(emissions.size());
  for (const auto& e : emissions) {
    deliveries.push_back(Delivery{static_cast<std::uint32_t>(e.out_port),
                                  e.packet.size()});
  }
  return deliveries;
}

}  // namespace elmo::dp
