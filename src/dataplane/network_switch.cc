#include "dataplane/network_switch.h"

#include <algorithm>
#include <stdexcept>

#include "obs/provenance.h"

namespace elmo::dp {

NetworkSwitch::NetworkSwitch(const topo::ClosTopology& topology,
                             topo::Layer layer, std::uint32_t id)
    : codec_{topology}, layer_{layer}, id_{id} {
  std::size_t up_ports = 0;
  switch (layer) {
    case topo::Layer::kLeaf:
      match_id_ = id;  // global leaf id
      down_ports_ = topology.leaf_down_ports();
      up_ports = topology.leaf_up_ports();
      break;
    case topo::Layer::kSpine:
      match_id_ = topology.pod_of_spine(id);  // logical spine == pod
      down_ports_ = topology.spine_down_ports();
      up_ports = topology.spine_up_ports();
      break;
    case topo::Layer::kCore:
      down_ports_ = topology.core_ports();  // one logical core: no id
      break;
    case topo::Layer::kHost:
      throw std::invalid_argument{"NetworkSwitch: host is not a switch"};
  }
  uplink_load_.assign(up_ports, 0);
}

std::size_t NetworkSwitch::pick_uplink(std::uint64_t hash) {
  if (multipath_mode_ == MultipathMode::kEcmp || uplink_load_.empty()) {
    return layer_ == topo::Layer::kLeaf ? hash % uplink_load_.size()
                                        : (hash >> 8) % uplink_load_.size();
  }
  // HULA-style: least observed utilization, hash breaks ties.
  std::size_t best = hash % uplink_load_.size();
  for (std::size_t p = 0; p < uplink_load_.size(); ++p) {
    if (uplink_load_[p] < uplink_load_[best]) best = p;
  }
  return best;
}

void NetworkSwitch::install_srule(net::Ipv4Address group,
                                  net::PortBitmap ports) {
  group_table_.insert_or_assign(group.value, std::move(ports));
}

void NetworkSwitch::remove_srule(net::Ipv4Address group) {
  group_table_.erase(group.value);
}

NetworkSwitch::ParseResult NetworkSwitch::parse(
    const net::PacketView& packet) const {
  if (packet.size() < net::kOuterHeaderBytes) {
    throw std::invalid_argument{"NetworkSwitch: runt packet"};
  }
  ParseResult result;

  // The outer encapsulation is always the contiguous front of the view; the
  // Elmo sections are the contiguous tail behind it (any popped sections are
  // the view's hole in between).
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto eth = net::EthernetHeader::parse(outer);
  if (eth.ether_type != net::kEtherTypeIpv4) {
    throw std::invalid_argument{"NetworkSwitch: not IPv4"};
  }
  const auto ip = net::Ipv4Header::parse(outer.subspan(net::EthernetHeader::kSize));
  result.outer_src = ip.src;
  result.outer_dst = ip.dst;
  const auto vxlan = net::VxlanHeader::parse(
      outer.subspan(net::EthernetHeader::kSize + net::Ipv4Header::kSize +
                    net::UdpHeader::kSize));
  // A legacy chip cannot parse Elmo (paper §7), and with the flag clear
  // there is no header: either way only the group table applies, nothing
  // is popped and every copy is the incoming view.
  if (legacy_ || !vxlan.elmo_present) return result;

  const auto elmo = packet.from(net::kOuterHeaderBytes);
  result.sections = codec_.sections(elmo);
  if (layer_ == topo::Layer::kCore) {
    result.match.bitmap = codec_.read_core(elmo, result.sections);
    return result;
  }
  const bool leaf = layer_ == topo::Layer::kLeaf;
  result.upstream = codec_.read_upstream(
      elmo, result.sections,
      leaf ? elmo::SectionTag::kULeaf : elmo::SectionTag::kUSpine);
  result.match = codec_.match_rule(
      elmo, result.sections,
      leaf ? elmo::SectionTag::kLeafRules : elmo::SectionTag::kSpineRules,
      match_id_);
  return result;
}

net::PacketView NetworkSwitch::strip_for_host(const net::PacketView& packet,
                                              std::size_t elmo_bytes) const {
  const auto outer = packet.front(net::kOuterHeaderBytes);
  const auto payload =
      packet.from(net::kOuterHeaderBytes).subspan(elmo_bytes);

  net::Packet stripped =
      net::Packet::with_size(outer.size() + payload.size(), /*headroom=*/0);
  const auto out = stripped.mutable_bytes();
  std::copy(outer.begin(), outer.end(), out.begin());
  std::copy(payload.begin(), payload.end(), out.begin() + outer.size());
  // Deparser clears the VXLAN "Elmo present" flag.
  out[net::EthernetHeader::kSize + net::Ipv4Header::kSize +
      net::UdpHeader::kSize] &= ~std::uint8_t{0x01};
  net::count_copy(out.size());
  return net::PacketView{std::move(stripped)};
}

std::span<Emission> NetworkSwitch::process(const net::PacketView& packet,
                                           std::size_t /*ingress_port*/,
                                           EmissionArena& arena,
                                           obs::HopDecision* decision) {
  const auto mark = arena.mark();
  ++stats_.packets_in;
  stats_.bytes_in += packet.size();
  const std::uint64_t popped_before = stats_.header_pop_bytes;

  // Decision provenance (DESIGN.md §10): filled only when the walk passes a
  // hop to fill — the detached cost is this null test. `bitmap` is the rule
  // as matched (before masking); the egress set is reconstructed from the
  // emissions (after multipath masking).
  auto record = [&](obs::RuleClass cls, const net::PortBitmap* bitmap,
                    const elmo::UpstreamRule* up, bool shared, int index) {
    if (decision == nullptr) return;
    auto& dec = *decision;
    dec.rule = cls;
    dec.legacy = legacy_;
    dec.prule_index = index;
    dec.prule_shared = shared;
    if (bitmap != nullptr) dec.bitmap = *bitmap;
    if (up != nullptr) {
      dec.multipath = up->multipath;
      dec.up_bitmap = up->up;
    }
    dec.popped_bytes =
        static_cast<std::size_t>(stats_.header_pop_bytes - popped_before);
    const auto out = arena.since(mark);
    if (!out.empty()) {
      dec.egress = net::PortBitmap{down_ports_ + uplink_load_.size()};
      for (const auto& e : out) dec.egress.set(e.out_port);
    }
  };

  if (down_) {
    ++stats_.drops;
    record(obs::RuleClass::kDrop, nullptr, nullptr, false, -1);
    return arena.since(mark);
  }

  const auto pr = parse(packet);

  // A copy with every section before `first_needed` popped: a hole behind
  // the outer header, no byte copy. Cut (and its pop counted) only for a
  // copy that is emitted.
  auto popped = [&](elmo::SectionTag first_needed) {
    net::PacketView copy = packet;
    if (const auto drop = pr.sections.pop_offset(first_needed); drop > 0) {
      copy.erase(net::kOuterHeaderBytes, drop);
      ++stats_.header_pops;
      stats_.header_pop_bytes += drop;
    }
    return copy;
  };
  auto emit_down = [&](const net::PortBitmap& bitmap) {
    if (!bitmap.any()) return;
    if (layer_ == topo::Layer::kLeaf) {
      // One stripped template, shared (refcounted) by every host copy; with
      // no Elmo header the incoming view already is that template.
      net::PacketView host_copy = packet;
      if (pr.sections.length() > 0) {
        host_copy = strip_for_host(packet, pr.sections.length());
        ++stats_.header_pops;
        stats_.header_pop_bytes += pr.sections.length();
      }
      bitmap.for_each_set(
          [&](std::size_t port) { arena.emit(port, host_copy); });
      return;
    }
    const auto down_copy = popped(layer_ == topo::Layer::kCore
                                      ? elmo::SectionTag::kSpineRules
                                      : elmo::SectionTag::kLeafRules);
    bitmap.for_each_set(
        [&](std::size_t port) { arena.emit(port, down_copy); });
  };

  obs::RuleClass cls = obs::RuleClass::kDrop;
  const net::PortBitmap* chosen = nullptr;
  const elmo::UpstreamRule* chosen_up = nullptr;

  if (pr.upstream) {
    ++stats_.upstream_matches;
    cls = obs::RuleClass::kUpstream;
    chosen = &pr.upstream->down;
    chosen_up = &*pr.upstream;
    emit_down(pr.upstream->down);
    // Upward copies start at the *next layer's* upstream/core section; a
    // rule with no uplink and multipath off sends none.
    if (pr.upstream->multipath || pr.upstream->up.any()) {
      const auto up_copy = popped(layer_ == topo::Layer::kLeaf
                                      ? elmo::SectionTag::kUSpine
                                      : elmo::SectionTag::kCore);
      if (pr.upstream->multipath) {
        const auto pick = pick_uplink(flow_hash(pr.outer_src, pr.outer_dst));
        uplink_load_[pick] += packet.size();
        arena.emit(down_ports_ + pick, up_copy);
      } else {
        pr.upstream->up.for_each_set([&](std::size_t port) {
          if (port < uplink_load_.size()) uplink_load_[port] += packet.size();
          arena.emit(down_ports_ + port, up_copy);
        });
      }
    }
  } else if (pr.match.bitmap) {
    ++stats_.prule_matches;
    cls = obs::RuleClass::kPRule;
    chosen = &*pr.match.bitmap;
    emit_down(*pr.match.bitmap);
  } else if (const auto it = group_table_.find(pr.outer_dst.value);
             it != group_table_.end()) {
    ++stats_.srule_matches;
    cls = obs::RuleClass::kSRule;
    chosen = &it->second;
    emit_down(it->second);
  } else if (pr.match.default_rule) {
    ++stats_.default_matches;
    cls = obs::RuleClass::kDefault;
    chosen = &*pr.match.default_rule;
    emit_down(*pr.match.default_rule);
  } else {
    ++stats_.drops;
  }

  const auto out = arena.since(mark);
  stats_.copies_out += out.size();
  for (const auto& e : out) stats_.bytes_out += e.packet.size();
  record(cls, chosen, chosen_up, pr.match.shared, pr.match.index);
  return out;
}

std::vector<OutputCopy> NetworkSwitch::process(const net::Packet& packet) {
  EmissionArena arena;
  const net::PacketView view{packet.bytes()};
  const auto emissions = process(view, 0, arena);
  std::vector<OutputCopy> out;
  out.reserve(emissions.size());
  for (auto& e : emissions) {
    out.push_back(OutputCopy{e.out_port, e.packet.materialize()});
  }
  return out;
}

}  // namespace elmo::dp
