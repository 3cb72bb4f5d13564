// P4Runtime-style control channel (paper §2: the controller "uses a control
// interface (like P4Runtime) to install match-action rules in the switches
// at run time").
//
// Rule updates are serialized into framed, self-describing binary messages
// so that the controller and the switches can live in different processes
// (as they do in a real deployment). A RuleChannel decodes the stream and
// applies it to the packet-level fabric; tests verify that driving the data
// plane exclusively through the wire protocol reproduces direct
// installation byte-for-byte.
//
// Message framing (big-endian):
//   batch   := magic(u32 "P4EL") count(u32) message*
//   message := kind(u8) length(u16) body            -- standard frame
//            | kind|0x80(u8) length(u32) body       -- extended frame (v2)
//   kinds:
//     1 HYPERVISOR_FLOW_ADD    host(u32) group(u32) vni(u32)
//                              vm_count(u16) vm*u32
//                              header_len(u16) header bytes
//     2 HYPERVISOR_FLOW_DEL    host(u32) group(u32)
//     3 SRULE_ADD              layer(u8) switch(u32) group(u32)
//                              port_count(u16) bitmap bytes (LSB-first words)
//     4 SRULE_DEL              layer(u8) switch(u32) group(u32)
//
// Extended frames (v2): a message whose body or embedded counts exceed the
// 16-bit fields — e.g. a HYPERVISOR_FLOW_ADD for a host running more than
// ~16K member VMs of one group — sets the high bit of the kind byte, carries
// a u32 length, and widens every count field in the body (vm_count,
// header_len, port_count) to u32. The encoder picks the extended frame only
// when the standard one cannot represent the message, so v1 streams are
// byte-identical to before and any v1 stream remains decodable; counts are
// validated before narrowing casts instead of silently truncated.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "elmo/controller.h"
#include "sim/fabric.h"

namespace elmo::p4rt {

enum class UpdateKind : std::uint8_t {
  kHypervisorFlowAdd = 1,
  kHypervisorFlowDel = 2,
  kSRuleAdd = 3,
  kSRuleDel = 4,
};

// High bit of the wire kind byte: the frame carries a u32 length and u32
// count fields (see file header).
inline constexpr std::uint8_t kExtendedFrameBit = 0x80;

struct Update {
  UpdateKind kind = UpdateKind::kHypervisorFlowAdd;
  // Hypervisor fields.
  topo::HostId host = 0;
  std::uint32_t vni = 0;
  std::vector<std::uint32_t> local_vms;
  std::vector<std::uint8_t> elmo_header;
  // Network-switch fields.
  topo::Layer layer = topo::Layer::kLeaf;
  std::uint32_t switch_id = 0;
  net::PortBitmap ports;
  // Common.
  net::Ipv4Address group;

  bool operator==(const Update&) const = default;
};

// One group's install in the parts its rules are built from. The spine and
// leaf p-rules are the same for every sender, so the downstream suffix is
// serialized once; per member host the view keeps the flow's local VMs and,
// when the host runs a sender, that sender's upstream prefix
// (MulticastTree::sender_route serialized with an empty suffix). The prefix
// is byte-aligned, so a sender's header is its prefix followed by
// `downstream`. compile_install builds its updates from this view;
// stream::ControlPlane hashes the parts and builds an update only for a rule
// whose hash changed. S-rule bitmaps point into the controller's encoding,
// so a view is valid until its group is next mutated.
class GroupCompile {
 public:
  struct Flow {
    topo::HostId host = 0;
    bool has_header = false;
    std::uint32_t vms_begin = 0, vms_end = 0;        // into vms
    std::uint32_t prefix_begin = 0, prefix_end = 0;  // into prefixes
  };
  struct SRule {
    topo::Layer layer = topo::Layer::kLeaf;
    std::uint32_t switch_id = 0;
    const net::PortBitmap* ports = nullptr;
  };

  // Refills the view with `group`'s install, keeping every buffer's
  // capacity for the next call.
  void compile(const Controller& controller, elmo::GroupId group);

  std::span<const std::uint32_t> local_vms(const Flow& flow) const {
    return std::span{vms}.subspan(flow.vms_begin,
                                  flow.vms_end - flow.vms_begin);
  }
  std::span<const std::uint8_t> prefix(const Flow& flow) const {
    return std::span{prefixes}.subspan(flow.prefix_begin,
                                       flow.prefix_end - flow.prefix_begin);
  }
  // The HYPERVISOR_FLOW_ADD / SRULE_ADD the view describes, full header
  // included.
  Update flow_update(const Flow& flow) const;
  Update srule_update(const SRule& srule) const;

  net::Ipv4Address group;
  std::uint32_t vni = 0;
  std::vector<std::uint8_t> downstream;  // empty when no member sends
  std::vector<Flow> flows;               // one per member host, by host
  std::vector<std::uint32_t> vms;        // local VMs, member order per host
  std::vector<std::uint8_t> prefixes;    // upstream prefixes, by host
  // Leaf s-rules in encoding order, then each spine s-rule on every plane.
  std::vector<SRule> srules;

 private:
  std::vector<std::pair<topo::HostId, std::uint32_t>> by_host_;  // scratch
};

// Compiles the full installation of `group` into an update batch (what the
// controller would push when the group is created or refreshed): one
// HYPERVISOR_FLOW_ADD per distinct member host, merged across co-located
// members exactly as Fabric::install_group does (a per-member update stream
// would overwrite the host's flow and drop the earlier members' local VMs),
// then the s-rules. Fabric::install_group keeps its own copy as the
// independent reference the equivalence tests compare against.
std::vector<Update> compile_install(const Controller& controller,
                                    elmo::GroupId group);
std::vector<Update> compile_uninstall(const Controller& controller,
                                      elmo::GroupId group);

// Wire codec. encode throws std::length_error only if a single count cannot
// fit even the extended u32 fields.
std::vector<std::uint8_t> encode(std::span<const Update> updates);
// Throws std::invalid_argument on malformed input.
std::vector<Update> decode(std::span<const std::uint8_t> wire);

// Applies a decoded batch to the fabric (the "switch side" of the channel).
// (Named apply_updates to avoid ADL collisions with std::apply.)
void apply_updates(sim::Fabric& fabric, std::span<const Update> updates);
// Single-update variant, for callers that wrap each install in its own
// trace span (stream::ControlPlane::flush, DESIGN.md §15). Semantically
// identical to one iteration of apply_updates.
void apply_update(sim::Fabric& fabric, const Update& update);

// Convenience: controller -> wire -> fabric in one call, returning the
// number of wire bytes that crossed the channel.
std::size_t install_via_channel(const Controller& controller,
                                elmo::GroupId group, sim::Fabric& fabric);

}  // namespace elmo::p4rt
