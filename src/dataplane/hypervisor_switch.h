// PISCES-style hypervisor (vswitch) model (paper §4.2).
//
// The hypervisor switch intercepts multicast packets from local VMs, looks
// the group up in its flow table, and encapsulates: outer Ethernet + IPv4 +
// UDP + VXLAN plus the group's precomputed Elmo header template, all written
// straight into the packet's headroom in one pass — the paper's key
// software-switch optimization (one DMA write instead of one per p-rule;
// Figure 7 measures exactly this path). The packet buffer is the only
// allocation of a send. On receive it decapsulates and delivers to the
// local member VMs; packets for groups with no local members are discarded.
//
// A sender's template is stored in two parts (DESIGN.md §4): its own
// upstream prefix (U_LEAF, U_SPINE, CORE) and a reference to the group's
// downstream suffix (SPINE_RULES, LEAF_RULES, END), which is the same for
// every sender of the group. A SuffixStore holds one suffix per group for
// all the hypervisors of a fabric, so a group's downstream bytes exist once,
// not once per sending host. Flows keep the suffix they were installed with
// alive, so two versions coexist while a churn batch is half applied.
//
// As a ForwardingElement, a hypervisor consumes fabric-ingress packets and
// emits one zero-copy payload view per local member VM (out_port = VM
// index): decapsulation is a cursor advance past the outer header and any
// surviving Elmo bytes, never a copy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/common.h"
#include "dataplane/forwarding.h"
#include "elmo/header.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/packet_view.h"
#include "topology/clos.h"

namespace elmo::dp {

struct HypervisorStats {
  std::uint64_t sent = 0;
  std::uint64_t bytes_sent = 0;      // encapsulated bytes handed to the wire
  std::uint64_t received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t delivered_to_vms = 0;
  std::uint64_t delivered_bytes = 0;  // payload bytes handed to local VMs
  std::uint64_t discarded = 0;  // no local members for the group
  std::uint64_t unicast_fallback = 0;

  HypervisorStats& operator+=(const HypervisorStats& o) noexcept {
    sent += o.sent;
    bytes_sent += o.bytes_sent;
    received += o.received;
    bytes_received += o.bytes_received;
    delivered_to_vms += o.delivered_to_vms;
    delivered_bytes += o.delivered_bytes;
    discarded += o.discarded;
    unicast_fallback += o.unicast_fallback;
    return *this;
  }
  HypervisorStats& operator-=(const HypervisorStats& o) noexcept {
    sent -= o.sent;
    bytes_sent -= o.bytes_sent;
    received -= o.received;
    bytes_received -= o.bytes_received;
    delivered_to_vms -= o.delivered_to_vms;
    delivered_bytes -= o.delivered_bytes;
    discarded -= o.discarded;
    unicast_fallback -= o.unicast_fallback;
    return *this;
  }
};

// The downstream header suffixes of one fabric's groups, shared by every
// hypervisor flow that sends into the group. The store keeps a weak handle
// to each group's current suffix; the flows own it, so a suffix is freed
// with the last flow that references it. Installs into the hypervisors that
// share a store must come from one thread at a time.
class SuffixStore {
 public:
  using Suffix = std::shared_ptr<const std::vector<std::uint8_t>>;

  // The suffix `header` should reference. When `header` ends with the
  // group's current suffix (one memcmp) that suffix is returned. Otherwise
  // the one header reader splits `header` before its SPINE_RULES section
  // (or whatever follows the upstream sections) and the tail becomes the
  // group's current suffix. nullptr for an empty header or one the reader
  // rejects: such a header is stored whole as the flow's prefix.
  Suffix share(std::uint32_t group, std::span<const std::uint8_t> header,
               const elmo::HeaderCodec& codec);
  // Drops the group's slot once no flow references its suffix.
  void forget_if_unused(std::uint32_t group);
  // Groups with a slot (a live suffix, or one not yet forgotten).
  std::size_t size() const noexcept { return current_.size(); }

 private:
  std::unordered_map<std::uint32_t, Suffix::weak_type> current_;
};

class HypervisorSwitch : public ForwardingElement {
 public:
  // `suffixes` is the store shared by the hypervisors of one fabric; a
  // hypervisor built without one gets its own.
  HypervisorSwitch(const topo::ClosTopology& topology, topo::HostId host,
                   std::shared_ptr<SuffixStore> suffixes = nullptr)
      : topo_{&topology},
        codec_{topology},
        host_{host},
        suffixes_{suffixes ? std::move(suffixes)
                           : std::make_shared<SuffixStore>()} {}

  topo::HostId host() const noexcept { return host_; }
  const SuffixStore& suffixes() const noexcept { return *suffixes_; }

  // A flow's header template in wire order: the sender's prefix, then the
  // group's shared suffix. Both empty for a receive-only flow.
  struct HeaderParts {
    std::span<const std::uint8_t> prefix;
    std::span<const std::uint8_t> suffix;

    std::size_t size() const noexcept { return prefix.size() + suffix.size(); }
    bool empty() const noexcept { return size() == 0; }
    // The joined bytes, for tests and tools.
    std::vector<std::uint8_t> bytes() const;
  };

  struct GroupFlow {
    std::uint32_t vni = 0;                 // tenant id
    std::vector<std::uint32_t> local_vms;  // tenant-local VM indices here
    std::vector<std::uint8_t> prefix;      // sender's bytes before `suffix`
    SuffixStore::Suffix suffix;            // the group's; null: none

    HeaderParts header() const noexcept {
      return {prefix, suffix ? std::span<const std::uint8_t>{*suffix}
                             : std::span<const std::uint8_t>{}};
    }
  };

  // Installs (or replaces) the flow for `group`. `header` is the sender's
  // full Elmo header, empty for a receive-only host; it is stored as its
  // prefix plus a reference to the group's suffix (SuffixStore::share).
  void install_flow(net::Ipv4Address group, std::uint32_t vni,
                    std::span<const std::uint32_t> local_vms,
                    std::span<const std::uint8_t> header = {});
  void remove_flow(net::Ipv4Address group);
  bool has_flow(net::Ipv4Address group) const {
    return flows_.contains(group.value);
  }
  std::size_t flow_count() const noexcept { return flows_.size(); }
  // Installed flow for `group`, or nullptr. Read access for state diffing
  // (the verify harness compares fabric contents against its oracle).
  const GroupFlow* flow(net::Ipv4Address group) const {
    const auto it = flows_.find(group.value);
    return it != flows_.end() ? &it->second : nullptr;
  }
  // Full table view, keyed by group address value (iteration order is
  // unspecified — digest builders must sort).
  const std::unordered_map<std::uint32_t, GroupFlow>& flows() const noexcept {
    return flows_;
  }

  // VM -> network: returns the encapsulated packet, or nullopt if this host
  // has no flow for the group (non-members cannot source into a group).
  std::optional<net::Packet> encapsulate(net::Ipv4Address group,
                                         std::span<const std::uint8_t> payload);

  // Network -> VMs (ForwardingElement): decapsulates and emits one payload
  // view per local member VM, out_port = VM index. `ingress_port` is
  // accepted for interface uniformity (always treated as kNetworkPort).
  std::span<Emission> process(const net::PacketView& packet,
                              std::size_t ingress_port, EmissionArena& arena,
                              obs::HopDecision* decision = nullptr) override;

  // Convenience wrapper over process() for unit tests and tools.
  struct Delivery {
    std::uint32_t vm = 0;
    std::size_t payload_bytes = 0;
  };
  std::vector<Delivery> receive(const net::Packet& packet);

  const HypervisorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = HypervisorStats{}; }

 private:
  const topo::ClosTopology* topo_;
  elmo::HeaderCodec codec_;  // to skip unstripped p-rules (legacy leaves, §7)
  topo::HostId host_;
  std::shared_ptr<SuffixStore> suffixes_;
  std::unordered_map<std::uint32_t, GroupFlow> flows_;
  HypervisorStats stats_;
};

}  // namespace elmo::dp
