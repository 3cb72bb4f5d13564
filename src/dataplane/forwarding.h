// The unified forwarding interface of the packet pipeline.
//
// Every element of the fabric — network switches (leaf/spine/core) and host
// hypervisors — is a ForwardingElement: it consumes one PacketView and emits
// zero or more (out_port, PacketView) pairs. Emissions are appended to a
// caller-provided EmissionArena rather than returned as fresh vectors, so a
// fabric walk reuses one arena across every hop. Switch parsing allocates
// nothing; the walk as a whole still does (DESIGN.md §4, ROADMAP
// zero-allocation walk item).
//
// Port conventions:
//   * Network switches: out_port indexes the switch's ports (downstream
//     ports first, then uplinks), exactly as the topology wires them;
//     ingress_port is accepted for interface uniformity but unused (Elmo
//     forwarding is ingress-agnostic).
//   * Hypervisors: a packet arriving from the network (ingress_port ==
//     kNetworkPort) is decapsulated and emitted once per local member VM,
//     with out_port = the VM index and the packet cursor advanced to the
//     inner payload (zero-copy).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/packet_view.h"

namespace elmo::obs {
struct HopDecision;
}

namespace elmo::dp {

struct Emission {
  std::size_t out_port = 0;
  net::PacketView packet;
};

// Append-only scratch space for one fabric walk. The walk clears it before
// each hop; `resize` down keeps capacity, so a long walk allocates only
// until the widest hop has been seen once.
class EmissionArena {
 public:
  std::size_t mark() const noexcept { return emissions_.size(); }

  void emit(std::size_t out_port, net::PacketView packet) {
    emissions_.push_back(Emission{out_port, std::move(packet)});
  }

  // Emissions appended since `mark`. Valid until the next emit/clear/rewind.
  std::span<Emission> since(std::size_t mark) noexcept {
    return {emissions_.data() + mark, emissions_.size() - mark};
  }

  void rewind(std::size_t mark) { emissions_.resize(mark); }
  void clear() { emissions_.clear(); }
  std::size_t size() const noexcept { return emissions_.size(); }

 private:
  std::vector<Emission> emissions_;
};

class ForwardingElement {
 public:
  // Hypervisor ingress designator: "from the fabric, not from a local VM".
  static constexpr std::size_t kNetworkPort = static_cast<std::size_t>(-1);

  virtual ~ForwardingElement() = default;

  // Processes one packet and appends its emissions to `arena`, returning the
  // span it appended. The span is valid until the arena is next mutated.
  // When `decision` is non-null the element fills it with the decision it
  // took (the walk passes its provenance log's open hop, DESIGN.md §10); a
  // null `decision` costs one pointer test.
  virtual std::span<Emission> process(const net::PacketView& packet,
                                      std::size_t ingress_port,
                                      EmissionArena& arena,
                                      obs::HopDecision* decision = nullptr) = 0;
};

}  // namespace elmo::dp
