// Bit-exact Elmo header codec (paper Fig. 2).
//
// Wire format. The header is a sequence of byte-aligned *sections*, each
// introduced by a 3-bit tag and zero-padded to a byte boundary so network
// switches can pop whole sections without shifting bits (paper D2d):
//
//   header        := section*  END
//   section       := tag(3) body pad-to-byte
//   END           := tag 0
//   U_LEAF  (1)   := multipath(1) up_bitmap(leaf uplinks) down_bitmap(hosts)
//   U_SPINE (2)   := multipath(1) up_bitmap(spine uplinks) down_bitmap(leaf ports)
//   CORE    (3)   := pod_bitmap(pods)
//   SPINE_RULES(4):= has_default(1) count(7) rule* [default_bitmap]
//   LEAF_RULES (5):= has_default(1) count(7) rule* [default_bitmap]
//   rule          := bitmap(layer ports) ( id(id_bits) next_id(1) )+
//
// Identifier widths derive from the topology: pod ids at the spine layer,
// global leaf ids at the leaf layer. All size numbers reported by benches
// come from this codec, not from closed-form estimates.
//
// The header splits where the paper's does (§3, Fig. 3): U_LEAF, U_SPINE and
// CORE are sender-specific, while SPINE_RULES, LEAF_RULES and END depend only
// on the group. Every section is byte-aligned, so the group part is an exact
// byte suffix that an install serializes once and appends for each sender.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "elmo/rules.h"
#include "net/bitio.h"
#include "topology/clos.h"

namespace elmo {

// Wire limit: the rule-layer count field is 7 bits, so no layer can carry
// more than 127 p-rules. Encoder configs are validated against this.
inline constexpr std::size_t kMaxRulesPerLayer = 127;

enum class SectionTag : std::uint8_t {
  kEnd = 0,
  kULeaf = 1,
  kUSpine = 2,
  kCore = 3,
  kSpineRules = 4,
  kLeafRules = 5,
};

// Fully decoded header (tests and hypervisor-side debugging).
struct ParsedHeader {
  std::optional<UpstreamRule> u_leaf;
  std::optional<UpstreamRule> u_spine;
  std::optional<net::PortBitmap> core_pods;
  std::vector<PRule> spine_rules;
  std::optional<net::PortBitmap> spine_default;
  std::vector<PRule> leaf_rules;
  std::optional<net::PortBitmap> leaf_default;
};

// Byte extent of one section inside a serialized header.
struct SectionExtent {
  SectionTag tag = SectionTag::kEnd;
  std::size_t begin = 0;  // byte offset of the tag
  std::size_t end = 0;    // one past the section's last byte
};

class HeaderCodec {
 public:
  explicit HeaderCodec(const topo::ClosTopology& topology)
      : topo_{&topology} {}

  // ---- serialization ---------------------------------------------------
  // Throws std::invalid_argument when a bitmap's domain differs from its
  // layer's port count, a switch id does not fit the layer's id width, or a
  // p-rule has no switch ids; std::length_error past kMaxRulesPerLayer.
  std::vector<std::uint8_t> serialize(const SenderEncoding& sender,
                                      const GroupEncoding& group) const;
  // The sender-independent suffix: SPINE_RULES, LEAF_RULES and END.
  std::vector<std::uint8_t> serialize_downstream(
      const GroupEncoding& group) const;
  // The sender's U_LEAF, U_SPINE and CORE sections followed by `downstream`,
  // a suffix from serialize_downstream.
  std::vector<std::uint8_t> serialize(
      const SenderEncoding& sender,
      std::span<const std::uint8_t> downstream) const;

  ParsedHeader parse(std::span<const std::uint8_t> data) const;

  // Section boundaries (used by switches to pop consumed layers). The END
  // tag is included as the final extent.
  std::vector<SectionExtent> scan_sections(
      std::span<const std::uint8_t> data) const;

  // Total header length in bytes (up to and including the END tag byte).
  std::size_t header_length(std::span<const std::uint8_t> data) const;

  // ---- layout / budget arithmetic ---------------------------------------
  // Worst-case byte size of a header with the given rule-layer shape.
  std::size_t max_header_bytes(std::size_t hmax_spine, std::size_t hmax_leaf,
                               std::size_t kmax_spine,
                               std::size_t kmax_leaf) const;

  // Largest Hmax for the leaf layer that keeps the worst-case header within
  // the budget (>= 1). Honors cfg.hmax_leaf_override.
  std::size_t derive_hmax_leaf(const EncoderConfig& cfg) const;

  const topo::ClosTopology& topology() const noexcept { return *topo_; }

 private:
  std::size_t section_bits(std::size_t body_bits) const noexcept {
    return ((3 + body_bits + 7) / 8) * 8;  // tag + body, byte padded
  }
  net::PortBitmap read_bitmap(net::BitReader& in, std::size_t ports) const;
  void write_rule_layer(net::BitWriter& out, SectionTag tag,
                        const std::vector<PRule>& rules,
                        const std::optional<net::PortBitmap>& default_rule,
                        std::size_t ports, unsigned id_bits) const;

  const topo::ClosTopology* topo_;
};

}  // namespace elmo
