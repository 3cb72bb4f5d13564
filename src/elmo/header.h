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
// Tags strictly ascend (END last); serialize writes nothing else and
// HeaderCodec::sections rejects anything else.
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

#include <array>
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

// Byte extent of one section inside a serialized header.
struct SectionExtent {
  SectionTag tag = SectionTag::kEnd;
  std::size_t begin = 0;  // byte offset of the tag
  std::size_t end = 0;    // one past the section's last byte
};

// Where each section of one header lies, in wire order. Built by
// HeaderCodec::sections; fixed capacity, so building one allocates nothing.
class SectionMap {
 public:
  // Views into the map: deleted on temporaries, which they would outlive.
  std::span<const SectionExtent> extents() const& noexcept {
    return {extents_.data(), size_};
  }
  std::span<const SectionExtent> extents() const&& = delete;
  // The section with `tag`, or nullptr when the header has none.
  const SectionExtent* find(SectionTag tag) const& noexcept {
    for (const auto& e : extents()) {
      if (e.tag == tag) return &e;
    }
    return nullptr;
  }
  const SectionExtent* find(SectionTag tag) const&& = delete;
  // Bytes to drop so a copy starts at the first section whose tag is at
  // least `first_needed` (or at END): every section before it is consumed.
  std::size_t pop_offset(SectionTag first_needed) const noexcept {
    for (const auto& e : extents()) {
      if (e.tag == SectionTag::kEnd || e.tag >= first_needed) return e.begin;
    }
    return 0;
  }
  // Header bytes up to and including END; 0 for an empty map (no header).
  std::size_t length() const noexcept {
    return size_ == 0 ? 0 : extents_[size_ - 1].end;
  }

 private:
  friend class HeaderCodec;
  std::array<SectionExtent, 6> extents_{};  // five section kinds + END
  std::size_t size_ = 0;
};

// A switch parser's match over its own rule layer.
struct RuleMatch {
  std::optional<net::PortBitmap> bitmap;  // first p-rule listing the id
  int index = -1;       // that rule's position in its section
  bool shared = false;  // that rule lists more than one switch id
  std::optional<net::PortBitmap> default_rule;  // read only with no match
};

// Fully decoded header, for tests, tools and examples. Switches never build
// one: they read their own section through the SectionMap readers below.
struct ParsedHeader {
  std::optional<UpstreamRule> u_leaf;
  std::optional<UpstreamRule> u_spine;
  std::optional<net::PortBitmap> core_pods;
  std::vector<PRule> spine_rules;
  std::optional<net::PortBitmap> spine_default;
  std::vector<PRule> leaf_rules;
  std::optional<net::PortBitmap> leaf_default;
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

  // ---- reading ---------------------------------------------------------
  // The one reader of the section grammar: reads each tag and skips its
  // body, O(rules) for a rule layer. Throws std::out_of_range when the
  // header is cut short, std::invalid_argument on an unknown tag or tags
  // that do not strictly ascend.
  SectionMap sections(std::span<const std::uint8_t> data) const;

  // Body readers over `data` and its map (an absent section reads as
  // nullopt or no match). read_upstream takes kULeaf or kUSpine, match_rule
  // kSpineRules or kLeafRules.
  std::optional<UpstreamRule> read_upstream(std::span<const std::uint8_t> data,
                                            const SectionMap& map,
                                            SectionTag tag) const;
  std::optional<net::PortBitmap> read_core(std::span<const std::uint8_t> data,
                                           const SectionMap& map) const;
  RuleMatch match_rule(std::span<const std::uint8_t> data,
                       const SectionMap& map, SectionTag tag,
                       std::uint32_t id) const;

  // Full decode on the same map and readers.
  ParsedHeader parse(std::span<const std::uint8_t> data) const;

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
  // How one section's body is laid out, from the topology.
  struct BodyShape {
    bool upstream = false;     // multipath(1) up_bitmap down_bitmap
    bool rules = false;        // has_default(1) count(7) rule* [default]
    std::size_t up_ports = 0;  // upstream sections' uplink bitmap
    std::size_t ports = 0;     // down, pod or p-rule bitmap
    unsigned id_bits = 0;      // rule layers' switch ids
  };
  BodyShape shape(SectionTag tag) const noexcept;
  void write_upstream(net::BitWriter& out, SectionTag tag,
                      const UpstreamRule& rule) const;
  void write_rule_layer(net::BitWriter& out, SectionTag tag,
                        const std::vector<PRule>& rules,
                        const std::optional<net::PortBitmap>& default_rule)
      const;

  const topo::ClosTopology* topo_;
};

}  // namespace elmo
