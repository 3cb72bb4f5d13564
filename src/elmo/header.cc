#include "elmo/header.h"

#include <algorithm>
#include <stdexcept>

namespace elmo {
namespace {

constexpr unsigned kTagBits = 3;
constexpr unsigned kCountBits = 7;
static_assert(kMaxRulesPerLayer == (1u << kCountBits) - 1,
              "kMaxRulesPerLayer must match the wire count field width");

// Port p sits at bit p % 64 of word p / 64; the wire carries port 0 first.
constexpr std::uint64_t reverse_bits(std::uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0full) | ((x & 0x0f0f0f0f0f0f0f0full) << 4);
  return __builtin_bswap64(x);
}

// Writes `bitmap` as exactly `ports` bits, 64 at a time. parse reads the
// layer's port count, so any other domain size would misalign every later
// field.
void write_bitmap(net::BitWriter& out, const net::PortBitmap& bitmap,
                  std::size_t ports) {
  if (bitmap.size() != ports) {
    throw std::invalid_argument{"HeaderCodec: bitmap domain != layer ports"};
  }
  const auto words = bitmap.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    const auto bits = static_cast<unsigned>(std::min<std::size_t>(
        64, ports - w * 64));
    out.write(reverse_bits(words[w]) >> (64 - bits), bits);
  }
}

void write_upstream(net::BitWriter& out, SectionTag tag,
                    const UpstreamRule& rule, std::size_t up_ports,
                    std::size_t down_ports) {
  out.write(static_cast<std::uint64_t>(tag), kTagBits);
  out.write_bool(rule.multipath);
  write_bitmap(out, rule.up, up_ports);
  write_bitmap(out, rule.down, down_ports);
  out.align_to_byte();
}

}  // namespace

net::PortBitmap HeaderCodec::read_bitmap(net::BitReader& in,
                                         std::size_t ports) const {
  net::PortBitmap bitmap{ports};
  for (std::size_t p = 0; p < ports; ++p) {
    if (in.read_bool()) bitmap.set(p);
  }
  return bitmap;
}

void HeaderCodec::write_rule_layer(
    net::BitWriter& out, SectionTag tag, const std::vector<PRule>& rules,
    const std::optional<net::PortBitmap>& default_rule, std::size_t ports,
    unsigned id_bits) const {
  if (rules.empty() && !default_rule) return;  // omit empty section
  if (rules.size() > kMaxRulesPerLayer) {
    throw std::length_error{"HeaderCodec: too many p-rules in one layer"};
  }
  out.write(static_cast<std::uint64_t>(tag), kTagBits);
  out.write_bool(default_rule.has_value());
  out.write(rules.size(), kCountBits);
  for (const auto& rule : rules) {
    if (rule.switch_ids.empty()) {
      throw std::invalid_argument{"HeaderCodec: p-rule without switch ids"};
    }
    write_bitmap(out, rule.bitmap, ports);
    for (std::size_t i = 0; i < rule.switch_ids.size(); ++i) {
      if ((std::uint64_t{rule.switch_ids[i]} >> id_bits) != 0) {
        throw std::invalid_argument{"HeaderCodec: switch id exceeds id bits"};
      }
      out.write(rule.switch_ids[i], id_bits);
      out.write_bool(i + 1 < rule.switch_ids.size());
    }
  }
  if (default_rule) write_bitmap(out, *default_rule, ports);
  out.align_to_byte();
}

std::vector<std::uint8_t> HeaderCodec::serialize(
    const SenderEncoding& sender, const GroupEncoding& group) const {
  return serialize(sender, serialize_downstream(group));
}

std::vector<std::uint8_t> HeaderCodec::serialize_downstream(
    const GroupEncoding& group) const {
  net::BitWriter out;
  write_rule_layer(out, SectionTag::kSpineRules, group.spine.p_rules,
                   group.spine.default_rule, topo_->spine_down_ports(),
                   topo_->pod_id_bits());
  write_rule_layer(out, SectionTag::kLeafRules, group.leaf.p_rules,
                   group.leaf.default_rule, topo_->leaf_down_ports(),
                   topo_->leaf_id_bits());
  out.write(static_cast<std::uint64_t>(SectionTag::kEnd), kTagBits);
  return out.take();
}

std::vector<std::uint8_t> HeaderCodec::serialize(
    const SenderEncoding& sender,
    std::span<const std::uint8_t> downstream) const {
  net::BitWriter out;
  write_upstream(out, SectionTag::kULeaf, sender.u_leaf,
                 topo_->leaf_up_ports(), topo_->leaf_down_ports());
  if (sender.u_spine) {
    write_upstream(out, SectionTag::kUSpine, *sender.u_spine,
                   topo_->spine_up_ports(), topo_->spine_down_ports());
  }
  if (sender.core_pods) {
    out.write(static_cast<std::uint64_t>(SectionTag::kCore), kTagBits);
    write_bitmap(out, *sender.core_pods, topo_->core_ports());
    out.align_to_byte();
  }
  auto bytes = out.take();
  bytes.insert(bytes.end(), downstream.begin(), downstream.end());
  return bytes;
}

ParsedHeader HeaderCodec::parse(std::span<const std::uint8_t> data) const {
  ParsedHeader header;
  net::BitReader in{data};

  auto read_upstream = [&](std::size_t up_ports, std::size_t down_ports) {
    UpstreamRule rule;
    rule.multipath = in.read_bool();
    rule.up = read_bitmap(in, up_ports);
    rule.down = read_bitmap(in, down_ports);
    return rule;
  };

  auto read_rule_layer = [&](std::size_t ports, unsigned id_bits,
                             std::vector<PRule>& rules,
                             std::optional<net::PortBitmap>& default_rule) {
    const bool has_default = in.read_bool();
    const auto count = in.read(kCountBits);
    for (std::uint64_t r = 0; r < count; ++r) {
      PRule rule;
      rule.bitmap = read_bitmap(in, ports);
      bool more = true;
      while (more) {
        rule.switch_ids.push_back(static_cast<std::uint32_t>(in.read(id_bits)));
        more = in.read_bool();
      }
      rules.push_back(std::move(rule));
    }
    if (has_default) default_rule = read_bitmap(in, ports);
  };

  while (true) {
    if (in.bits_remaining() < kTagBits) {
      throw std::out_of_range{"ElmoHeader: missing END section"};
    }
    const auto tag = static_cast<SectionTag>(in.read(kTagBits));
    switch (tag) {
      case SectionTag::kEnd:
        in.align_to_byte();
        return header;
      case SectionTag::kULeaf:
        header.u_leaf =
            read_upstream(topo_->leaf_up_ports(), topo_->leaf_down_ports());
        break;
      case SectionTag::kUSpine:
        header.u_spine =
            read_upstream(topo_->spine_up_ports(), topo_->spine_down_ports());
        break;
      case SectionTag::kCore:
        header.core_pods = read_bitmap(in, topo_->core_ports());
        break;
      case SectionTag::kSpineRules:
        read_rule_layer(topo_->spine_down_ports(), topo_->pod_id_bits(),
                        header.spine_rules, header.spine_default);
        break;
      case SectionTag::kLeafRules:
        read_rule_layer(topo_->leaf_down_ports(), topo_->leaf_id_bits(),
                        header.leaf_rules, header.leaf_default);
        break;
      default:
        throw std::invalid_argument{"ElmoHeader: unknown section tag"};
    }
    in.align_to_byte();
  }
}

std::vector<SectionExtent> HeaderCodec::scan_sections(
    std::span<const std::uint8_t> data) const {
  std::vector<SectionExtent> extents;
  net::BitReader in{data};

  auto skip_bitmap = [&](std::size_t ports) {
    for (; ports > 64; ports -= 64) in.read(64);  // BitReader reads <= 64
    in.read(static_cast<unsigned>(ports));
  };
  auto skip_rule_layer = [&](std::size_t ports, unsigned id_bits) {
    const bool has_default = in.read_bool();
    const auto count = in.read(kCountBits);
    for (std::uint64_t r = 0; r < count; ++r) {
      skip_bitmap(ports);
      while (true) {
        in.read(id_bits);
        if (!in.read_bool()) break;
      }
    }
    if (has_default) skip_bitmap(ports);
  };

  while (true) {
    SectionExtent extent;
    extent.begin = in.byte_position();
    if (in.bits_remaining() < kTagBits) {
      throw std::out_of_range{"ElmoHeader: missing END section"};
    }
    extent.tag = static_cast<SectionTag>(in.read(kTagBits));
    switch (extent.tag) {
      case SectionTag::kEnd:
        break;
      case SectionTag::kULeaf:
        in.read(1);
        skip_bitmap(topo_->leaf_up_ports());
        skip_bitmap(topo_->leaf_down_ports());
        break;
      case SectionTag::kUSpine:
        in.read(1);
        skip_bitmap(topo_->spine_up_ports());
        skip_bitmap(topo_->spine_down_ports());
        break;
      case SectionTag::kCore:
        skip_bitmap(topo_->core_ports());
        break;
      case SectionTag::kSpineRules:
        skip_rule_layer(topo_->spine_down_ports(), topo_->pod_id_bits());
        break;
      case SectionTag::kLeafRules:
        skip_rule_layer(topo_->leaf_down_ports(), topo_->leaf_id_bits());
        break;
      default:
        throw std::invalid_argument{"ElmoHeader: unknown section tag"};
    }
    in.align_to_byte();
    extent.end = in.byte_position();
    extents.push_back(extent);
    if (extent.tag == SectionTag::kEnd) return extents;
  }
}

std::size_t HeaderCodec::header_length(
    std::span<const std::uint8_t> data) const {
  return scan_sections(data).back().end;
}

std::size_t HeaderCodec::max_header_bytes(std::size_t hmax_spine,
                                          std::size_t hmax_leaf,
                                          std::size_t kmax_spine,
                                          std::size_t kmax_leaf) const {
  const auto& t = *topo_;
  if (kmax_spine == 0) kmax_spine = t.num_pods();
  auto rule_bits = [&](std::size_t ports, unsigned id_bits, std::size_t k) {
    return ports + k * (id_bits + 1);
  };
  std::size_t bits = 0;
  bits += section_bits(1 + t.leaf_up_ports() + t.leaf_down_ports());   // U_LEAF
  bits += section_bits(1 + t.spine_up_ports() + t.spine_down_ports()); // U_SPINE
  bits += section_bits(t.core_ports());                                // CORE
  bits += section_bits(1 + kCountBits +
                       hmax_spine * rule_bits(t.spine_down_ports(),
                                              t.pod_id_bits(), kmax_spine) +
                       t.spine_down_ports());  // spine layer + default
  bits += section_bits(1 + kCountBits +
                       hmax_leaf * rule_bits(t.leaf_down_ports(),
                                             t.leaf_id_bits(), kmax_leaf) +
                       t.leaf_down_ports());   // leaf layer + default
  bits += section_bits(0);                     // END
  return bits / 8;
}

std::size_t HeaderCodec::derive_hmax_leaf(const EncoderConfig& cfg) const {
  if (cfg.hmax_leaf_override > 0) {
    return std::min(cfg.hmax_leaf_override, kMaxRulesPerLayer);
  }
  const std::size_t budget = cfg.header_budget_bytes;
  std::size_t hmax = 1;
  while (hmax < kMaxRulesPerLayer &&
         max_header_bytes(cfg.hmax_spine, hmax + 1, cfg.kmax_spine,
                          cfg.kmax) <= budget) {
    ++hmax;
  }
  return hmax;
}

}  // namespace elmo
