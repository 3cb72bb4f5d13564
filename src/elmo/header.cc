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

// Writes `bitmap` as exactly `ports` bits, 64 at a time. Readers take the
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

// Reads `ports` bits written by write_bitmap, 64 at a time.
net::PortBitmap read_bitmap(net::BitReader& in, std::size_t ports) {
  net::PortBitmap bitmap{ports};
  for (std::size_t base = 0; base < ports; base += 64) {
    const auto bits =
        static_cast<unsigned>(std::min<std::size_t>(64, ports - base));
    for (auto word = reverse_bits(in.read(bits) << (64 - bits)); word != 0;
         word &= word - 1) {
      bitmap.set(base + static_cast<std::size_t>(__builtin_ctzll(word)));
    }
  }
  return bitmap;
}

// A reader over section `e` of `data`, just past its tag.
net::BitReader body_reader(std::span<const std::uint8_t> data,
                           const SectionExtent& e) {
  net::BitReader in{data.subspan(e.begin, e.end - e.begin)};
  in.skip(kTagBits);
  return in;
}

// Walks a rule-layer body in wire order, `in` just past its tag. Calls
// visit(index, rule, id_count) per p-rule, `rule` a reader at its bitmap,
// and stops early when visit returns true. Returns true when the walk ran
// to the end and a default bitmap follows, with `in` at it.
template <typename Visit>
bool walk_rules(net::BitReader& in, std::size_t ports, unsigned id_bits,
                Visit&& visit) {
  const bool has_default = in.read_bool();
  const auto count = static_cast<int>(in.read(kCountBits));
  for (int r = 0; r < count; ++r) {
    const net::BitReader rule = in;
    in.skip(ports);
    std::size_t ids = 0;
    do {
      in.skip(id_bits);
      ++ids;
    } while (in.read_bool());
    if (visit(r, rule, ids)) return false;
  }
  return has_default;
}

}  // namespace

HeaderCodec::BodyShape HeaderCodec::shape(SectionTag tag) const noexcept {
  const auto& t = *topo_;
  switch (tag) {
    case SectionTag::kULeaf:
      return {true, false, t.leaf_up_ports(), t.leaf_down_ports(), 0};
    case SectionTag::kUSpine:
      return {true, false, t.spine_up_ports(), t.spine_down_ports(), 0};
    case SectionTag::kCore:
      return {false, false, 0, t.core_ports(), 0};
    case SectionTag::kSpineRules:
      return {false, true, 0, t.spine_down_ports(), t.pod_id_bits()};
    case SectionTag::kLeafRules:
      return {false, true, 0, t.leaf_down_ports(), t.leaf_id_bits()};
    case SectionTag::kEnd:
      break;
  }
  return {};
}

void HeaderCodec::write_upstream(net::BitWriter& out, SectionTag tag,
                                 const UpstreamRule& rule) const {
  const auto s = shape(tag);
  out.write(static_cast<std::uint64_t>(tag), kTagBits);
  out.write_bool(rule.multipath);
  write_bitmap(out, rule.up, s.up_ports);
  write_bitmap(out, rule.down, s.ports);
  out.align_to_byte();
}

void HeaderCodec::write_rule_layer(
    net::BitWriter& out, SectionTag tag, const std::vector<PRule>& rules,
    const std::optional<net::PortBitmap>& default_rule) const {
  if (rules.empty() && !default_rule) return;  // omit empty section
  if (rules.size() > kMaxRulesPerLayer) {
    throw std::length_error{"HeaderCodec: too many p-rules in one layer"};
  }
  const auto s = shape(tag);
  out.write(static_cast<std::uint64_t>(tag), kTagBits);
  out.write_bool(default_rule.has_value());
  out.write(rules.size(), kCountBits);
  for (const auto& rule : rules) {
    if (rule.switch_ids.empty()) {
      throw std::invalid_argument{"HeaderCodec: p-rule without switch ids"};
    }
    write_bitmap(out, rule.bitmap, s.ports);
    for (std::size_t i = 0; i < rule.switch_ids.size(); ++i) {
      if ((std::uint64_t{rule.switch_ids[i]} >> s.id_bits) != 0) {
        throw std::invalid_argument{"HeaderCodec: switch id exceeds id bits"};
      }
      out.write(rule.switch_ids[i], s.id_bits);
      out.write_bool(i + 1 < rule.switch_ids.size());
    }
  }
  if (default_rule) write_bitmap(out, *default_rule, s.ports);
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
                   group.spine.default_rule);
  write_rule_layer(out, SectionTag::kLeafRules, group.leaf.p_rules,
                   group.leaf.default_rule);
  out.write(static_cast<std::uint64_t>(SectionTag::kEnd), kTagBits);
  return out.take();
}

std::vector<std::uint8_t> HeaderCodec::serialize(
    const SenderEncoding& sender,
    std::span<const std::uint8_t> downstream) const {
  net::BitWriter out;
  write_upstream(out, SectionTag::kULeaf, sender.u_leaf);
  if (sender.u_spine) write_upstream(out, SectionTag::kUSpine, *sender.u_spine);
  if (sender.core_pods) {
    out.write(static_cast<std::uint64_t>(SectionTag::kCore), kTagBits);
    write_bitmap(out, *sender.core_pods, topo_->core_ports());
    out.align_to_byte();
  }
  auto bytes = out.take();
  bytes.insert(bytes.end(), downstream.begin(), downstream.end());
  return bytes;
}

SectionMap HeaderCodec::sections(std::span<const std::uint8_t> data) const {
  SectionMap map;
  net::BitReader in{data};
  std::uint64_t last = 0;
  while (true) {
    if (in.bits_remaining() < kTagBits) {
      throw std::out_of_range{"ElmoHeader: missing END section"};
    }
    const auto begin = in.byte_position();
    const auto raw = in.read(kTagBits);
    if (raw > static_cast<std::uint64_t>(SectionTag::kLeafRules) ||
        (raw != 0 && raw <= last)) {
      throw std::invalid_argument{"ElmoHeader: unknown or out-of-order tag"};
    }
    const auto tag = static_cast<SectionTag>(raw);
    const auto s = shape(tag);
    if (!s.rules) {
      in.skip((s.upstream ? 1 + s.up_ports : 0) + s.ports);
    } else if (walk_rules(in, s.ports, s.id_bits,
                          [](auto&&...) { return false; })) {
      in.skip(s.ports);
    }
    in.align_to_byte();
    map.extents_[map.size_++] = {tag, begin, in.byte_position()};
    if (tag == SectionTag::kEnd) return map;
    last = raw;
  }
}

std::optional<UpstreamRule> HeaderCodec::read_upstream(
    std::span<const std::uint8_t> data, const SectionMap& map,
    SectionTag tag) const {
  const auto* e = map.find(tag);
  if (e == nullptr) return std::nullopt;
  const auto s = shape(tag);
  auto in = body_reader(data, *e);
  UpstreamRule rule;
  rule.multipath = in.read_bool();
  rule.up = read_bitmap(in, s.up_ports);
  rule.down = read_bitmap(in, s.ports);
  return rule;
}

std::optional<net::PortBitmap> HeaderCodec::read_core(
    std::span<const std::uint8_t> data, const SectionMap& map) const {
  const auto* e = map.find(SectionTag::kCore);
  if (e == nullptr) return std::nullopt;
  auto in = body_reader(data, *e);
  return read_bitmap(in, topo_->core_ports());
}

RuleMatch HeaderCodec::match_rule(std::span<const std::uint8_t> data,
                                  const SectionMap& map, SectionTag tag,
                                  std::uint32_t id) const {
  RuleMatch match;
  const auto* e = map.find(tag);
  if (e == nullptr) return match;
  const auto s = shape(tag);
  auto in = body_reader(data, *e);
  const bool has_default = walk_rules(
      in, s.ports, s.id_bits,
      [&](int index, net::BitReader rule, std::size_t ids) {
        auto at = rule;
        at.skip(s.ports);
        for (std::size_t i = 0; i < ids; ++i, at.skip(1)) {
          if (at.read(s.id_bits) != id) continue;
          match.bitmap = read_bitmap(rule, s.ports);
          match.index = index;
          match.shared = ids > 1;
          return true;
        }
        return false;
      });
  if (has_default) match.default_rule = read_bitmap(in, s.ports);
  return match;
}

ParsedHeader HeaderCodec::parse(std::span<const std::uint8_t> data) const {
  const auto map = sections(data);
  ParsedHeader header;
  header.u_leaf = read_upstream(data, map, SectionTag::kULeaf);
  header.u_spine = read_upstream(data, map, SectionTag::kUSpine);
  header.core_pods = read_core(data, map);
  auto read_layer = [&](SectionTag tag, std::vector<PRule>& rules,
                        std::optional<net::PortBitmap>& default_rule) {
    const auto* e = map.find(tag);
    if (e == nullptr) return;
    const auto s = shape(tag);
    auto in = body_reader(data, *e);
    const bool has_default = walk_rules(
        in, s.ports, s.id_bits,
        [&](int, net::BitReader rule, std::size_t ids) {
          auto& out = rules.emplace_back();
          out.bitmap = read_bitmap(rule, s.ports);
          for (std::size_t i = 0; i < ids; ++i, rule.skip(1)) {
            out.switch_ids.push_back(
                static_cast<std::uint32_t>(rule.read(s.id_bits)));
          }
          return false;
        });
    if (has_default) default_rule = read_bitmap(in, s.ports);
  };
  read_layer(SectionTag::kSpineRules, header.spine_rules,
             header.spine_default);
  read_layer(SectionTag::kLeafRules, header.leaf_rules, header.leaf_default);
  return header;
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
