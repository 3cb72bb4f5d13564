#include "elmo/header.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace elmo {
namespace {

topo::ClosTopology example_topo() {
  return topo::ClosTopology{topo::ClosParams::running_example()};
}

net::PortBitmap bitmap_of(std::size_t ports,
                          std::initializer_list<std::size_t> set) {
  net::PortBitmap b{ports};
  for (const auto p : set) b.set(p);
  return b;
}

SenderEncoding simple_sender(const topo::ClosTopology& t) {
  SenderEncoding s;
  s.u_leaf.down = bitmap_of(t.leaf_down_ports(), {1});
  s.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  s.u_leaf.multipath = true;
  UpstreamRule u_spine;
  u_spine.down = net::PortBitmap{t.spine_down_ports()};
  u_spine.up = net::PortBitmap{t.spine_up_ports()};
  u_spine.multipath = true;
  s.u_spine = u_spine;
  s.core_pods = bitmap_of(t.core_ports(), {2, 3});
  return s;
}

GroupEncoding simple_group(const topo::ClosTopology& t) {
  GroupEncoding g;
  g.spine.p_rules.push_back(
      PRule{bitmap_of(t.spine_down_ports(), {1}), {2}});
  g.spine.p_rules.push_back(
      PRule{bitmap_of(t.spine_down_ports(), {0, 1}), {3, 0}});
  g.leaf.p_rules.push_back(
      PRule{bitmap_of(t.leaf_down_ports(), {0, 1}), {0, 6}});
  g.leaf.p_rules.push_back(PRule{bitmap_of(t.leaf_down_ports(), {1}), {5}});
  g.leaf.default_rule = bitmap_of(t.leaf_down_ports(), {0});
  return g;
}

TEST(HeaderCodec, RoundTripFullHeader) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto sender = simple_sender(t);
  const auto group = simple_group(t);
  const auto bytes = codec.serialize(sender, group);

  const auto parsed = codec.parse(bytes);
  ASSERT_TRUE(parsed.u_leaf);
  EXPECT_EQ(parsed.u_leaf->down, sender.u_leaf.down);
  EXPECT_EQ(parsed.u_leaf->multipath, true);
  ASSERT_TRUE(parsed.u_spine);
  EXPECT_EQ(parsed.u_spine->multipath, true);
  ASSERT_TRUE(parsed.core_pods);
  EXPECT_EQ(*parsed.core_pods, *sender.core_pods);
  ASSERT_EQ(parsed.spine_rules.size(), 2u);
  EXPECT_EQ(parsed.spine_rules[0], group.spine.p_rules[0]);
  EXPECT_EQ(parsed.spine_rules[1], group.spine.p_rules[1]);
  EXPECT_FALSE(parsed.spine_default);
  ASSERT_EQ(parsed.leaf_rules.size(), 2u);
  EXPECT_EQ(parsed.leaf_rules[0], group.leaf.p_rules[0]);
  ASSERT_TRUE(parsed.leaf_default);
  EXPECT_EQ(*parsed.leaf_default, *group.leaf.default_rule);
}

TEST(HeaderCodec, MinimalHeaderIsTiny) {
  // Single-rack group: only the u-leaf section plus END.
  const auto t = example_topo();
  const HeaderCodec codec{t};
  SenderEncoding sender;
  sender.u_leaf.down = bitmap_of(t.leaf_down_ports(), {0});
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  const auto bytes = codec.serialize(sender, GroupEncoding{});
  // u-leaf: 3 tag + 1 mp + 2 up + 2 down = 8 bits = 1 byte; END = 1 byte.
  EXPECT_EQ(bytes.size(), 2u);
  const auto parsed = codec.parse(bytes);
  EXPECT_TRUE(parsed.u_leaf);
  EXPECT_FALSE(parsed.u_spine);
  EXPECT_FALSE(parsed.core_pods);
  EXPECT_TRUE(parsed.spine_rules.empty());
  EXPECT_TRUE(parsed.leaf_rules.empty());
}

TEST(HeaderCodec, SectionsAreByteAlignedAndOrdered) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto bytes = codec.serialize(simple_sender(t), simple_group(t));
  const auto map = codec.sections(bytes);
  const auto sections = map.extents();
  ASSERT_EQ(sections.size(), 6u);
  EXPECT_EQ(sections.front().begin, 0u);
  int prev_tag = -1;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& s = sections[i];
    EXPECT_EQ(s.begin % 1, 0u);
    if (i > 0) {
      EXPECT_EQ(s.begin, sections[i - 1].end);
    }
    if (s.tag != SectionTag::kEnd) {
      EXPECT_GT(static_cast<int>(s.tag), prev_tag);
      prev_tag = static_cast<int>(s.tag);
    } else {
      EXPECT_EQ(i, sections.size() - 1);
    }
  }
  EXPECT_EQ(map.length(), sections.back().end);
  EXPECT_EQ(map.length(), bytes.size());
}

TEST(HeaderCodec, ScanToleratesTrailingPayload) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  auto bytes = codec.serialize(simple_sender(t), simple_group(t));
  const auto clean_len = bytes.size();
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});  // payload after END
  EXPECT_EQ(codec.sections(bytes).length(), clean_len);
}

TEST(HeaderCodec, MissingEndThrows) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  auto bytes = codec.serialize(sender, GroupEncoding{});
  bytes.pop_back();  // drop the END byte
  EXPECT_THROW(codec.parse(bytes), std::out_of_range);
}

TEST(HeaderCodec, RejectsRepeatedAndOutOfOrderSections) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto bytes = codec.serialize(simple_sender(t), simple_group(t));
  const auto map = codec.sections(bytes);
  auto section = [&](SectionTag tag) {
    const auto* e = map.find(tag);
    return std::vector<std::uint8_t>{bytes.begin() + e->begin,
                                     bytes.begin() + e->end};
  };
  auto join = [](std::initializer_list<std::vector<std::uint8_t>> parts) {
    std::vector<std::uint8_t> out;
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  };
  const auto u_leaf = section(SectionTag::kULeaf);
  const auto u_spine = section(SectionTag::kUSpine);
  const auto core = section(SectionTag::kCore);
  const auto spine = section(SectionTag::kSpineRules);
  const auto leaf = section(SectionTag::kLeafRules);
  const auto end = section(SectionTag::kEnd);
  ASSERT_EQ(join({u_leaf, u_spine, core, spine, leaf, end}), bytes);

  for (const auto& bad : {join({u_leaf, u_spine, core, core, spine, end}),
                          join({u_leaf, core, u_spine, spine, leaf, end}),
                          join({u_leaf, u_spine, core, leaf, spine, end}),
                          join({u_spine, u_leaf, end}),
                          join({leaf, leaf, end})}) {
    EXPECT_THROW((void)codec.sections(bad), std::invalid_argument);
    EXPECT_THROW((void)codec.parse(bad), std::invalid_argument);
  }
  // Any strictly ascending subset is a header.
  EXPECT_EQ(codec.sections(join({u_spine, leaf, end})).length(),
            u_spine.size() + leaf.size() + end.size());
}

TEST(HeaderCodec, RejectsRuleWithoutIds) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  GroupEncoding g;
  g.leaf.p_rules.push_back(PRule{bitmap_of(t.leaf_down_ports(), {0}), {}});
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  EXPECT_THROW(codec.serialize(sender, g), std::invalid_argument);
}

TEST(HeaderCodec, RejectsTooManyRules) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  GroupEncoding g;
  for (int i = 0; i < 128; ++i) {
    g.leaf.p_rules.push_back(
        PRule{bitmap_of(t.leaf_down_ports(), {0}), {0}});
  }
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  EXPECT_THROW(codec.serialize(sender, g), std::length_error);
}

TEST(HeaderCodec, RejectsBitmapOfWrongDomain) {
  // parse reads each layer's port count; a bitmap of any other size would
  // shift every later field.
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto group = simple_group(t);

  auto sender = simple_sender(t);
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports() + 1};
  EXPECT_THROW(codec.serialize(sender, group), std::invalid_argument);

  sender = simple_sender(t);
  sender.u_spine->up = net::PortBitmap{};
  EXPECT_THROW(codec.serialize(sender, group), std::invalid_argument);

  sender = simple_sender(t);
  sender.core_pods = net::PortBitmap{t.core_ports() - 1};
  EXPECT_THROW(codec.serialize(sender, group), std::invalid_argument);

  auto bad_rule = simple_group(t);
  bad_rule.leaf.p_rules[0].bitmap = net::PortBitmap{t.spine_down_ports() + 3};
  EXPECT_THROW(codec.serialize(simple_sender(t), bad_rule),
               std::invalid_argument);
  EXPECT_THROW(codec.serialize_downstream(bad_rule), std::invalid_argument);

  auto bad_default = simple_group(t);
  bad_default.spine.default_rule = net::PortBitmap{1};
  EXPECT_THROW(codec.serialize(simple_sender(t), bad_default),
               std::invalid_argument);
}

TEST(HeaderCodec, RejectsSwitchIdWiderThanIdBits) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  auto leaf = simple_group(t);
  leaf.leaf.p_rules[1].switch_ids = {5, 1u << t.leaf_id_bits()};
  EXPECT_THROW(codec.serialize(simple_sender(t), leaf),
               std::invalid_argument);

  auto spine = simple_group(t);
  spine.spine.p_rules[0].switch_ids = {1u << t.pod_id_bits()};
  EXPECT_THROW(codec.serialize_downstream(spine), std::invalid_argument);

  // The widest id that fits still round-trips.
  auto widest = simple_group(t);
  const auto max_leaf = (1u << t.leaf_id_bits()) - 1;
  widest.leaf.p_rules[1].switch_ids = {max_leaf};
  const auto parsed = codec.parse(codec.serialize(simple_sender(t), widest));
  ASSERT_EQ(parsed.leaf_rules.size(), 2u);
  EXPECT_EQ(parsed.leaf_rules[1].switch_ids,
            (std::vector<std::uint32_t>{max_leaf}));
}

TEST(HeaderCodec, DownstreamIsTheSenderIndependentSuffix) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto group = simple_group(t);
  const auto downstream = codec.serialize_downstream(group);
  for (const bool spine_and_core : {false, true}) {
    auto sender = simple_sender(t);
    if (!spine_and_core) {
      sender.u_spine.reset();
      sender.core_pods.reset();
    }
    const auto full = codec.serialize(sender, group);
    EXPECT_EQ(codec.serialize(sender, downstream), full);
    ASSERT_GT(full.size(), downstream.size());
    EXPECT_TRUE(std::equal(downstream.begin(), downstream.end(),
                           full.end() - static_cast<std::ptrdiff_t>(
                                            downstream.size())));
    // The suffix starts at the first rule section.
    const auto map = codec.sections(full);
    const auto* spine = map.find(SectionTag::kSpineRules);
    ASSERT_NE(spine, nullptr);
    EXPECT_EQ(spine->begin, full.size() - downstream.size());
  }
  // A group with no p-rules contributes only the END byte.
  EXPECT_EQ(codec.serialize_downstream(GroupEncoding{}),
            (std::vector<std::uint8_t>{0x00}));
}

TEST(HeaderCodec, MaxHeaderBytesMonotoneInRules) {
  const auto t = example_topo();
  const HeaderCodec codec{t};
  const auto small = codec.max_header_bytes(2, 5, 2, 2);
  const auto bigger = codec.max_header_bytes(2, 10, 2, 2);
  const auto wider = codec.max_header_bytes(2, 5, 2, 4);
  EXPECT_LT(small, bigger);
  EXPECT_LT(small, wider);
}

TEST(HeaderCodec, DeriveHmaxRespectsBudget) {
  const topo::ClosTopology fabric{topo::ClosParams::facebook_fabric()};
  const HeaderCodec codec{fabric};
  EncoderConfig cfg;
  cfg.header_budget_bytes = 325;
  const auto hmax = codec.derive_hmax_leaf(cfg);
  EXPECT_LE(codec.max_header_bytes(cfg.hmax_spine, hmax, cfg.kmax_spine,
                                   cfg.kmax),
            325u);
  EXPECT_GT(codec.max_header_bytes(cfg.hmax_spine, hmax + 1, cfg.kmax_spine,
                                   cfg.kmax),
            325u);
  // The paper's configuration: ~30 leaf p-rules within 325 bytes.
  EXPECT_GE(hmax, 25u);
  EXPECT_LE(hmax, 35u);
}

TEST(HeaderCodec, DeriveHmaxHonorsOverride) {
  const topo::ClosTopology fabric{topo::ClosParams::facebook_fabric()};
  const HeaderCodec codec{fabric};
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 10;
  EXPECT_EQ(codec.derive_hmax_leaf(cfg), 10u);
}

// Random full headers (both upstream sections, core, spine and leaf rule
// layers with defaults) survive serialize -> parse, and the suffix-taking
// serialize reproduces the one-call bytes.
void random_encodings_round_trip(const topo::ClosTopology& fabric,
                                 std::uint64_t seed, int trials) {
  const HeaderCodec codec{fabric};
  util::Rng rng{seed};
  auto random_bitmap = [&](std::size_t ports, double p) {
    net::PortBitmap b{ports};
    for (std::size_t i = 0; i < ports; ++i) {
      if (rng.bernoulli(p)) b.set(i);
    }
    return b;
  };
  auto random_rules = [&](std::size_t ports, std::size_t ids) {
    std::vector<PRule> rules(rng.index(5));
    for (auto& rule : rules) {
      rule.bitmap = random_bitmap(ports, 0.4);
      const auto nids = 1 + rng.index(3);
      for (std::size_t i = 0; i < nids; ++i) {
        rule.switch_ids.push_back(static_cast<std::uint32_t>(rng.index(ids)));
      }
    }
    return rules;
  };
  for (int trial = 0; trial < trials; ++trial) {
    SenderEncoding sender;
    sender.u_leaf.up = random_bitmap(fabric.leaf_up_ports(), 0.3);
    sender.u_leaf.down = random_bitmap(fabric.leaf_down_ports(), 0.3);
    sender.u_leaf.multipath = rng.bernoulli(0.5);
    if (rng.bernoulli(0.7)) {
      UpstreamRule u_spine;
      u_spine.up = random_bitmap(fabric.spine_up_ports(), 0.3);
      u_spine.down = random_bitmap(fabric.spine_down_ports(), 0.3);
      u_spine.multipath = rng.bernoulli(0.5);
      sender.u_spine = std::move(u_spine);
      if (rng.bernoulli(0.7)) {
        sender.core_pods = random_bitmap(fabric.core_ports(), 0.5);
      }
    }

    GroupEncoding group;
    group.spine.p_rules =
        random_rules(fabric.spine_down_ports(), fabric.num_pods());
    group.leaf.p_rules =
        random_rules(fabric.leaf_down_ports(), fabric.num_leaves());
    if (rng.bernoulli(0.3)) {
      group.spine.default_rule = random_bitmap(fabric.spine_down_ports(), 0.5);
    }
    if (rng.bernoulli(0.3)) {
      group.leaf.default_rule = random_bitmap(fabric.leaf_down_ports(), 0.5);
    }

    const auto bytes = codec.serialize(sender, group);
    EXPECT_EQ(codec.serialize(sender, codec.serialize_downstream(group)),
              bytes);
    const auto map = codec.sections(bytes);
    EXPECT_EQ(map.length(), bytes.size());
    const auto parsed = codec.parse(bytes);
    ASSERT_TRUE(parsed.u_leaf);
    EXPECT_EQ(parsed.u_leaf->up, sender.u_leaf.up);
    EXPECT_EQ(parsed.u_leaf->down, sender.u_leaf.down);
    EXPECT_EQ(parsed.u_leaf->multipath, sender.u_leaf.multipath);
    ASSERT_EQ(parsed.u_spine.has_value(), sender.u_spine.has_value());
    if (sender.u_spine) {
      EXPECT_EQ(parsed.u_spine->up, sender.u_spine->up);
      EXPECT_EQ(parsed.u_spine->down, sender.u_spine->down);
      EXPECT_EQ(parsed.u_spine->multipath, sender.u_spine->multipath);
    }
    EXPECT_EQ(parsed.core_pods, sender.core_pods);
    EXPECT_EQ(parsed.spine_rules, group.spine.p_rules);
    EXPECT_EQ(parsed.spine_default, group.spine.default_rule);
    EXPECT_EQ(parsed.leaf_rules, group.leaf.p_rules);
    EXPECT_EQ(parsed.leaf_default, group.leaf.default_rule);

    // The map's extents tile the header, and a copy for a hop that needs
    // `tag` starts at a section it still needs, with every earlier section
    // consumed.
    const auto extents = map.extents();
    ASSERT_FALSE(extents.empty());
    EXPECT_EQ(extents.front().begin, 0u);
    EXPECT_EQ(extents.back().tag, SectionTag::kEnd);
    for (std::size_t i = 1; i < extents.size(); ++i) {
      EXPECT_EQ(extents[i].begin, extents[i - 1].end);
    }
    EXPECT_EQ(map.find(SectionTag::kUSpine) != nullptr,
              sender.u_spine.has_value());
    EXPECT_EQ(map.find(SectionTag::kCore) != nullptr,
              sender.core_pods.has_value());
    for (int needed = 1; needed <= 5; ++needed) {
      const auto tag = static_cast<SectionTag>(needed);
      const auto offset = map.pop_offset(tag);
      for (const auto& e : extents) {
        if (e.begin < offset) {
          EXPECT_LT(static_cast<int>(e.tag), needed);
        } else if (e.begin == offset) {
          EXPECT_TRUE(e.tag == SectionTag::kEnd || e.tag >= tag);
        }
      }
      if (const auto* e = map.find(tag)) {
        EXPECT_EQ(offset, e->begin);
      }
    }

    // A switch's own-section match is first-match over the full decode.
    auto expect_match = [&](SectionTag layer, const std::vector<PRule>& rules,
                            const std::optional<net::PortBitmap>& fallback,
                            std::size_t ids) {
      for (std::uint32_t id = 0; id < ids; ++id) {
        const auto match = codec.match_rule(bytes, map, layer, id);
        const auto first = std::find_if(
            rules.begin(), rules.end(), [&](const PRule& rule) {
              return std::find(rule.switch_ids.begin(), rule.switch_ids.end(),
                               id) != rule.switch_ids.end();
            });
        if (first == rules.end()) {
          EXPECT_FALSE(match.bitmap) << "id " << id;
          EXPECT_EQ(match.index, -1);
          EXPECT_FALSE(match.shared);
          EXPECT_EQ(match.default_rule, fallback) << "id " << id;
          continue;
        }
        ASSERT_TRUE(match.bitmap) << "id " << id;
        EXPECT_EQ(*match.bitmap, first->bitmap);
        EXPECT_EQ(match.index, first - rules.begin());
        EXPECT_EQ(match.shared, first->switch_ids.size() > 1);
        EXPECT_FALSE(match.default_rule);
      }
    };
    expect_match(SectionTag::kSpineRules, parsed.spine_rules,
                 parsed.spine_default, fabric.num_pods());
    expect_match(SectionTag::kLeafRules, parsed.leaf_rules,
                 parsed.leaf_default, fabric.num_leaves());
  }
}

TEST(HeaderCodec, RandomHeadersWiderThan64PortsRoundTrip) {
  // 100 host ports per leaf and 70 leaves per pod: every leaf and spine
  // downstream bitmap crosses a 64-bit word boundary. The paper fabric's
  // bitmaps are at most 48 bits wide and never do.
  const topo::ClosTopology fabric{topo::ClosParams{.pods = 3,
                                                   .leaves_per_pod = 70,
                                                   .spines_per_pod = 2,
                                                   .cores_per_plane = 2,
                                                   .hosts_per_leaf = 100}};
  ASSERT_GT(fabric.leaf_down_ports(), 64u);
  ASSERT_GT(fabric.spine_down_ports(), 64u);
  random_encodings_round_trip(fabric, 606, 100);

  // Past 128 ports a PortBitmap moves its words to the heap; 200 ports is
  // three full words and a partial fourth.
  const topo::ClosTopology wider{topo::ClosParams{.pods = 2,
                                                  .leaves_per_pod = 4,
                                                  .spines_per_pod = 2,
                                                  .cores_per_plane = 2,
                                                  .hosts_per_leaf = 200}};
  ASSERT_GT(wider.leaf_down_ports(), 128u);
  random_encodings_round_trip(wider, 707, 100);
}

TEST(HeaderCodec, RandomEncodingsRoundTrip) {
  random_encodings_round_trip(
      topo::ClosTopology{topo::ClosParams::small_test()}, 404, 200);
}

}  // namespace
}  // namespace elmo
