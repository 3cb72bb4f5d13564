#include "sim/mtrace.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace elmo::sim {
namespace {

struct MtraceFixture : ::testing::Test {
  MtraceFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, elmo::EncoderConfig{}},
        fabric{topology} {}

  elmo::GroupId make_group(const std::vector<topo::HostId>& hosts) {
    std::vector<elmo::Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(elmo::Member{hosts[i], static_cast<std::uint32_t>(i),
                                     elmo::MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    fabric.install_group(controller, id);
    return id;
  }

  topo::ClosTopology topology;
  elmo::Controller controller;
  Fabric fabric;
};

TEST_F(MtraceFixture, SingleRackTrace) {
  const auto id = make_group({0, 1});
  const auto report = mtrace(fabric, controller, id, 0, 64);
  EXPECT_EQ(report.members_reached, 1u);
  EXPECT_EQ(report.redundant_copies, 0u);
  // host0 -> L0 -> host1: two link transmissions.
  ASSERT_EQ(report.link_transmissions(), 2u);
  const auto& hops = report.trace.hops;
  EXPECT_EQ(hops[0].layer, topo::Layer::kHost);
  EXPECT_EQ(hops[0].node, 0u);
  EXPECT_EQ(hops[1].layer, topo::Layer::kLeaf);
  EXPECT_EQ(hops[1].node, 0u);
  EXPECT_EQ(hops[1].parent, 0u);
  EXPECT_EQ(hops[2].layer, topo::Layer::kHost);
  EXPECT_EQ(hops[2].node, 1u);
  EXPECT_EQ(hops[2].parent, 1u);
  EXPECT_EQ(report.max_depth, 2u);
}

TEST_F(MtraceFixture, CrossPodTraceShowsPopping) {
  const auto id = make_group({0, 17, 33});
  const auto report = mtrace(fabric, controller, id, 0, 100);
  EXPECT_EQ(report.members_reached, 2u);
  EXPECT_GE(report.max_depth, 5u);  // host-leaf-spine-core-spine-leaf-host

  // Header bytes shrink monotonically with depth (p-rule popping): compare
  // the first hop against final host deliveries.
  const auto& hops = report.trace.hops;
  std::uint64_t first_hop_bytes = 0;
  std::uint64_t min_delivery_bytes = ~0ull;
  std::uint64_t wire_bytes = 0;
  for (std::size_t i = 1; i < hops.size(); ++i) {
    wire_bytes += hops[i].bytes_in;
    if (report.depth(i) == 1) first_hop_bytes = hops[i].bytes_in;
    if (hops[i].layer == topo::Layer::kHost) {
      min_delivery_bytes = std::min<std::uint64_t>(min_delivery_bytes,
                                                   hops[i].bytes_in);
    }
    // Every copy is no larger than the one it was replicated from.
    if (hops[i].parent != 0) {
      EXPECT_LE(hops[i].bytes_in, hops[hops[i].parent].bytes_in);
    }
  }
  EXPECT_GT(first_hop_bytes, min_delivery_bytes);
  EXPECT_EQ(min_delivery_bytes, net::kOuterHeaderBytes + 100);
  EXPECT_EQ(report.total_wire_bytes, wire_bytes);
}

TEST_F(MtraceFixture, RenderMentionsEveryLayer) {
  const auto id = make_group({0, 17});
  const auto report = mtrace(fabric, controller, id, 0, 64);
  const auto text = report.render();
  EXPECT_NE(text.find("host0"), std::string::npos);
  EXPECT_NE(text.find("L0"), std::string::npos);
  EXPECT_NE(text.find("S"), std::string::npos);
  EXPECT_NE(text.find("C"), std::string::npos);
  EXPECT_NE(text.find("host17"), std::string::npos);
  EXPECT_NE(text.find("members reached"), std::string::npos);
}

TEST_F(MtraceFixture, CounterDeltasCoverTheProbe) {
  const auto id = make_group({0, 1, 17});
  // Pre-probe traffic must not leak into the delta.
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  const auto report = mtrace(fabric, controller, id, 0, 64);

  // One probe: the sender's leaf sees it once, every delivery fans out of a
  // hypervisor, and nothing is dropped on a healthy fabric.
  const auto& c = report.counters;
  EXPECT_GE(c.leaves.packets_in, 1u);
  EXPECT_GE(c.leaves.copies_out, 2u);  // host1 (same rack) + spine path
  EXPECT_GT(c.leaves.bytes_in, 0u);
  EXPECT_GT(c.leaves.bytes_out, 0u);
  EXPECT_EQ(c.leaves.drops, 0u);
  EXPECT_EQ(c.hypervisors.received, report.members_reached);
  EXPECT_EQ(c.hypervisors.delivered_to_vms, report.members_reached);
  // Cross-pod probe traverses spines, so the pop accounting must move.
  EXPECT_GT(c.leaves.header_pops + c.spines.header_pops, 0u);

  const auto text = report.render();
  EXPECT_NE(text.find("counters (probe delta):"), std::string::npos);
}

TEST_F(MtraceFixture, CounterDeltaGoldenRender) {
  // Deterministic single-rack probe: host0 -> L0 -> host1. The sender's leaf
  // matches its upstream rule (the up-facing table owns packets entering from
  // the rack); the rule has no uplink, so the one pop is the host copy's
  // strip. Golden-pins the counter-delta section of the render so accounting
  // regressions show up as a literal diff.
  const auto id = make_group({0, 1});
  const auto report = mtrace(fabric, controller, id, 0, 64);
  const auto text = report.render();
  const auto counters = text.substr(text.find("counters (probe delta):"));
  EXPECT_EQ(counters,
            "counters (probe delta):\n"
            "  leaf : 1 in, 1 out, 0 p-rule, 1 upstream, 0 s-rule, "
            "0 default, 0 drops, 1 pops (" +
                std::to_string(report.counters.leaves.header_pop_bytes) +
                "B)\n"
                "  host : 1 received, 1 VM deliveries, 0 discarded\n");
}

TEST_F(MtraceFixture, RedundantCopiesAttributed) {
  // Force default-rule spurious deliveries with a tiny header budget.
  elmo::EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 1;
  cfg.srule_capacity = 0;
  elmo::Controller tight{topology, cfg};
  Fabric tight_fabric{topology};
  std::vector<elmo::Member> members;
  for (std::uint32_t i = 0; i < 12; ++i) {
    members.push_back(elmo::Member{i * 5 % 64, i, elmo::MemberRole::kBoth});
  }
  const auto id = tight.create_group(0, members);
  tight_fabric.install_group(tight, id);
  const auto report = mtrace(tight_fabric, tight, id, members[0].host, 64);
  EXPECT_GT(report.redundant_copies, 0u);
  EXPECT_EQ(report.members_reached, members.size() - 1);
  // Every host copy is one or the other, and the render says which.
  const auto& h = report.counters.hypervisors;
  EXPECT_EQ(report.members_reached + report.redundant_copies, h.received);
  const auto text = report.render();
  EXPECT_NE(text.find("<- member"), std::string::npos);
  EXPECT_NE(text.find("<- redundant"), std::string::npos);
}

TEST_F(MtraceFixture, ProbeKeepsEarlierLinkCounters) {
  const auto id = make_group({0, 1, 17, 33});
  for (int i = 0; i < 10; ++i) {
    (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  }
  auto total = [](const auto& links) {
    std::uint64_t packets = 0;
    for (const auto& [edge, stats] : links) packets += stats.packets;
    return packets;
  };
  const auto before = fabric.links();
  const auto report = mtrace(fabric, controller, id, 0, 64);
  const auto after = fabric.links();

  // The probe adds its own transmissions and erases none of the history.
  EXPECT_GT(total(before), 0u);
  EXPECT_EQ(total(after), total(before) + report.link_transmissions());
  for (const auto& [edge, stats] : before) {
    ASSERT_TRUE(after.contains(edge));
    EXPECT_GE(after.at(edge).packets, stats.packets);
  }
}

TEST_F(MtraceFixture, LossyProbesNeverCountLostCopiesAsReached) {
  const auto id = make_group({0, 1, 2, 17, 18, 33, 49});
  fabric.set_loss(0.5, 7);
  std::size_t lost = 0;
  for (int probe = 0; probe < 20; ++probe) {
    const auto report = mtrace(fabric, controller, id, 0, 64);
    const auto& hops = report.trace.hops;
    std::size_t lost_here = 0;
    std::size_t host_arrivals = 0;
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (hops[i].lost) {
        ++lost_here;
        // A lost copy keeps the wire size it was sent with, has no
        // decision and no note.
        EXPECT_GE(hops[i].bytes_in, net::kOuterHeaderBytes + 64);
        EXPECT_EQ(hops[i].decision.rule, obs::RuleClass::kNone);
        EXPECT_TRUE(hops[i].children.empty());
        EXPECT_EQ(report.notes[i], nullptr);
      } else if (hops[i].layer == topo::Layer::kHost) {
        ++host_arrivals;
        EXPECT_NE(report.notes[i], nullptr);
      }
    }
    EXPECT_EQ(report.lost_copies, lost_here);
    // Reached copies are exactly the ones the hypervisors received.
    EXPECT_EQ(report.members_reached + report.redundant_copies, host_arrivals);
    EXPECT_EQ(host_arrivals, report.counters.hypervisors.received);
    lost += lost_here;
  }
  EXPECT_GT(lost, 0u);  // the campaign did lose copies
}

TEST_F(MtraceFixture, RecordsIntoTheAttachedLogOrALocalOne) {
  const auto id = make_group({0, 17});
  (void)mtrace(fabric, controller, id, 0, 64);
  EXPECT_EQ(fabric.provenance(), nullptr);  // the local log was detached

  obs::ProvenanceLog log;
  fabric.set_provenance(&log);
  const auto report = mtrace(fabric, controller, id, 0, 64);
  EXPECT_EQ(fabric.provenance(), &log);
  ASSERT_EQ(log.sends().size(), 1u);
  EXPECT_EQ(log.last().hops.size(), report.trace.hops.size());
}

}  // namespace
}  // namespace elmo::sim
