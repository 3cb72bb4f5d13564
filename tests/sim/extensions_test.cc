// Extension coverage: two-tier leaf-spine fabrics, loss injection with the
// PGM-style reliability layer, and multi-datacenter relay multicast.
#include <gtest/gtest.h>

#include "apps/multidc.h"
#include "apps/reliable.h"
#include "dataplane/common.h"
#include "elmo/evaluator.h"
#include "sim/fabric.h"
#include "testutil.h"

namespace elmo {
namespace {

// --- two-tier leaf-spine (paper: "qualitatively similar results") ----------

TEST(TwoTier, EncodingHasNoCoreSection) {
  const topo::ClosTopology t{topo::ClosParams::two_tier_leaf_spine()};
  const std::vector<topo::HostId> members{0, 40, 500, 900};
  const MulticastTree tree{t, members};
  EXPECT_FALSE(tree.spans_multiple_pods());
  const auto enc = tree.sender_encoding(0);
  EXPECT_FALSE(enc.core_pods);
  ASSERT_TRUE(enc.u_spine);
  EXPECT_FALSE(enc.u_spine->multipath);  // nothing above the spine tier
}

TEST(TwoTier, CrosscheckFabricVsEvaluator) {
  const topo::ClosTopology t{topo::ClosParams::two_tier_leaf_spine()};
  Controller controller{t, EncoderConfig{}};
  sim::Fabric fabric{t};
  const TrafficEvaluator evaluator{t};
  util::Rng rng{606};

  for (int trial = 0; trial < 10; ++trial) {
    const auto hosts = test::random_hosts(t, 3 + rng.index(40), rng);
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    fabric.install_group(controller, id);
    const auto& g = controller.group(id);

    const auto fr = fabric.send(hosts[0], g.address, 512);
    const auto report = evaluator.evaluate(
        *g.tree, g.encoding, hosts[0], 512,
        dp::flow_hash(dp::host_address(hosts[0]), g.address));
    EXPECT_EQ(fr.total_wire_bytes, report.elmo_wire_bytes);
    EXPECT_TRUE(report.delivery.exactly_once());
    fabric.uninstall_group(controller, id);
    controller.remove_group(id);
  }
}

// --- loss injection + reliability layer ------------------------------------

struct LossFixture : ::testing::Test {
  LossFixture()
      : topology{topo::ClosParams::small_test()},
        controller{topology, EncoderConfig{}},
        fabric{topology} {}

  GroupId make_group(const std::vector<topo::HostId>& hosts) {
    std::vector<Member> members;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      members.push_back(Member{hosts[i], static_cast<std::uint32_t>(i),
                               MemberRole::kBoth});
    }
    const auto id = controller.create_group(0, members);
    fabric.install_group(controller, id);
    return id;
  }

  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
};

TEST_F(LossFixture, LossDropsSomeDeliveries) {
  const auto id = make_group({0, 17, 33, 49, 5, 21});
  fabric.set_loss(0.4, /*seed=*/9);
  std::size_t delivered = 0;
  for (int i = 0; i < 20; ++i) {
    delivered +=
        fabric.send(0, controller.group(id).address, 100).host_copies.size();
  }
  EXPECT_LT(delivered, 20u * 5u);  // strictly lossy
  EXPECT_GT(delivered, 0u);
}

TEST_F(LossFixture, ZeroLossIsLossless) {
  const auto id = make_group({0, 17, 33});
  fabric.set_loss(0.0);
  const auto result = fabric.send(0, controller.group(id).address, 100);
  EXPECT_EQ(result.host_copies.size(), 2u);
}

// Loss draws come from a per-send stream keyed by the send ordinal, so what a
// send loses does not depend on how many draws earlier sends consumed. Two
// fabrics with the same loss seed first send to a wide and a narrow group
// respectively, then must see identical results for the same later sends.
TEST_F(LossFixture, PerSendLossStreamIgnoresEarlierDraws) {
  const auto wide = make_group({0, 5, 9, 17, 21, 33, 37, 49, 53, 61});
  const auto narrow = make_group({0, 1});
  const auto y = make_group({2, 6, 18, 22, 34, 38, 50, 54});
  sim::Fabric other{topology};
  for (const auto id : {wide, narrow, y}) other.install_group(controller, id);
  fabric.set_loss(0.3, /*seed=*/77);
  other.set_loss(0.3, /*seed=*/77);

  for (int i = 0; i < 4; ++i) {
    (void)fabric.send(0, controller.group(wide).address, 64);
    (void)other.send(0, controller.group(narrow).address, 64);
  }
  // One draw per link transmission: the two fabrics consumed different
  // numbers of draws before the sends under test.
  ASSERT_GT(fabric.walk_stats().link_transmissions,
            other.walk_stats().link_transmissions);

  const auto address = controller.group(y).address;
  std::size_t delivered = 0;
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE("send " + std::to_string(i));
    const auto a = fabric.send(2, address, 64);
    const auto b = other.send(2, address, 64);
    EXPECT_EQ(a.host_copies, b.host_copies);
    EXPECT_EQ(a.vm_deliveries, b.vm_deliveries);
    EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
    EXPECT_EQ(a.total_link_transmissions, b.total_link_transmissions);
    EXPECT_EQ(a.max_hops, b.max_hops);
    delivered += a.host_copies.size();
  }
  EXPECT_LT(delivered, 8u * 7u);  // the sends under test were lossy
}

TEST_F(LossFixture, ReliableSessionRecoversEverything) {
  const auto id = make_group({0, 17, 33, 49, 5, 21, 37});
  fabric.set_loss(0.25, /*seed=*/31);
  apps::ReliableMulticastSession session{fabric, controller, id, 0};
  // NAKs and repairs are themselves lossy (25% per link over up-to-6-hop
  // paths), so convergence takes many cheap rounds.
  const auto report =
      session.publish(/*messages=*/25, /*payload=*/256, /*max_rounds=*/400);
  EXPECT_TRUE(report.all_delivered)
      << "rounds=" << report.repair_rounds
      << " retx=" << report.retransmissions;
  EXPECT_GT(report.naks, 0u);            // losses actually happened
  EXPECT_GT(report.retransmissions, 0u);
  EXPECT_EQ(report.data_multicasts, 25u);
}

TEST_F(LossFixture, ReliableSessionIsFreeWithoutLoss) {
  const auto id = make_group({0, 17, 33});
  fabric.set_loss(0.0);
  apps::ReliableMulticastSession session{fabric, controller, id, 0};
  const auto report = session.publish(10, 256);
  EXPECT_TRUE(report.all_delivered);
  EXPECT_EQ(report.naks, 0u);
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_EQ(report.repair_rounds, 1u);  // one verification round
}

// --- multi-datacenter relay --------------------------------------------------

TEST(MultiDc, SpansTwoDatacenters) {
  const topo::ClosTopology topo_a{topo::ClosParams::small_test()};
  const topo::ClosTopology topo_b{topo::ClosParams::small_test()};
  Controller ctrl_a{topo_a, EncoderConfig{}};
  Controller ctrl_b{topo_b, EncoderConfig{}};
  sim::Fabric fab_a{topo_a};
  sim::Fabric fab_b{topo_b};

  apps::MultiDcGroup group{
      {{&fab_a, &ctrl_a}, {&fab_b, &ctrl_b}},
      /*tenant=*/3,
      {{0, 5, 17}, {2, 33, 49}}};

  const auto report = group.send(/*src_dc=*/0, /*src=*/0, /*payload=*/300);
  // 2 local members + 3 remote members (incl. relay) reached.
  EXPECT_EQ(report.hosts_reached, 5u);
  EXPECT_EQ(report.wan_unicasts, 1u);
  EXPECT_EQ(report.wan_wire_bytes, net::kOuterHeaderBytes + 300u);
  EXPECT_GT(report.intra_dc_wire_bytes, 0u);
}

TEST(MultiDc, EmptyRemoteDcCostsNothing) {
  const topo::ClosTopology topo_a{topo::ClosParams::small_test()};
  const topo::ClosTopology topo_b{topo::ClosParams::small_test()};
  Controller ctrl_a{topo_a, EncoderConfig{}};
  Controller ctrl_b{topo_b, EncoderConfig{}};
  sim::Fabric fab_a{topo_a};
  sim::Fabric fab_b{topo_b};

  apps::MultiDcGroup group{{{&fab_a, &ctrl_a}, {&fab_b, &ctrl_b}},
                           3,
                           {{0, 5}, {}}};
  const auto report = group.send(0, 0, 100);
  EXPECT_EQ(report.wan_unicasts, 0u);
  EXPECT_EQ(report.hosts_reached, 1u);
}

TEST(MultiDc, SendFromSecondDcRelaysBack) {
  const topo::ClosTopology topo_a{topo::ClosParams::small_test()};
  const topo::ClosTopology topo_b{topo::ClosParams::small_test()};
  Controller ctrl_a{topo_a, EncoderConfig{}};
  Controller ctrl_b{topo_b, EncoderConfig{}};
  sim::Fabric fab_a{topo_a};
  sim::Fabric fab_b{topo_b};

  apps::MultiDcGroup group{{{&fab_a, &ctrl_a}, {&fab_b, &ctrl_b}},
                           3,
                           {{0, 5}, {2, 33}}};
  const auto report = group.send(/*src_dc=*/1, /*src=*/33, 100);
  EXPECT_EQ(report.hosts_reached, 3u);  // DC-B: host 2; DC-A: hosts 0, 5
  EXPECT_EQ(report.wan_unicasts, 1u);
}

}  // namespace
}  // namespace elmo
