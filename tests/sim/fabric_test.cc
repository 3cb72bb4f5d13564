#include "sim/fabric.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "testutil.h"

namespace elmo::sim {
namespace {

struct FabricFixture : ::testing::Test {
  FabricFixture()
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

TEST_F(FabricFixture, SingleRackDelivery) {
  const auto id = make_group({0, 1, 2});
  const auto result =
      fabric.send(0, controller.group(id).address, 200);
  EXPECT_EQ(result.host_copies.size(), 2u);
  EXPECT_TRUE(result.host_copies.contains(1));
  EXPECT_TRUE(result.host_copies.contains(2));
  EXPECT_FALSE(result.host_copies.contains(0));  // no self-delivery
  EXPECT_EQ(result.vm_deliveries, 2u);
  EXPECT_EQ(result.max_hops, 1u);  // only the leaf
}

TEST_F(FabricFixture, CrossPodDelivery) {
  const auto id = make_group({0, 17, 35});
  const auto result = fabric.send(0, controller.group(id).address, 200);
  EXPECT_EQ(result.host_copies.size(), 2u);
  EXPECT_TRUE(result.host_copies.contains(17));
  EXPECT_TRUE(result.host_copies.contains(35));
  EXPECT_GE(result.max_hops, 4u);  // leaf-spine-core-spine-leaf
}

TEST_F(FabricFixture, ReceiveOnlyMemberSendsWithoutElmoHeader) {
  // Host 17 only receives, so its hypervisor has no header template and
  // sends with the VXLAN Elmo-present flag clear. The fabric must not read
  // the payload as Elmo sections: the sender's leaf has no s-rule for the
  // group, so the packet is dropped there.
  const std::vector<elmo::Member> members{
      {0, 0, elmo::MemberRole::kBoth}, {17, 1, elmo::MemberRole::kReceiver}};
  const auto id = controller.create_group(0, members);
  fabric.install_group(controller, id);
  const std::vector<std::uint8_t> payload(64, 0x77);
  const auto result = fabric.send(17, controller.group(id).address, payload);
  EXPECT_TRUE(result.host_copies.empty());
  EXPECT_EQ(result.vm_deliveries, 0u);
  EXPECT_EQ(fabric.aggregate_switch_stats(topo::Layer::kLeaf).drops, 1u);
  EXPECT_EQ(fabric.aggregate_switch_stats(topo::Layer::kLeaf).header_pops,
            0u);
}

TEST_F(FabricFixture, EverySenderReachesEveryoneElse) {
  util::Rng rng{4711};
  const auto hosts = test::random_hosts(topology, 12, rng);
  const auto id = make_group(hosts);
  for (const auto sender : hosts) {
    const auto result =
        fabric.send(sender, controller.group(id).address, 64);
    for (const auto receiver : hosts) {
      if (receiver == sender) continue;
      EXPECT_EQ(result.host_copies.at(receiver), 1u)
          << "sender " << sender << " -> " << receiver;
    }
  }
}

TEST_F(FabricFixture, NonMemberCannotSend) {
  const auto id = make_group({0, 1});
  const auto result = fabric.send(60, controller.group(id).address, 64);
  EXPECT_TRUE(result.host_copies.empty());
  EXPECT_EQ(result.total_link_transmissions, 0u);
}

TEST_F(FabricFixture, HeaderBytesShrinkAlongThePath) {
  const auto id = make_group({0, 17});
  fabric.send(0, controller.group(id).address, 100);
  const auto& links = fabric.links();

  const NodeRef host0{topo::Layer::kHost, 0};
  const NodeRef leaf0{topo::Layer::kLeaf, 0};
  const auto first_hop = links.at({host0, leaf0}).bytes;

  // Find the final leaf->host delivery in pod 1.
  const NodeRef leaf4{topo::Layer::kLeaf, 4};
  const NodeRef host17{topo::Layer::kHost, 17};
  const auto last_hop = links.at({leaf4, host17}).bytes;

  EXPECT_GT(first_hop, last_hop);  // p-rules popped on the way
  EXPECT_EQ(last_hop, net::kOuterHeaderBytes + 100);
}

TEST_F(FabricFixture, SRuleGroupsStillDeliver) {
  // Tight header budget so most leaves use s-rules.
  elmo::EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  elmo::Controller tight_controller{topology, cfg};
  Fabric tight_fabric{topology};

  util::Rng rng{99};
  const auto hosts = test::random_hosts(topology, 20, rng);
  std::vector<elmo::Member> members;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    members.push_back(elmo::Member{hosts[i], static_cast<std::uint32_t>(i),
                                   elmo::MemberRole::kBoth});
  }
  const auto id = tight_controller.create_group(0, members);
  ASSERT_GT(tight_controller.group(id).encoding.s_rule_count(), 0u);
  tight_fabric.install_group(tight_controller, id);

  const auto result =
      tight_fabric.send(hosts[0], tight_controller.group(id).address, 64);
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    EXPECT_GE(result.host_copies.count(hosts[i]), 1u);
  }
}

TEST_F(FabricFixture, UninstallStopsDelivery) {
  const auto id = make_group({0, 17});
  fabric.uninstall_group(controller, id);
  const auto result = fabric.send(0, controller.group(id).address, 64);
  EXPECT_TRUE(result.host_copies.empty());
}

TEST_F(FabricFixture, UnicastPathsMatchLocality) {
  // Same rack: 2 hops.
  auto r = fabric.send_unicast(0, 1, 100);
  EXPECT_EQ(r.total_link_transmissions, 2u);
  // Same pod: 4 hops.
  r = fabric.send_unicast(0, 4, 100);
  EXPECT_EQ(r.total_link_transmissions, 4u);
  // Cross pod: 6 hops.
  r = fabric.send_unicast(0, 17, 100);
  EXPECT_EQ(r.total_link_transmissions, 6u);
  EXPECT_EQ(r.total_wire_bytes, 6u * (net::kOuterHeaderBytes + 100));
  // Self: nothing.
  r = fabric.send_unicast(3, 3, 100);
  EXPECT_EQ(r.total_link_transmissions, 0u);
}

TEST_F(FabricFixture, VmDeliveriesFollowLocalMembership) {
  // Two member VMs of the same group cannot share a host (one per tenant
  // host), but receive-only membership is still exercised.
  std::vector<elmo::Member> members{
      elmo::Member{0, 0, elmo::MemberRole::kSender},
      elmo::Member{5, 1, elmo::MemberRole::kReceiver},
  };
  const auto id = controller.create_group(1, members);
  fabric.install_group(controller, id);
  const auto result = fabric.send(0, controller.group(id).address, 64);
  EXPECT_EQ(result.vm_deliveries, 1u);
}

// sample_into and accumulate_fabric_metrics read one series table: every
// series the health sampler appends is a registry counter of equal value.
TEST_F(FabricFixture, SampledSeriesEqualTheExportedCounters) {
  const auto id = make_group({0, 1, 17, 33});
  fabric.set_loss(0.2, 3);
  for (int i = 0; i < 8; ++i) {
    (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  }
  (void)fabric.send_unicast(0, 33, 64);

  obs::MetricsRegistry reg;
  accumulate_fabric_metrics(fabric, reg);
  const auto snap = reg.snapshot();
  obs::TimeSeriesStore store;
  fabric.sample_into(store);

  const auto names = store.names();
  EXPECT_EQ(names.size(), 22u);
  for (const auto& name : names) {
    const auto* exported = snap.find(name);
    ASSERT_NE(exported, nullptr) << name;
    EXPECT_EQ(store.last(name)->value, exported->value) << name;
  }
  EXPECT_GT(store.last("elmo_link_spine_core_tx_total")->value, 0.0);
  EXPECT_GT(store.last("elmo_fabric_lost_copies_total")->value, 0.0);
}

}  // namespace
}  // namespace elmo::sim
