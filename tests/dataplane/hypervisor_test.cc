#include "dataplane/hypervisor_switch.h"

#include <gtest/gtest.h>

#include "dataplane/common.h"

namespace elmo::dp {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

TEST(HypervisorSwitch, EncapRequiresFlow) {
  const auto t = small();
  HypervisorSwitch hv{t, 3};
  const std::vector<std::uint8_t> payload{1, 2, 3};
  EXPECT_FALSE(hv.encapsulate(net::Ipv4Address::multicast_group(0), payload));
  EXPECT_EQ(hv.stats().sent, 0u);
}

TEST(HypervisorSwitch, EncapBuildsParseableOuterHeaders) {
  const auto t = small();
  HypervisorSwitch hv{t, 3};
  const auto group = net::Ipv4Address::multicast_group(9);
  const std::vector<std::uint8_t> header{0xaa, 0xbb, 0xcc};
  hv.install_flow(group, 42, {}, header);

  const std::vector<std::uint8_t> payload{9, 8, 7, 6};
  const auto packet = hv.encapsulate(group, payload);
  ASSERT_TRUE(packet);
  EXPECT_EQ(packet->size(), net::kOuterHeaderBytes + 3 + 4);

  const auto bytes = packet->bytes();
  const auto eth = net::EthernetHeader::parse(bytes);
  EXPECT_EQ(eth.ether_type, net::kEtherTypeIpv4);
  EXPECT_EQ(eth.src, host_mac(3));

  const auto ip = net::Ipv4Header::parse(bytes.subspan(14));
  EXPECT_EQ(ip.dst, group);
  EXPECT_EQ(ip.src, host_address(3));
  EXPECT_EQ(ip.total_length, 20 + 8 + 8 + 3 + 4);

  const auto udp = net::UdpHeader::parse(bytes.subspan(34));
  EXPECT_EQ(udp.dst_port, net::kVxlanUdpPort);

  const auto vxlan = net::VxlanHeader::parse(bytes.subspan(42));
  EXPECT_EQ(vxlan.vni, 42u);

  // Elmo template follows the outer headers verbatim.
  EXPECT_EQ(bytes[50], 0xaa);
  EXPECT_EQ(bytes[51], 0xbb);
  EXPECT_EQ(bytes[52], 0xcc);
  // Payload after the template.
  EXPECT_EQ(bytes[53], 9);
  EXPECT_EQ(hv.stats().sent, 1u);
}

TEST(HypervisorSwitch, ReceiveDeliversToLocalMembers) {
  const auto t = small();
  HypervisorSwitch sender{t, 0};
  HypervisorSwitch receiver{t, 1};
  const auto group = net::Ipv4Address::multicast_group(5);

  sender.install_flow(group, 7, {});
  const std::vector<std::uint32_t> vms{11, 12};
  receiver.install_flow(group, 7, vms);

  const std::vector<std::uint8_t> payload(100, 0x55);
  const auto packet = sender.encapsulate(group, payload);
  ASSERT_TRUE(packet);

  const auto deliveries = receiver.receive(*packet);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].vm, 11u);
  EXPECT_EQ(deliveries[1].vm, 12u);
  EXPECT_EQ(deliveries[0].payload_bytes, 100u);
  EXPECT_EQ(receiver.stats().delivered_to_vms, 2u);
}

TEST(HypervisorSwitch, ReceiveDiscardsNonMemberGroups) {
  const auto t = small();
  HypervisorSwitch sender{t, 0};
  HypervisorSwitch bystander{t, 2};
  const auto group = net::Ipv4Address::multicast_group(5);
  sender.install_flow(group, 0, {});

  const auto packet =
      sender.encapsulate(group, std::vector<std::uint8_t>{1});
  ASSERT_TRUE(packet);
  EXPECT_TRUE(bystander.receive(*packet).empty());
  EXPECT_EQ(bystander.stats().discarded, 1u);
}

TEST(HypervisorSwitch, FlowLifecycle) {
  const auto t = small();
  HypervisorSwitch hv{t, 0};
  const auto group = net::Ipv4Address::multicast_group(1);
  EXPECT_FALSE(hv.has_flow(group));
  hv.install_flow(group, 0, {});
  EXPECT_TRUE(hv.has_flow(group));
  EXPECT_EQ(hv.flow_count(), 1u);
  hv.remove_flow(group);
  EXPECT_FALSE(hv.has_flow(group));
}

}  // namespace
}  // namespace elmo::dp
