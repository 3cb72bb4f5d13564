// The fabric's shared downstream suffix (DESIGN.md §4): every sending
// hypervisor of a group stores only its own upstream prefix plus a
// reference to the group's one suffix, and still encapsulates exactly the
// header the controller computed for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "elmo/stream.h"
#include "p4rt/runtime.h"

namespace elmo {
namespace {

using Suffix = dp::SuffixStore::Suffix;

EncoderConfig config_for(EncoderKind kind) {
  EncoderConfig cfg;
  cfg.encoder = kind;
  cfg.hmax_leaf_override = 2;  // force s-rules and default p-rules too
  return cfg;
}

// The small fabric has 4 pods of 4 leaves of 4 hosts: host h sits on leaf
// h / 4 in pod h / 16. VM v of the one tenant is slot v % 4 of host v / 4.
Member member(topo::HostId host, std::uint32_t slot, MemberRole role) {
  return Member{host, host * 4 + slot, role};
}

struct World {
  explicit World(EncoderKind kind = EncoderKind::kElmo)
      : topology{topo::ClosParams::small_test()},
        controller{topology, config_for(kind)},
        fabric{topology} {}

  // Senders on five leaves of three pods, receivers beside them.
  GroupId make_group() {
    const std::vector<Member> members{member(0, 0, MemberRole::kBoth),
                                      member(1, 0, MemberRole::kSender),
                                      member(5, 0, MemberRole::kReceiver),
                                      member(9, 0, MemberRole::kBoth),
                                      member(17, 0, MemberRole::kBoth),
                                      member(21, 1, MemberRole::kSender),
                                      member(33, 0, MemberRole::kBoth),
                                      member(34, 2, MemberRole::kReceiver)};
    return controller.create_group(0, members);
  }

  std::vector<topo::HostId> senders(GroupId id) const {
    std::set<topo::HostId> hosts;
    for (const auto& m : controller.group(id).members) {
      if (can_send(m.role)) hosts.insert(m.host);
    }
    return {hosts.begin(), hosts.end()};
  }

  const dp::HypervisorSwitch::GroupFlow& flow(GroupId id, topo::HostId host) {
    const auto* f =
        fabric.hypervisor(host).flow(controller.group(id).address);
    EXPECT_NE(f, nullptr) << "host " << host;
    return *f;
  }

  // The Elmo header bytes `host` puts on the wire for the group.
  std::vector<std::uint8_t> encapsulated_header(GroupId id, topo::HostId host) {
    const auto packet = fabric.hypervisor(host).encapsulate(
        controller.group(id).address, std::vector<std::uint8_t>(16, 0x42));
    EXPECT_TRUE(packet.has_value());
    const auto bytes = packet->bytes();
    return {bytes.begin() + net::kOuterHeaderBytes, bytes.end() - 16};
  }

  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
};

class SharedSuffix : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(SharedSuffix, EverySenderReferencesOneSuffixAndRebuildsItsHeader) {
  // Both install paths: the fabric's own and the p4rt channel's.
  for (const bool channel : {false, true}) {
    SCOPED_TRACE(channel ? "p4rt channel" : "Fabric::install_group");
    World w{GetParam()};
    const auto id = w.make_group();
    if (channel) {
      p4rt::install_via_channel(w.controller, id, w.fabric);
    } else {
      w.fabric.install_group(w.controller, id);
    }
    const auto senders = w.senders(id);
    ASSERT_GE(senders.size(), 5u);
    const Suffix shared = w.flow(id, senders.front()).suffix;
    ASSERT_NE(shared, nullptr);
    for (const auto host : senders) {
      const auto& flow = w.flow(id, host);
      EXPECT_EQ(flow.suffix.get(), shared.get()) << "host " << host;
      const auto expected = w.controller.header_for(id, host);
      EXPECT_EQ(flow.header().bytes(), expected) << "host " << host;
      EXPECT_EQ(w.encapsulated_header(id, host), expected) << "host " << host;
    }
    // Receive-only hosts hold no header and no suffix.
    const auto& receiver = w.flow(id, 5);
    EXPECT_TRUE(receiver.header().empty());
    EXPECT_EQ(receiver.suffix, nullptr);
    EXPECT_EQ(w.fabric.hypervisor(0).suffixes().size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, SharedSuffix,
                         ::testing::Values(EncoderKind::kElmo,
                                           EncoderKind::kBert,
                                           EncoderKind::kP3fa),
                         [](const auto& info) {
                           return std::string{to_string(info.param)};
                         });

TEST(SuffixStore, ChurnAndUninstallFreeTheOldSuffix) {
  World w;
  const auto id = w.make_group();
  w.fabric.install_group(w.controller, id);
  stream::ControlPlane cp{w.controller, w.fabric,
                          stream::ControlPlaneOptions{SIZE_MAX}};
  cp.track_group(id);

  const std::weak_ptr<const std::vector<std::uint8_t>> before =
      w.flow(id, 0).suffix;
  // A receiver on a new leaf of a member pod changes only the suffix.
  cp.join(id, member(45, 0, MemberRole::kReceiver));
  EXPECT_FALSE(before.expired()) << "freed before the batch was applied";
  cp.flush();
  EXPECT_TRUE(before.expired()) << "every sender moved on, yet it lives";

  const std::weak_ptr<const std::vector<std::uint8_t>> after =
      w.flow(id, 0).suffix;
  ASSERT_FALSE(after.expired());
  for (const auto host : w.senders(id)) {
    EXPECT_EQ(w.flow(id, host).suffix, after.lock()) << "host " << host;
    EXPECT_EQ(w.encapsulated_header(id, host),
              w.controller.header_for(id, host));
  }
  EXPECT_EQ(w.fabric.hypervisor(0).suffixes().size(), 1u);

  w.fabric.uninstall_group(w.controller, id);
  EXPECT_TRUE(after.expired());
  EXPECT_EQ(w.fabric.hypervisor(0).suffixes().size(), 0u);
}

TEST(SuffixStore, HalfAppliedBatchEncapsulatesEachHostsExactBytes) {
  World w;
  const auto id = w.make_group();
  w.fabric.install_group(w.controller, id);
  const auto senders = w.senders(id);
  std::vector<std::vector<std::uint8_t>> old_headers;
  for (const auto host : senders) {
    old_headers.push_back(w.controller.header_for(id, host));
  }

  // The join changes every sender's suffix; apply the new flows of the
  // first half of the senders only.
  w.controller.join(id, member(45, 0, MemberRole::kReceiver));
  ASSERT_NE(old_headers.front(), w.controller.header_for(id, senders.front()));
  const auto updates = p4rt::compile_install(w.controller, id);
  const std::set<topo::HostId> updated{senders.begin(),
                                       senders.begin() + senders.size() / 2};
  for (const auto& u : updates) {
    if (u.kind == p4rt::UpdateKind::kHypervisorFlowAdd &&
        updated.contains(u.host)) {
      p4rt::apply_update(w.fabric, u);
    }
  }

  std::set<const std::vector<std::uint8_t>*> versions;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const auto host = senders[i];
    const auto expected = updated.contains(host)
                              ? w.controller.header_for(id, host)
                              : old_headers[i];
    EXPECT_EQ(w.encapsulated_header(id, host), expected) << "host " << host;
    versions.insert(w.flow(id, host).suffix.get());
  }
  EXPECT_EQ(versions.size(), 2u);
}

TEST(SuffixStore, UnparseableHeaderIsStoredWholeAndEncapsulatedUnchanged) {
  const topo::ClosTopology topology{topo::ClosParams::small_test()};
  dp::HypervisorSwitch hv{topology, 0};
  const auto group = net::Ipv4Address::multicast_group(3);
  const std::vector<std::uint8_t> header(114, 0x55);
  ASSERT_THROW(HeaderCodec{topology}.sections(header), std::logic_error);

  hv.install_flow(group, 1, {}, header);
  const auto* flow = hv.flow(group);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->prefix, header);
  EXPECT_EQ(flow->suffix, nullptr);
  EXPECT_EQ(hv.suffixes().size(), 0u);

  const std::vector<std::uint8_t> payload(8, 0x11);
  const auto packet = hv.encapsulate(group, payload);
  ASSERT_TRUE(packet.has_value());
  const auto bytes = packet->bytes();
  ASSERT_EQ(bytes.size(), net::kOuterHeaderBytes + header.size() + 8);
  EXPECT_TRUE(std::equal(header.begin(), header.end(),
                         bytes.begin() + net::kOuterHeaderBytes));
  EXPECT_TRUE(net::VxlanHeader::parse(bytes.subspan(42)).elmo_present);
}

// fabric_state_digest hashes a flow's header bytes in wire order, so how a
// flow stores them cannot move a digest. The pinned value comes from a build
// whose flows kept each full header in one buffer of their own.
TEST(SuffixStore, FabricDigestMatchesTheRecordedValue) {
  World w;
  const auto id = w.make_group();
  const auto other = w.controller.create_group(
      0, std::vector<Member>{member(2, 0, MemberRole::kBoth),
                             member(50, 0, MemberRole::kBoth),
                             member(62, 3, MemberRole::kReceiver)});
  stream::ControlPlane cp{w.controller, w.fabric,
                          stream::ControlPlaneOptions{4}};
  cp.refresh(id);
  cp.refresh(other);
  cp.join(id, member(45, 0, MemberRole::kReceiver));
  cp.join(other, member(18, 1, MemberRole::kSender));
  cp.leave(id, 21, 21 * 4 + 1);
  cp.flush();
  EXPECT_EQ(stream::fabric_state_digest(w.fabric), 0x6835882609df9fb4ull);

  sim::Fabric batch{w.topology};
  batch.install_group(w.controller, id);
  batch.install_group(w.controller, other);
  EXPECT_EQ(stream::fabric_state_digest(batch), 0x6835882609df9fb4ull);
}

}  // namespace
}  // namespace elmo
