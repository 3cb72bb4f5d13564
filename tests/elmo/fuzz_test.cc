// Robustness fuzzing: the header codec and the switch parser must never
// crash or read out of bounds on malformed input — they throw typed
// exceptions instead (a hostile tenant cannot source Elmo sections, but the
// parser still must be total over byte strings).
#include <gtest/gtest.h>

#include "dataplane/hypervisor_switch.h"
#include "dataplane/network_switch.h"
#include "elmo/controller.h"
#include "elmo/header.h"
#include "net/packet.h"
#include "util/rng.h"

namespace elmo {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

TEST(Fuzz, HeaderParseIsTotalOverRandomBytes) {
  const auto t = small();
  const HeaderCodec codec{t};
  util::Rng rng{0xfadedace};
  int parsed_ok = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.index(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      (void)codec.parse(bytes);
      ++parsed_ok;
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::length_error&) {
    }
    try {
      (void)codec.sections(bytes);
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    }
  }
  // Some random strings do decode (e.g. an immediate END tag) — that is
  // fine; what matters is that nothing escaped the typed exceptions above.
  EXPECT_GT(parsed_ok, 0);
}

TEST(Fuzz, TruncatedValidHeadersThrowCleanly) {
  const auto t = small();
  const HeaderCodec codec{t};
  // A real header, truncated at every possible byte length.
  SenderEncoding sender;
  sender.u_leaf.down = net::PortBitmap{t.leaf_down_ports()};
  sender.u_leaf.down.set(1);
  sender.u_leaf.up = net::PortBitmap{t.leaf_up_ports()};
  sender.u_leaf.multipath = true;
  UpstreamRule u_spine;
  u_spine.down = net::PortBitmap{t.spine_down_ports()};
  u_spine.up = net::PortBitmap{t.spine_up_ports()};
  u_spine.multipath = true;
  sender.u_spine = u_spine;
  sender.core_pods = net::PortBitmap{t.core_ports()};
  sender.core_pods->set(2);
  GroupEncoding group;
  group.leaf.p_rules.push_back(PRule{sender.u_leaf.down, {3, 9}});
  const auto full = codec.serialize(sender, group);

  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut{full.begin(), full.begin() + len};
    EXPECT_THROW((void)codec.parse(cut), std::out_of_range) << "len " << len;
  }
  EXPECT_NO_THROW((void)codec.parse(full));
}

TEST(Fuzz, BitflippedHeadersNeverCrashTheSwitchParser) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const std::vector<Member> members{{0, 0, MemberRole::kBoth},
                                    {17, 1, MemberRole::kBoth}};
  const auto id = controller.create_group(0, members);
  const auto& g = controller.group(id);

  dp::HypervisorSwitch hv{t, 0};
  hv.install_flow(g.address, 0, {}, controller.header_for(id, 0));
  const auto clean =
      *hv.encapsulate(g.address, std::vector<std::uint8_t>(32, 0));

  // Every receiver layer reads the same mutated packet: the sender's leaf
  // and spine (their own upstream and rule sections), a core (its CORE
  // section), and the member's hypervisor (header length for decap).
  dp::NetworkSwitch leaf{t, topo::Layer::kLeaf, 0};
  dp::NetworkSwitch spine{t, topo::Layer::kSpine, t.spine_at(0, 0)};
  dp::NetworkSwitch core{t, topo::Layer::kCore, 0};
  dp::HypervisorSwitch member{t, 17};
  const std::vector<std::uint32_t> member_vms{1};
  member.install_flow(g.address, 0, member_vms);
  const std::vector<std::pair<dp::NetworkSwitch*, std::size_t>> switches{
      {&leaf, t.leaf_down_ports() + t.leaf_up_ports()},
      {&spine, t.spine_down_ports() + t.spine_up_ports()},
      {&core, t.core_ports()}};

  util::Rng rng{4242};
  std::vector<int> survived(switches.size() + 1);  // last: the hypervisor
  for (int trial = 0; trial < 2000; ++trial) {
    net::Packet mutated = clean;
    // Flip 1-4 bits anywhere beyond the outer Ethernet/IP version bytes.
    const auto flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const auto at = 34 + rng.index(mutated.size() - 34);
      mutated.mutable_bytes()[at] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    for (std::size_t i = 0; i < switches.size(); ++i) {
      try {
        const auto copies = switches[i].first->process(mutated);
        ++survived[i];
        // Fan-out is physically bounded by the port count.
        EXPECT_LE(copies.size(), switches[i].second);
      } catch (const std::out_of_range&) {
      } catch (const std::invalid_argument&) {
      } catch (const std::length_error&) {
      }
    }
    try {
      const auto deliveries = member.receive(mutated);
      ++survived.back();
      EXPECT_LE(deliveries.size(), 1u);
      for (const auto& d : deliveries) {
        EXPECT_LE(d.payload_bytes, mutated.size() - net::kOuterHeaderBytes);
      }
    } catch (const std::out_of_range&) {
    } catch (const std::invalid_argument&) {
    }
  }
  for (const int n : survived) EXPECT_GT(n, 0);
}

}  // namespace
}  // namespace elmo
