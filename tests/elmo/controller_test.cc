#include "elmo/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>

#include "elmo/header.h"
#include "elmo/stream.h"
#include "p4rt/runtime.h"

namespace elmo {
namespace {

topo::ClosTopology small() {
  return topo::ClosTopology{topo::ClosParams::small_test()};
}

std::vector<Member> members_of(std::initializer_list<topo::HostId> hosts) {
  std::vector<Member> out;
  std::uint32_t vm = 0;
  for (const auto h : hosts) {
    out.push_back(Member{h, vm++, MemberRole::kBoth});
  }
  return out;
}

// A controller, a fabric holding its groups, and the streaming plane that
// keeps the two in step. The plane flushes every event, so the updates one
// event makes to one element count once (how Table 2 counts them).
struct WiredController {
  WiredController(const topo::ClosTopology& t, const EncoderConfig& cfg)
      : controller{t, cfg},
        fabric{t},
        plane{controller, fabric, stream::ControlPlaneOptions{1}} {}

  GroupId install(std::uint32_t tenant, std::span<const Member> members) {
    const auto id = controller.create_group(tenant, members);
    fabric.install_group(controller, id);
    plane.track_group(id);
    return id;
  }

  Controller controller;
  sim::Fabric fabric;
  stream::ControlPlane plane;
};

std::uint64_t sum(std::span<const std::uint64_t> counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

std::uint64_t srule_updates(const stream::ControlPlaneStats& st) {
  return st.leaf_srule_adds + st.leaf_srule_dels + st.spine_srule_adds +
         st.spine_srule_dels;
}

TEST(Controller, CreateAndQueryGroup) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(7, members_of({0, 5, 17}));
  EXPECT_TRUE(controller.has_group(id));
  EXPECT_EQ(controller.num_groups(), 1u);
  const auto& g = controller.group(id);
  EXPECT_EQ(g.tenant, 7u);
  EXPECT_EQ(g.members.size(), 3u);
  EXPECT_TRUE(g.address.is_multicast());
  ASSERT_NE(g.tree, nullptr);
  EXPECT_EQ(g.tree->num_members(), 3u);
}

TEST(Controller, UnknownGroupThrows) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  EXPECT_THROW(controller.group(5), std::out_of_range);
  EXPECT_FALSE(controller.has_group(5));
}

TEST(Controller, RemoveGroupReleasesSRules) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;  // force s-rule usage
  Controller controller{t, cfg};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 16; ++i) {
    members.push_back(Member{static_cast<topo::HostId>(i * 4), i,
                             MemberRole::kBoth});
  }
  const auto id = controller.create_group(0, members);
  EXPECT_GT(controller.group(id).encoding.s_rule_count(), 0u);
  controller.remove_group(id);
  EXPECT_FALSE(controller.has_group(id));
  EXPECT_DOUBLE_EQ(controller.srule_space().leaf_stats().sum(), 0.0);
  EXPECT_DOUBLE_EQ(controller.srule_space().spine_stats().sum(), 0.0);
}

TEST(Controller, JoinExtendsTreeAndLeaveShrinksIt) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(0, members_of({0, 1}));
  EXPECT_EQ(controller.group(id).tree->num_leaves(), 1u);

  controller.join(id, Member{20, 9, MemberRole::kReceiver});
  EXPECT_EQ(controller.group(id).tree->num_members(), 3u);
  EXPECT_GT(controller.group(id).tree->num_leaves(), 1u);

  controller.leave(id, 20);
  EXPECT_EQ(controller.group(id).tree->num_members(), 2u);
  EXPECT_EQ(controller.group(id).tree->num_leaves(), 1u);
}

TEST(Controller, LeaveUnknownMemberThrows) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(0, members_of({0, 1}));
  EXPECT_THROW(controller.leave(id, 42), std::invalid_argument);
}

TEST(Controller, SenderOnlyJoinUpdatesOneHypervisor) {
  // Paper §5.1.3a: "If a member is a sender, the controller only updates the
  // source hypervisor switch." Counted as the updates the wire applied.
  const auto t = small();
  WiredController w{t, EncoderConfig{}};
  const auto id = w.install(0, members_of({0, 1, 8}));

  w.plane.join(id, Member{33, 9, MemberRole::kSender});
  const auto& applied = w.plane.applied();
  EXPECT_EQ(sum(applied.hosts), 1u);
  EXPECT_EQ(applied.hosts[33], 1u);
  EXPECT_EQ(sum(applied.leaves), 0u);
  EXPECT_EQ(sum(applied.spines), 0u);
}

TEST(Controller, ReceiverJoinUpdatesSenderHypervisors) {
  const auto t = small();
  WiredController w{t, EncoderConfig{}};
  const std::vector<Member> members{
      Member{0, 0, MemberRole::kSender},
      Member{4, 1, MemberRole::kReceiver},
      Member{8, 2, MemberRole::kBoth},
  };
  const auto id = w.install(0, members);

  w.plane.join(id, Member{12, 3, MemberRole::kReceiver});
  // Host 12 brings a new leaf into the tree: the joining host gets its flow
  // and both senders (0 and 8) a new header; receiver-only host 4 keeps its.
  const auto& applied = w.plane.applied();
  EXPECT_EQ(sum(applied.hosts), 3u);
  for (const topo::HostId host : {0u, 8u, 12u}) {
    EXPECT_EQ(applied.hosts[host], 1u) << "host " << host;
  }
  EXPECT_EQ(applied.hosts[4], 0u);
}

TEST(Controller, CoreSwitchesNeverUpdated) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;
  cfg.hmax_spine = 1;
  WiredController w{t, cfg};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 14; ++i) {
    members.push_back(Member{static_cast<topo::HostId>(i * 4 + 1), i,
                             MemberRole::kBoth});
  }
  const auto id = w.install(0, members);
  for (std::uint32_t vm = 20; vm < 28; ++vm) {
    w.plane.join(id, Member{(vm * 4 + 2) % static_cast<std::uint32_t>(
                                t.num_hosts()),
                            vm, MemberRole::kReceiver});
  }
  const auto& applied = w.plane.applied();
  EXPECT_GT(sum(applied.hosts), 0u);
  // The headline property: every applied update landed on a hypervisor, a
  // leaf or a spine, and no core holds multicast state.
  EXPECT_EQ(sum(applied.hosts) + sum(applied.leaves) + sum(applied.spines),
            w.plane.stats().updates_applied);
  for (topo::CoreId core = 0; core < t.num_cores(); ++core) {
    EXPECT_TRUE(w.fabric.core(core).srules().empty()) << "core " << core;
  }
}

TEST(Controller, SRuleChangesReachNetworkSwitches) {
  const auto t = small();
  EncoderConfig cfg;
  cfg.hmax_leaf_override = 1;  // most leaves spill to s-rules
  WiredController w{t, cfg};
  std::vector<Member> members;
  for (std::uint32_t i = 0; i < 16; ++i) {
    members.push_back(
        Member{static_cast<topo::HostId>(i * 4), i, MemberRole::kBoth});
  }
  const auto id = w.controller.create_group(0, members);
  w.plane.refresh(id);  // untracked: the whole install crosses the wire

  const auto& s_rules = w.controller.group(id).encoding.leaf.s_rules;
  ASSERT_FALSE(s_rules.empty());
  const auto& applied = w.plane.applied();
  EXPECT_EQ(sum(applied.leaves), s_rules.size());
  for (const auto& [leaf, bitmap] : s_rules) {
    (void)bitmap;
    EXPECT_EQ(applied.leaves[leaf], 1u) << "leaf " << leaf;
  }
}

TEST(Controller, HeaderForParsesBack) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(3, members_of({0, 17, 33, 49}));
  const auto header = controller.header_for(id, 0);
  EXPECT_FALSE(header.empty());
  const HeaderCodec codec{t};
  const auto parsed = codec.parse(header);
  EXPECT_TRUE(parsed.u_leaf.has_value());
  EXPECT_TRUE(parsed.core_pods.has_value());
}

TEST(Controller, FailureRefreshUpdatesExactlyTheChangedSenderFlows) {
  // §5.1.3b on the wire: after a spine or core failure, refresh_all pushes a
  // new flow to exactly the sender hosts whose header changed and touches no
  // network switch; restoring and refreshing again leaves the fabric equal
  // to a fresh batch install.
  const auto t = small();
  WiredController w{t, EncoderConfig{}};
  std::vector<GroupId> ids;
  // 40 multi-pod groups.
  for (std::uint32_t g = 0; g < 40; ++g) {
    const std::vector<Member> members{
        Member{(g * 3) % 16, 0, MemberRole::kBoth},
        Member{16 + (g * 5) % 16, 1, MemberRole::kBoth},
        Member{32 + (g * 7) % 16, 2, MemberRole::kBoth},
    };
    ids.push_back(w.install(g, members));
  }
  auto headers = [&] {
    std::map<std::pair<GroupId, topo::HostId>, std::vector<std::uint8_t>> out;
    for (const auto id : ids) {
      for (const auto host : w.controller.group(id).sender_hosts()) {
        out[{id, host}] = w.controller.header_for(id, host);
      }
    }
    return out;
  };
  auto check = [&](const char* what, auto&& fail, auto&& restore) {
    SCOPED_TRACE(what);
    const auto before = headers();
    const auto& st = w.plane.stats();
    const auto flows_before = st.flow_adds + st.flow_dels;
    const auto srules_before = srule_updates(st);

    fail();
    const auto groups_changed = w.plane.refresh_all();
    w.plane.flush();
    std::size_t senders_changed = 0;
    std::set<GroupId> groups;
    for (const auto& [key, bytes] : headers()) {
      if (before.at(key) == bytes) continue;
      ++senders_changed;
      groups.insert(key.first);
    }
    EXPECT_GT(senders_changed, 0u);
    EXPECT_EQ(st.flow_adds + st.flow_dels - flows_before, senders_changed);
    EXPECT_EQ(groups_changed, groups.size());
    EXPECT_EQ(srule_updates(st), srules_before);

    restore();
    w.plane.refresh_all();
    w.plane.flush();
    sim::Fabric fresh{t};
    for (const auto id : ids) fresh.install_group(w.controller, id);
    EXPECT_EQ(stream::fabric_state_digest(w.fabric),
              stream::fabric_state_digest(fresh));
  };
  check("spine", [&] { w.controller.fail_spine(t.spine_at(0, 0)); },
        [&] { w.controller.restore_spine(t.spine_at(0, 0)); });
  check("core", [&] { w.controller.fail_core(t.core_at(0, 0)); },
        [&] { w.controller.restore_core(t.core_at(0, 0)); });
}

TEST(Controller, FailureChangesIssuedHeaders) {
  const auto t = small();
  Controller controller{t, EncoderConfig{}};
  const auto id = controller.create_group(0, members_of({0, 16}));
  const auto before = controller.header_for(id, 0);
  controller.fail_spine(t.spine_at(0, 0));
  const auto after = controller.header_for(id, 0);
  const HeaderCodec codec{t};
  EXPECT_TRUE(codec.parse(before).u_leaf->multipath);
  EXPECT_FALSE(codec.parse(after).u_leaf->multipath);
}

// ---- golden header bytes ----------------------------------------------------
// Exact Controller::header_for wire bytes for fixed groups on two fabrics,
// under all three encoders, once on the multipath fast path and once after a
// spine failure (explicit u-spine and up ports). The bytes were recorded
// with the original bit-at-a-time writer; any codec change that moves a bit
// fails here. Every case also checks that p4rt::compile_install hands each
// sending host exactly the header header_for builds.

std::string hex_of(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

struct GoldenCase {
  const char* name;
  topo::ClosParams params;
  std::vector<Member> members;
  topo::SpineId failed_spine;
  // Expected header hex for `senders`, fast path then after fail_spine.
  std::vector<topo::HostId> senders;
  std::vector<std::string> fast_path;
  std::vector<std::string> after_failure;
};

std::vector<GoldenCase> golden_cases(EncoderKind encoder) {
  // Fig. 3's group plus a sender-only and a receiver-only VM, and a second
  // VM co-located on Ha's host.
  GoldenCase example{
      "running_example",
      topo::ClosParams::running_example(),
      {{0, 0, MemberRole::kBoth}, {1, 1, MemberRole::kBoth},
       {10, 2, MemberRole::kReceiver}, {12, 3, MemberRole::kBoth},
       {13, 4, MemberRole::kBoth}, {15, 5, MemberRole::kSender},
       {0, 6, MemberRole::kReceiver}},
      /*failed_spine=*/3,
      {0, 15},
      {},
      {}};
  GoldenCase small_case{
      "small_test",
      topo::ClosParams::small_test(),
      {{0, 0, MemberRole::kBoth}, {1, 1, MemberRole::kReceiver},
       {5, 2, MemberRole::kBoth}, {9, 3, MemberRole::kBoth},
       {17, 4, MemberRole::kBoth}, {18, 5, MemberRole::kSender},
       {22, 6, MemberRole::kBoth}, {33, 7, MemberRole::kBoth},
       {38, 8, MemberRole::kReceiver}, {49, 9, MemberRole::kBoth},
       {50, 10, MemberRole::kBoth}, {63, 11, MemberRole::kBoth},
       {5, 12, MemberRole::kBoth}},
      /*failed_spine=*/5,
      {0, 33},
      {},
      {}};
  // The running example's group is small enough that all three encoders
  // agree on it.
  example.fast_path = {"3150668051cca058e54000", "3052748051cca058e54000"};
  example.after_failure = {"2948668051cca058e54000",
                           "284a748051cca058e54000"};
  switch (encoder) {
    case EncoderKind::kElmo:
      small_case.fast_path = {"310051806e9058e4eeb044b920c9e000",
                              "300051007a9058e4eeb044b920c9e000"};
      small_case.after_failure = {"290049806e9058e4eeb044b920c9e000",
                                  "280049007a9058e4eeb044b920c9e000"};
      break;
    case EncoderKind::kBert:
      small_case.fast_path = {"310051806e805c56dcb058113170e000",
                              "300051007a805c56dcb058113170e000"};
      small_case.after_failure = {"290049806e805c56dcb058113170e000",
                                  "280049007a805c56dcb058113170e000"};
      break;
    case EncoderKind::kP3fa:
      small_case.fast_path = {"310051806e9058e709b04a322a61e000",
                              "300051007a9058e709b04a322a61e000"};
      small_case.after_failure = {"290049806e9058e709b04a322a61e000",
                                  "280049007a9058e709b04a322a61e000"};
      break;
  }
  return {example, small_case};
}

// Every sending host's compiled flow carries header_for's bytes.
void expect_install_matches_header_for(const Controller& controller,
                                       GroupId id) {
  std::size_t with_header = 0;
  for (const auto& u : p4rt::compile_install(controller, id)) {
    if (u.kind != p4rt::UpdateKind::kHypervisorFlowAdd) continue;
    const auto& members = controller.group(id).members;
    const bool sends = std::any_of(
        members.begin(), members.end(), [&](const Member& m) {
          return m.host == u.host && can_send(m.role);
        });
    if (!sends) {
      EXPECT_TRUE(u.elmo_header.empty()) << "host " << u.host;
      continue;
    }
    EXPECT_EQ(u.elmo_header, controller.header_for(id, u.host))
        << "host " << u.host;
    ++with_header;
  }
  EXPECT_GT(with_header, 0u);
}

class GoldenHeaders : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(GoldenHeaders, HeaderForBytesArePinned) {
  bool multi_id_spine = false;
  bool multi_id_leaf = false;
  bool default_rule = false;
  for (const auto& c : golden_cases(GetParam())) {
    SCOPED_TRACE(c.name);
    const topo::ClosTopology t{c.params};
    EncoderConfig cfg;
    cfg.encoder = GetParam();
    cfg.hmax_spine = 2;
    cfg.hmax_leaf_override = 2;
    cfg.kmax = 2;
    cfg.kmax_spine = 2;
    cfg.srule_capacity = 0;  // overflow lands in the default p-rule
    Controller controller{t, cfg};
    const auto id = controller.create_group(4, c.members);

    const auto& enc = controller.group(id).encoding;
    for (const auto& r : enc.spine.p_rules) {
      multi_id_spine |= r.switch_ids.size() > 1;
    }
    for (const auto& r : enc.leaf.p_rules) {
      multi_id_leaf |= r.switch_ids.size() > 1;
    }
    default_rule |= enc.spine.default_rule || enc.leaf.default_rule;

    for (const bool failed : {false, true}) {
      SCOPED_TRACE(failed ? "after fail_spine" : "fast path");
      if (failed) controller.fail_spine(c.failed_spine);
      const auto& expected = failed ? c.after_failure : c.fast_path;
      for (std::size_t i = 0; i < c.senders.size(); ++i) {

        EXPECT_EQ(hex_of(controller.header_for(id, c.senders[i])),
                  expected[i])
            << "sender " << c.senders[i];
      }
      expect_install_matches_header_for(controller, id);
    }
  }
  EXPECT_TRUE(multi_id_spine);
  EXPECT_TRUE(multi_id_leaf);
  EXPECT_TRUE(default_rule);
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, GoldenHeaders,
                         ::testing::ValuesIn(kAllEncoderKinds),
                         [](const auto& info) {
                           switch (info.param) {
                             case EncoderKind::kElmo: return std::string{"Elmo"};
                             case EncoderKind::kBert: return std::string{"Bert"};
                             case EncoderKind::kP3fa: return std::string{"P3fa"};
                           }
                           return std::string{"Unknown"};
                         });

}  // namespace
}  // namespace elmo
