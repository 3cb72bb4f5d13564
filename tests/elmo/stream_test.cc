#include "elmo/stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "elmo/churn.h"
#include "p4rt/runtime.h"
#include "testutil.h"
#include "util/rng.h"

namespace elmo::stream {
namespace {

EncoderConfig config_for(EncoderKind kind) {
  EncoderConfig cfg;
  cfg.encoder = kind;
  cfg.hmax_leaf_override = 2;  // force s-rules so every rule kind appears
  return cfg;
}

// Hand-built single-tenant world with co-located VMs (4 VMs per host).
struct StreamWorld {
  explicit StreamWorld(EncoderKind kind = EncoderKind::kElmo,
                       std::uint32_t vms = 40)
      : topology{topo::ClosParams::small_test()},
        controller{topology, config_for(kind)},
        fabric{topology} {
    tenants.resize(1);
    tenants[0].id = 0;
    for (std::uint32_t vm = 0; vm < vms; ++vm) {
      tenants[0].vm_hosts.push_back((vm / 4) % topology.num_hosts());
    }
  }

  GroupId make_group(std::span<const std::uint32_t> vms) {
    std::vector<Member> members;
    for (const auto vm : vms) {
      members.push_back(Member{tenants[0].vm_hosts[vm], vm, MemberRole::kBoth});
    }
    return controller.create_group(0, members);
  }

  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
  std::vector<cloud::Tenant> tenants;
};

TEST(ControlPlane, JoinOnUntrackedGroupStreamsFullInstall) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8};
  const auto id = w.make_group(vms);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  cp.refresh(id);  // untracked: emits the full install

  sim::Fabric batch{w.topology};
  batch.install_group(w.controller, id);
  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(batch));
  EXPECT_GT(cp.stats().updates_applied, 0u);
  EXPECT_GT(cp.stats().wire_bytes, 0u);
}

TEST(ControlPlane, JoinEmitsDeltaNotFullReinstall) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8, 12, 16, 20};
  const auto id = w.make_group(vms);
  w.fabric.install_group(w.controller, id);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  cp.track_group(id);
  EXPECT_EQ(cp.stats().updates_applied, 0u);  // tracking emits nothing

  // A receiver joining a host that already has a member: the receiver host
  // set is unchanged, so the tree, encoding and every sender header stay
  // put — the delta must be exactly ONE flow update (that host's local_vms
  // gained a VM), not a re-push of the whole group.
  const std::uint32_t joining_vm = 1;  // co-located with vm 0
  ASSERT_EQ(w.tenants[0].vm_hosts[joining_vm], w.tenants[0].vm_hosts[0]);
  cp.join(id, Member{w.tenants[0].vm_hosts[joining_vm], joining_vm,
                     MemberRole::kReceiver});
  cp.flush();

  EXPECT_EQ(cp.stats().flow_adds, 1u)
      << "a delta install must not re-push every member's flow";
  EXPECT_EQ(cp.stats().leaf_srule_adds + cp.stats().spine_srule_adds, 0u);
  EXPECT_EQ(cp.stats().updates_applied, 1u);

  sim::Fabric batch{w.topology};
  batch.install_group(w.controller, id);
  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(batch));
}

TEST(ControlPlane, LeaveRemovesVacatedHostFlow) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8};
  const auto id = w.make_group(vms);
  w.fabric.install_group(w.controller, id);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  cp.track_group(id);

  const auto host = w.tenants[0].vm_hosts[8];
  cp.leave(id, host, 8);
  cp.flush();

  EXPECT_FALSE(w.fabric.hypervisor(host).has_flow(
      w.controller.group(id).address));
  EXPECT_GE(cp.stats().flow_dels, 1u);

  sim::Fabric batch{w.topology};
  batch.install_group(w.controller, id);
  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(batch));
}

TEST(ControlPlane, CoalescingCollapsesRepeatedTouchesToOneRule) {
  StreamWorld w;
  const std::vector<std::uint32_t> vms{0, 4, 8};
  const auto id = w.make_group(vms);
  w.fabric.install_group(w.controller, id);

  // Large threshold: nothing flushes while the same host's flow is touched
  // repeatedly; the wire must see only the final state.
  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};
  cp.track_group(id);

  // vms 12..15 live on one host: four joins touch the same flow.
  for (std::uint32_t vm = 12; vm < 16; ++vm) {
    cp.join(id, Member{w.tenants[0].vm_hosts[vm], vm, MemberRole::kReceiver});
  }
  EXPECT_GT(cp.stats().updates_coalesced, 0u);
  cp.flush();

  sim::Fabric batch{w.topology};
  batch.install_group(w.controller, id);
  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(batch));
}

TEST(ControlPlane, HostFailEvictsEveryMembershipOnTheHost) {
  StreamWorld w;
  // Host of vms 0..3 carries members of two groups.
  const std::vector<std::uint32_t> g1_vms{0, 1, 8};
  const std::vector<std::uint32_t> g2_vms{2, 12, 16};
  const auto g1 = w.make_group(g1_vms);
  const auto g2 = w.make_group(g2_vms);
  w.fabric.install_group(w.controller, g1);
  w.fabric.install_group(w.controller, g2);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{1}};
  cp.track_group(g1);
  cp.track_group(g2);

  const auto dead = w.tenants[0].vm_hosts[0];
  const auto evicted = cp.host_fail(dead);
  cp.flush();
  EXPECT_EQ(evicted, 3u);  // vms 0, 1 (g1) and 2 (g2)

  for (const auto id : {g1, g2}) {
    for (const auto& m : w.controller.group(id).members) {
      EXPECT_NE(m.host, dead);
    }
    sim::Fabric batch{w.topology};
    batch.install_group(w.controller, id);
  }
  EXPECT_FALSE(w.fabric.hypervisor(dead).has_flow(
      w.controller.group(g1).address));
  EXPECT_FALSE(w.fabric.hypervisor(dead).has_flow(
      w.controller.group(g2).address));
  EXPECT_EQ(cp.stats().host_fails, 1u);
}

TEST(ControlPlane, InstallLagIsRecordedPerEvent) {
  StreamWorld w;
  const auto id = w.make_group(std::vector<std::uint32_t>{0, 4, 8});
  w.fabric.install_group(w.controller, id);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{100000}};
  cp.track_group(id);
  cp.join(id, Member{w.tenants[0].vm_hosts[12], 12, MemberRole::kReceiver});
  cp.join(id, Member{w.tenants[0].vm_hosts[16], 16, MemberRole::kReceiver});
  EXPECT_EQ(cp.stats().install_lag_seconds.count(), 0u);  // not flushed yet
  cp.flush();
  EXPECT_EQ(cp.stats().install_lag_seconds.count(), 2u);
  EXPECT_GE(cp.stats().install_lag_seconds.percentile(99), 0.0);
}

TEST(ControlPlane, RejectsZeroFlushThreshold) {
  StreamWorld w;
  EXPECT_THROW(
      (ControlPlane{w.controller, w.fabric, ControlPlaneOptions{0}}),
      std::invalid_argument);
}

// The rule updates that take the fabric from what it holds to the
// controller's current install of `id`, found the brute-force way:
// p4rt::compile_install compared rule by rule against the fabric's tables.
// One entry per rule location, counted per kind and per element.
struct BruteForceDelta {
  std::size_t flow_adds = 0;
  std::size_t flow_dels = 0;
  std::size_t srule_adds = 0;
  std::size_t srule_dels = 0;
  AppliedUpdates per_element;

  std::size_t size() const {
    return flow_adds + flow_dels + srule_adds + srule_dels;
  }
};

BruteForceDelta brute_force_delta(const Controller& controller,
                                  const sim::Fabric& fabric, GroupId id,
                                  net::Ipv4Address addr) {
  const auto& t = fabric.topology();
  BruteForceDelta d;
  d.per_element.hosts.assign(t.num_hosts(), 0);
  d.per_element.leaves.assign(t.num_leaves(), 0);
  d.per_element.spines.assign(t.num_spines(), 0);
  std::vector<bool> host_wanted(t.num_hosts(), false);
  std::vector<bool> leaf_wanted(t.num_leaves(), false);
  std::vector<bool> spine_wanted(t.num_spines(), false);
  const auto desired = controller.has_group(id)
                           ? p4rt::compile_install(controller, id)
                           : std::vector<p4rt::Update>{};
  for (const auto& u : desired) {
    if (u.kind == p4rt::UpdateKind::kHypervisorFlowAdd) {
      host_wanted[u.host] = true;
      const auto* flow = fabric.hypervisor(u.host).flow(addr);
      if (flow != nullptr && flow->vni == u.vni &&
          flow->local_vms == u.local_vms &&
          flow->header().bytes() == u.elmo_header) {
        continue;
      }
      ++d.flow_adds;
      ++d.per_element.hosts[u.host];
      continue;
    }
    const bool leaf = u.layer == topo::Layer::kLeaf;
    (leaf ? leaf_wanted : spine_wanted)[u.switch_id] = true;
    const auto* held = leaf ? fabric.leaf(u.switch_id).srule(addr)
                            : fabric.spine(u.switch_id).srule(addr);
    if (held != nullptr && *held == u.ports) continue;
    ++d.srule_adds;
    ++(leaf ? d.per_element.leaves : d.per_element.spines)[u.switch_id];
  }
  for (topo::HostId h = 0; h < t.num_hosts(); ++h) {
    if (!host_wanted[h] && fabric.hypervisor(h).has_flow(addr)) {
      ++d.flow_dels;
      ++d.per_element.hosts[h];
    }
  }
  for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
    if (!leaf_wanted[l] && fabric.leaf(l).srule(addr) != nullptr) {
      ++d.srule_dels;
      ++d.per_element.leaves[l];
    }
  }
  for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
    if (!spine_wanted[s] && fabric.spine(s).srule(addr) != nullptr) {
      ++d.srule_dels;
      ++d.per_element.spines[s];
    }
  }
  return d;
}

std::vector<std::uint64_t> minus(const std::vector<std::uint64_t>& after,
                                 const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> out(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) out[i] = after[i] - before[i];
  return out;
}

// Checks that the plane's pending set is exactly the brute-force delta —
// same size, and once flushed the same kinds at the same elements — and
// that the flushed fabric equals a fresh install. Returns the delta.
BruteForceDelta expect_pending_is_brute_force_delta(ControlPlane& cp,
                                                    StreamWorld& w,
                                                    GroupId id,
                                                    net::Ipv4Address addr) {
  const auto want = brute_force_delta(w.controller, w.fabric, id, addr);
  EXPECT_EQ(cp.pending(), want.size());
  const auto stats = cp.stats();
  const auto applied = cp.applied();
  cp.flush();
  EXPECT_EQ(cp.stats().flow_adds - stats.flow_adds, want.flow_adds);
  EXPECT_EQ(cp.stats().flow_dels - stats.flow_dels, want.flow_dels);
  EXPECT_EQ(cp.stats().leaf_srule_adds + cp.stats().spine_srule_adds -
                stats.leaf_srule_adds - stats.spine_srule_adds,
            want.srule_adds);
  EXPECT_EQ(cp.stats().leaf_srule_dels + cp.stats().spine_srule_dels -
                stats.leaf_srule_dels - stats.spine_srule_dels,
            want.srule_dels);
  EXPECT_EQ(minus(cp.applied().hosts, applied.hosts), want.per_element.hosts);
  EXPECT_EQ(minus(cp.applied().leaves, applied.leaves),
            want.per_element.leaves);
  EXPECT_EQ(minus(cp.applied().spines, applied.spines),
            want.per_element.spines);
  sim::Fabric batch{w.topology};
  if (w.controller.has_group(id)) batch.install_group(w.controller, id);
  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(batch));
  return want;
}

// Each sending host's upstream prefix, and the shared downstream suffix,
// of the controller's current compile of `id`.
struct HeaderParts {
  std::vector<std::uint8_t> downstream;
  std::vector<std::pair<topo::HostId, std::vector<std::uint8_t>>> prefixes;
};

HeaderParts header_parts(const Controller& controller, GroupId id) {
  p4rt::GroupCompile view;
  view.compile(controller, id);
  HeaderParts parts{view.downstream, {}};
  for (const auto& flow : view.flows) {
    if (!flow.has_header) continue;
    const auto prefix = view.prefix(flow);
    parts.prefixes.emplace_back(
        flow.host, std::vector<std::uint8_t>{prefix.begin(), prefix.end()});
  }
  return parts;
}

// The streaming diff against its brute-force reference, one step per way a
// rule can change. VM v lives on host v / 4; the small fabric has 4 pods of
// 4 leaves of 4 hosts, so host h sits on leaf h / 4 in pod h / 16.
TEST(ControlPlane, PendingSetIsTheBruteForceDeltaForEveryKindOfChange) {
  StreamWorld w{EncoderKind::kElmo, 256};
  auto member = [&](topo::HostId host, std::uint32_t slot, MemberRole role) {
    return Member{host, host * 4 + slot, role};
  };
  const std::vector<Member> members{
      member(0, 0, MemberRole::kBoth),     member(5, 0, MemberRole::kReceiver),
      member(17, 0, MemberRole::kBoth),    member(21, 0, MemberRole::kReceiver),
      member(33, 0, MemberRole::kReceiver)};
  const auto id = w.controller.create_group(0, members);
  const auto addr = w.controller.group(id).address;
  w.fabric.install_group(w.controller, id);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{SIZE_MAX}};
  cp.track_group(id);
  {
    SCOPED_TRACE("adopt");
    EXPECT_EQ(expect_pending_is_brute_force_delta(cp, w, id, addr).size(), 0u);
  }

  {
    SCOPED_TRACE("local VMs only: a receiver joins a host holding the flow");
    const auto before = header_parts(w.controller, id);
    cp.join(id, member(5, 1, MemberRole::kReceiver));
    const auto after = header_parts(w.controller, id);
    EXPECT_EQ(before.downstream, after.downstream);
    EXPECT_EQ(before.prefixes, after.prefixes);
    const auto d = expect_pending_is_brute_force_delta(cp, w, id, addr);
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.per_element.hosts[5], 1u);
  }

  {
    SCOPED_TRACE("header presence: a receiver-only host gains a sender");
    ASSERT_TRUE(w.fabric.hypervisor(5).flow(addr)->header().empty());
    cp.join(id, member(5, 2, MemberRole::kSender));
    const auto d = expect_pending_is_brute_force_delta(cp, w, id, addr);
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.per_element.hosts[5], 1u);
    EXPECT_FALSE(w.fabric.hypervisor(5).flow(addr)->header().empty());
  }

  {
    SCOPED_TRACE("suffix only: a receiver joins a new leaf of a member pod");
    const auto before = header_parts(w.controller, id);
    cp.join(id, member(37, 0, MemberRole::kReceiver));
    const auto after = header_parts(w.controller, id);
    EXPECT_NE(before.downstream, after.downstream);
    EXPECT_EQ(before.prefixes, after.prefixes);
    const auto d = expect_pending_is_brute_force_delta(cp, w, id, addr);
    // Every sender's header changed through the suffix alone, and host 37
    // gained its flow.
    EXPECT_EQ(d.flow_adds, after.prefixes.size() + 1);
  }

  for (const bool core : {false, true}) {
    SCOPED_TRACE(core ? "prefix only: a core fails" : "prefix only: a spine fails");
    const auto before = header_parts(w.controller, id);
    if (core) {
      w.controller.fail_core(0);
    } else {
      w.controller.fail_spine(w.topology.spine_at(0, 0));
    }
    cp.refresh(id);
    const auto after = header_parts(w.controller, id);
    EXPECT_EQ(before.downstream, after.downstream);
    EXPECT_NE(before.prefixes, after.prefixes);
    const auto d = expect_pending_is_brute_force_delta(cp, w, id, addr);
    EXPECT_GT(d.flow_adds, 0u);
    EXPECT_EQ(d.flow_dels + d.srule_adds + d.srule_dels, 0u);
    if (core) {
      w.controller.restore_core(0);
    } else {
      w.controller.restore_spine(w.topology.spine_at(0, 0));
    }
    cp.refresh(id);
    EXPECT_GT(expect_pending_is_brute_force_delta(cp, w, id, addr).flow_adds,
              0u);
  }

  {
    SCOPED_TRACE("s-rule add, then delete: receivers on more leaves than "
                 "the header's two leaf p-rules, then gone again");
    std::size_t srule_adds = 0;
    std::size_t srule_dels = 0;
    const std::vector<topo::HostId> hosts{41, 45, 49, 53, 57, 61};
    for (const auto host : hosts) {
      cp.join(id, member(host, 0, MemberRole::kReceiver));
      srule_adds += expect_pending_is_brute_force_delta(cp, w, id, addr)
                        .srule_adds;
    }
    for (const auto host : hosts) {
      cp.leave(id, host, host * 4);
      srule_dels += expect_pending_is_brute_force_delta(cp, w, id, addr)
                        .srule_dels;
    }
    EXPECT_GT(srule_adds, 0u);
    EXPECT_GT(srule_dels, 0u);
  }

  {
    SCOPED_TRACE("group removed");
    w.controller.remove_group(id);
    cp.refresh(id);
    const auto d = expect_pending_is_brute_force_delta(cp, w, id, addr);
    EXPECT_EQ(d.flow_adds + d.srule_adds, 0u);
    EXPECT_GT(d.flow_dels, 0u);
  }
}

// Adopting an installed group is clean: track_group seeds the mirror with
// exactly what a batch install put in the fabric, so refreshing every group
// right after queues nothing — under every encoder, and with a failure
// marked before the install.
class CleanAdopt
    : public ::testing::TestWithParam<std::tuple<EncoderKind, bool>> {};

TEST_P(CleanAdopt, RefreshAfterTrackQueuesNothing) {
  const auto [kind, spine_down] = GetParam();
  StreamWorld w{kind, 256};
  if (spine_down) w.controller.fail_spine(w.topology.spine_at(1, 0));
  std::vector<GroupId> ids;
  ids.push_back(w.make_group(std::vector<std::uint32_t>{0, 20, 68, 140, 200}));
  ids.push_back(w.make_group(std::vector<std::uint32_t>{1, 2, 3, 4, 5, 90}));
  ids.push_back(
      w.make_group(std::vector<std::uint32_t>{8, 36, 100, 164, 228, 250}));
  for (const auto id : ids) w.fabric.install_group(w.controller, id);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{SIZE_MAX}};
  for (const auto id : ids) cp.track_group(id);
  for (const auto id : ids) cp.refresh(id);
  EXPECT_EQ(cp.pending(), 0u);
  EXPECT_EQ(cp.refresh_all(), 0u);
  EXPECT_EQ(cp.pending(), 0u);
  EXPECT_EQ(cp.stats().updates_coalesced, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, CleanAdopt,
    ::testing::Combine(::testing::Values(EncoderKind::kElmo,
                                         EncoderKind::kBert,
                                         EncoderKind::kP3fa),
                       ::testing::Bool()),
    [](const auto& info) {
      const auto kind = std::get<0>(info.param);
      std::string name = kind == EncoderKind::kElmo   ? "Elmo"
                         : kind == EncoderKind::kBert ? "Bert"
                                                      : "P3fa";
      return name + (std::get<1>(info.param) ? "SpineDown" : "Healthy");
    });

// The headline equivalence property, across all three encoders: N streamed
// events with delta installs leave the fabric byte-identical (digest-equal)
// to a fresh world where the FINAL membership is batch-created and
// batch-installed.
class StreamEquivalence : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(StreamEquivalence, StreamedDeltasMatchBatchInstallOfFinalState) {
  const auto kind = GetParam();
  StreamWorld w{kind, 80};

  std::vector<GroupId> ids;
  ids.push_back(w.make_group(std::vector<std::uint32_t>{0, 4, 8, 12}));
  ids.push_back(w.make_group(std::vector<std::uint32_t>{1, 20, 33, 47, 60}));
  ids.push_back(w.make_group(std::vector<std::uint32_t>{2, 6, 70}));
  for (const auto id : ids) w.fabric.install_group(w.controller, id);

  ControlPlane cp{w.controller, w.fabric, ControlPlaneOptions{8}};
  for (const auto id : ids) cp.track_group(id);

  // Drive a few hundred churn events through the plane (the simulator keeps
  // its own membership mirror and checks leave-by-(host, vm) semantics).
  ChurnSimulator churn{w.controller, w.tenants, ids};
  churn.set_driver(&cp);
  util::Rng rng{2024};
  for (int i = 0; i < 400; ++i) churn.step(2, rng);
  cp.flush();

  // Fresh world: batch-create the final membership in a new controller so
  // encodings are computed from scratch, then install directly.
  StreamWorld fresh{kind, 80};
  for (std::size_t gi = 0; gi < ids.size(); ++gi) {
    const auto& members = w.controller.group(ids[gi]).members;
    const auto id = fresh.controller.create_group(0, members);
    fresh.fabric.install_group(fresh.controller, id);
  }

  EXPECT_EQ(fabric_state_digest(w.fabric), fabric_state_digest(fresh.fabric))
      << "streamed world diverged from batch install";
  EXPECT_GT(cp.stats().events, 0u);
  EXPECT_GT(cp.stats().updates_applied, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, StreamEquivalence,
                         ::testing::Values(EncoderKind::kElmo,
                                           EncoderKind::kBert,
                                           EncoderKind::kP3fa),
                         [](const auto& info) {
                           switch (info.param) {
                             case EncoderKind::kElmo:
                               return "Elmo";
                             case EncoderKind::kBert:
                               return "Bert";
                             case EncoderKind::kP3fa:
                               return "P3fa";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace elmo::stream
