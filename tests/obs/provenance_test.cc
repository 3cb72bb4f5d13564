// Tentpole coverage (DESIGN.md §10): the ProvenanceLog built by a fabric
// walk is a well-formed decision tree — every hop linked under its parent,
// every decision attributed to a rule class — and attachment is strictly
// opt-in.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "elmo/controller.h"
#include "sim/fabric.h"

namespace elmo::obs {
namespace {

struct ProvenanceFixture : ::testing::Test {
  ProvenanceFixture()
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
  sim::Fabric fabric;
  ProvenanceLog log;
};

TEST_F(ProvenanceFixture, WalkBuildsLinkedDecisionTree) {
  const auto id = make_group({0, 1, 17, 33});
  fabric.set_provenance(&log);
  const auto res =
      fabric.send(0, controller.group(id).address, std::size_t{64});

  ASSERT_EQ(log.sends().size(), 1u);
  const auto& trace = log.last();
  EXPECT_EQ(trace.src_host, 0u);
  ASSERT_FALSE(trace.hops.empty());

  // Root: the sending host, marked kSource, parentless.
  EXPECT_EQ(trace.hops[0].layer, topo::Layer::kHost);
  EXPECT_EQ(trace.hops[0].node, 0u);
  EXPECT_EQ(trace.hops[0].parent, kNoProvParent);
  EXPECT_EQ(trace.hops[0].decision.rule, RuleClass::kSource);

  std::size_t deliveries = 0;
  for (std::size_t i = 1; i < trace.hops.size(); ++i) {
    const auto& hop = trace.hops[i];
    // Parent linkage is consistent both ways.
    ASSERT_LT(hop.parent, i);
    const auto& siblings = trace.hops[hop.parent].children;
    EXPECT_NE(std::find(siblings.begin(), siblings.end(), i), siblings.end());
    // Every processed hop carries a decision.
    EXPECT_NE(hop.decision.rule, RuleClass::kNone);
    if (hop.layer == topo::Layer::kHost) {
      EXPECT_EQ(hop.decision.rule, RuleClass::kHostDeliver);
      EXPECT_GE(hop.decision.vm_deliveries, 1u);
      // Hosts strip the outer header + any surviving Elmo bytes.
      EXPECT_GE(hop.decision.popped_bytes, net::kOuterHeaderBytes);
      ++deliveries;
    } else {
      // A switch hop that replicated must expose its egress set.
      if (!hop.children.empty()) {
        EXPECT_TRUE(hop.decision.egress.any());
      }
    }
  }
  // One host hop per delivered copy.
  std::size_t copies = 0;
  for (const auto& [host, n] : res.host_copies) copies += n;
  EXPECT_EQ(deliveries, copies);

  // Cross-pod walk pops header sections somewhere along the way.
  std::size_t popped = 0;
  for (const auto& hop : trace.hops) popped += hop.decision.popped_bytes;
  EXPECT_GT(popped, 0u);
}

TEST_F(ProvenanceFixture, DetachedFabricRecordsNothing) {
  const auto id = make_group({0, 17});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  ASSERT_EQ(log.sends().size(), 1u);

  fabric.set_provenance(nullptr);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  EXPECT_EQ(log.sends().size(), 1u);  // detached send left no trace
}

TEST_F(ProvenanceFixture, LossModelRecordsLostCopies) {
  const auto id = make_group({0, 1});
  fabric.set_provenance(&log);
  fabric.set_loss(1.0);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});

  ASSERT_EQ(log.sends().size(), 1u);
  const auto& trace = log.last();
  // Root + the first host->leaf copy, dropped in flight.
  ASSERT_EQ(trace.hops.size(), 2u);
  EXPECT_TRUE(trace.hops[1].lost);
  EXPECT_EQ(trace.hops[1].layer, topo::Layer::kLeaf);
  // The lost copy keeps the wire size it was sent with.
  EXPECT_EQ(trace.hops[1].bytes_in, trace.hops[0].bytes_in);
  EXPECT_NE(render_trace(trace).find("[lost in flight]"), std::string::npos);
}

TEST_F(ProvenanceFixture, RenderAppendsPerHopNotes) {
  const auto id = make_group({0, 1});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});

  // host0 -> L0 -> host1; a note on the delivery only, and a notes span
  // shorter than the trace leaves the rest bare.
  const auto& trace = log.last();
  ASSERT_EQ(trace.hops.size(), 3u);
  const char* notes[] = {nullptr, nullptr, "<- here"};
  const auto text = render_trace(trace, notes);
  EXPECT_NE(text.find("B in]  <- here\n"), std::string::npos);
  EXPECT_EQ(text.find("<- here"), text.rfind("<- here"));
  EXPECT_EQ(render_trace(trace, std::span{notes, 1}), render_trace(trace));
}

TEST_F(ProvenanceFixture, RenderNamesNodesAndRules) {
  const auto id = make_group({0, 17});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});

  const auto text = render_trace(log.last());
  // The group is named by its dotted address, as mtrace_tool prints it.
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "send group=" + controller.group(id).address.to_string() +
                " from host0");
  EXPECT_NE(text.find("host0"), std::string::npos);
  EXPECT_NE(text.find("L0"), std::string::npos);
  EXPECT_NE(text.find("host17"), std::string::npos);
  EXPECT_NE(text.find("[source"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("egress="), std::string::npos);
}

TEST_F(ProvenanceFixture, ClearDropsEveryTrace) {
  const auto id = make_group({0, 1});
  fabric.set_provenance(&log);
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  EXPECT_EQ(log.sends().size(), 2u);
  log.clear();
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace elmo::obs
