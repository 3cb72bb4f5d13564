// Time-to-effect watches (DESIGN.md §15), driven through the traced
// streaming control plane: a join closes at the first delivery after its
// flow install lands, a leave records whether the stale tree kept
// delivering, and changing the fabric's tracer drops every open watch.
#include <gtest/gtest.h>

#include <limits>
#include <string_view>
#include <vector>

#include "elmo/controller.h"
#include "elmo/stream.h"
#include "obs/trace.h"
#include "sim/fabric.h"

namespace elmo {
namespace {

struct TraceTte : ::testing::Test {
  TraceTte()
      : topology{topo::ClosParams::small_test()},
        controller{topology, EncoderConfig{}},
        fabric{topology},
        // Flushes are explicit so each test controls when installs land.
        plane{controller, fabric,
              stream::ControlPlaneOptions{
                  std::numeric_limits<std::size_t>::max()}} {
    // Sender on host 0, receivers in two other pods.
    id = controller.create_group(
        0, std::vector<Member>{{0, 0, MemberRole::kBoth},
                               {17, 1, MemberRole::kReceiver},
                               {33, 2, MemberRole::kReceiver}});
    fabric.install_group(controller, id);
    plane.track_group(id);
    plane.set_tracer(&tracer);
  }

  void send() {
    (void)fabric.send(0, controller.group(id).address, std::size_t{64});
  }

  obs::Tracer tracer;
  topo::ClosTopology topology;
  Controller controller;
  sim::Fabric fabric;
  stream::ControlPlane plane;
  GroupId id = 0;
};

TEST_F(TraceTte, JoinClosesAtFirstDeliveryAfterInstall) {
  plane.join(id, Member{49, 3, MemberRole::kReceiver});
  ASSERT_EQ(fabric.open_trace_watches(), 1u);
  send();  // the flow install is still pending: not the join's effect
  EXPECT_TRUE(fabric.tte_records().empty());
  plane.flush();
  EXPECT_TRUE(fabric.tte_records().empty());  // installed, not yet delivered
  send();

  ASSERT_EQ(fabric.tte_records().size(), 1u);
  const auto& rec = fabric.tte_records()[0];
  EXPECT_FALSE(rec.leave);
  EXPECT_EQ(rec.host, 49u);
  EXPECT_EQ(rec.group, controller.group(id).address.value);
  EXPECT_GE(rec.tte_seconds, 0.0);
  EXPECT_EQ(fabric.open_trace_watches(), 0u);

  // The closing instant lands in the join's trace.
  bool closed_in_join_trace = false;
  for (const auto& r : tracer.snapshot()) {
    if (std::string_view{r.name} == "tte:first_delivery") {
      closed_in_join_trace = r.trace_id == rec.trace_id;
    }
  }
  EXPECT_TRUE(closed_in_join_trace);
}

TEST_F(TraceTte, LeaveRecordsStaleSeen) {
  plane.leave(id, 17, 1);
  ASSERT_EQ(fabric.open_trace_watches(), 1u);
  send();  // removal still pending: host 17 gets a stale copy
  plane.flush();

  ASSERT_EQ(fabric.tte_records().size(), 1u);
  const auto& rec = fabric.tte_records()[0];
  EXPECT_TRUE(rec.leave);
  EXPECT_EQ(rec.host, 17u);
  EXPECT_TRUE(rec.stale_seen);
  EXPECT_GE(rec.tte_seconds, 0.0);
  EXPECT_EQ(fabric.open_trace_watches(), 0u);
}

TEST_F(TraceTte, ChangingTracerDropsOpenWatches) {
  plane.leave(id, 17, 1);
  ASSERT_EQ(fabric.open_trace_watches(), 1u);
  fabric.set_tracer(nullptr);
  EXPECT_EQ(fabric.open_trace_watches(), 0u);
  send();  // delivers to the formerly watched host with no tracer attached
  EXPECT_TRUE(fabric.tte_records().empty());

  // A swap drops watches too: their ingest time is on the old clock.
  fabric.set_tracer(&tracer);
  plane.leave(id, 33, 2);
  ASSERT_EQ(fabric.open_trace_watches(), 1u);
  obs::Tracer other;
  fabric.set_tracer(&other);
  EXPECT_EQ(fabric.open_trace_watches(), 0u);
  fabric.set_tracer(nullptr);
}

}  // namespace
}  // namespace elmo
