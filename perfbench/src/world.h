// The benchmark's shared set-up: the paper fabric carrying seeded WVE groups,
// bulk-encoded and installed through the p4rt channel.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/cloud.h"
#include "elmo/controller.h"
#include "elmo/stream.h"
#include "sim/fabric.h"
#include "span_log.h"
#include "topology/clos.h"

namespace perfbench {

struct WorldParams {
  std::size_t pods = 12;       // 12 = ClosParams::facebook_fabric()
  std::size_t groups = 5'000;
  std::size_t tenants = 1'000;
  // Draws tenants, placement, groups and roles: the benchmark's fixed data
  // set (the op streams are seeded separately).
  std::uint64_t seed = 2019;
  std::size_t flush_threshold = 64;
  bool track = true;           // adopt every group into the ControlPlane
};

// Wall-clock seconds of each set-up stage.
struct SetupTimes {
  double cloud = 0;    // tenants, VM placement, WVE group workload, roles
  double encode = 0;   // Controller::create_groups
  double fabric = 0;   // sim::Fabric construction
  double install = 0;  // compile_install -> encode -> decode -> apply_updates
  double track = 0;    // ControlPlane::track_group
  double total() const { return cloud + encode + fabric + install + track; }
};

// Work done by the bulk install through the p4rt channel.
struct InstallCounts {
  std::uint64_t updates = 0;
  std::uint64_t wire_bytes = 0;
};

// The paper's controller operating point (R = 12, Table 2).
elmo::EncoderConfig paper_encoder_config();

class World {
 public:
  // Builds and installs everything; with `log`, each stage and each p4rt
  // call of the install gets a span.
  World(const WorldParams& params, SpanLog* log);

  const WorldParams& params() const noexcept { return params_; }
  const SetupTimes& times() const noexcept { return times_; }
  const InstallCounts& install_counts() const noexcept { return install_; }

  const elmo::topo::ClosTopology& topology() const noexcept {
    return topology_;
  }
  const elmo::cloud::Cloud& cloud() const noexcept { return *cloud_; }
  elmo::Controller& controller() noexcept { return *controller_; }
  elmo::sim::Fabric& fabric() noexcept { return *fabric_; }
  elmo::stream::ControlPlane& plane() noexcept { return *plane_; }
  const std::vector<elmo::GroupId>& ids() const noexcept { return ids_; }

  // Initial member lists and tenants, parallel to ids().
  const std::vector<std::vector<elmo::Member>>& initial_members() const {
    return members_;
  }
  // Bulk-creation specs over initial_members(), for a shadow controller.
  std::vector<elmo::Controller::GroupSpec> specs() const;

 private:
  WorldParams params_;
  SetupTimes times_;
  InstallCounts install_;
  elmo::topo::ClosTopology topology_;
  std::unique_ptr<elmo::cloud::Cloud> cloud_;
  std::vector<std::vector<elmo::Member>> members_;
  std::vector<std::uint32_t> tenants_;
  std::unique_ptr<elmo::Controller> controller_;
  std::vector<elmo::GroupId> ids_;
  std::unique_ptr<elmo::sim::Fabric> fabric_;
  std::unique_ptr<elmo::stream::ControlPlane> plane_;
};

}  // namespace perfbench
