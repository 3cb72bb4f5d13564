#include "world.h"

#include <algorithm>
#include <chrono>

#include "p4rt/runtime.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

elmo::topo::ClosParams fabric_params(std::size_t pods) {
  auto params = elmo::topo::ClosParams::facebook_fabric();
  params.pods = pods;
  return params;
}

}  // namespace

elmo::EncoderConfig paper_encoder_config() {
  elmo::EncoderConfig config;
  config.redundancy_limit = 12;
  return config;
}

World::World(const WorldParams& params, SpanLog* log)
    : params_{params}, topology_{fabric_params(params.pods)} {
  using namespace elmo;
  util::Rng rng{params.seed};

  // Tenants (the paper's size distribution), placement at P = 1, WVE groups,
  // and member roles drawn as in bench/controller_churn.cc.
  auto t0 = Clock::now();
  {
    MaybeSpan span{log, SpanKind::kSetupCloud, SpanLog::kNoSpan, 0};
    cloud::CloudParams cp;
    cp.tenants = params.tenants;
    cp.colocation = 1;
    cloud_ = std::make_unique<cloud::Cloud>(topology_, cp, rng);
    cloud::WorkloadParams wp;
    wp.total_groups = params.groups;
    const cloud::GroupWorkload workload{*cloud_, wp, rng};
    const auto groups = workload.groups();
    const std::uint64_t role_seed = rng();
    members_.resize(groups.size());
    tenants_.resize(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const auto& g = groups[gi];
      auto role_rng = util::Rng::stream(role_seed, gi);
      auto& members = members_[gi];
      members.reserve(g.size());
      for (std::size_t i = 0; i < g.size(); ++i) {
        members.push_back(Member{g.member_hosts[i], g.member_vms[i],
                                 static_cast<MemberRole>(role_rng.index(3))});
      }
      tenants_[gi] = g.tenant;
    }
  }
  times_.cloud = seconds_since(t0);

  t0 = Clock::now();
  {
    MaybeSpan span{log, SpanKind::kSetupEncode, SpanLog::kNoSpan, 0};
    controller_ = std::make_unique<Controller>(topology_, paper_encoder_config());
    const auto group_specs = specs();
    ids_ = controller_->create_groups(group_specs);
  }
  times_.encode = seconds_since(t0);

  t0 = Clock::now();
  {
    MaybeSpan span{log, SpanKind::kSetupFabric, SpanLog::kNoSpan, 0};
    fabric_ = std::make_unique<sim::Fabric>(topology_);
  }
  times_.fabric = seconds_since(t0);

  // Every group goes through the wire channel, as the paper's controller
  // installs rules.
  t0 = Clock::now();
  {
    MaybeSpan install{log, SpanKind::kSetupInstall, SpanLog::kNoSpan, 0};
    for (const auto id : ids_) {
      std::vector<p4rt::Update> updates;
      std::vector<std::uint8_t> wire;
      std::vector<p4rt::Update> decoded;
      {
        MaybeSpan s{log, SpanKind::kCompile, install.id(), id};
        updates = p4rt::compile_install(*controller_, id);
      }
      {
        MaybeSpan s{log, SpanKind::kWireEncode, install.id(), id};
        wire = p4rt::encode(updates);
      }
      {
        MaybeSpan s{log, SpanKind::kWireDecode, install.id(), id};
        decoded = p4rt::decode(wire);
      }
      {
        MaybeSpan s{log, SpanKind::kApply, install.id(), id};
        p4rt::apply_updates(*fabric_, decoded);
      }
      install_.updates += updates.size();
      install_.wire_bytes += wire.size();
    }
  }
  times_.install = seconds_since(t0);

  t0 = Clock::now();
  plane_ = std::make_unique<stream::ControlPlane>(
      *controller_, *fabric_,
      stream::ControlPlaneOptions{params.flush_threshold});
  if (params.track) {
    MaybeSpan span{log, SpanKind::kSetupTrack, SpanLog::kNoSpan, 0};
    for (const auto id : ids_) plane_->track_group(id);
  }
  times_.track = seconds_since(t0);
}

std::vector<elmo::Controller::GroupSpec> World::specs() const {
  std::vector<elmo::Controller::GroupSpec> out(members_.size());
  for (std::size_t gi = 0; gi < members_.size(); ++gi) {
    out[gi] = {tenants_[gi], members_[gi]};
  }
  return out;
}

}  // namespace perfbench
