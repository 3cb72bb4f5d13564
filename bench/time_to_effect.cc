// Time-to-effect under churn: how long after a membership event does the
// data plane actually behave differently? (DESIGN.md §15)
//
// For each encoder, a paper-scale workload is bulk-installed and then a
// churn loop streams joins and leaves through a traced stream::ControlPlane
// while multicast sends probe the fabric. The fabric's time-to-effect
// watches close the loop end to end:
//
//   join:  ingest -> re-encode -> delta -> p4rt -> install -> FIRST packet
//          delivered to the joiner ("join-to-first-packet"),
//   leave: ingest -> ... -> install, with the LAST stale copy the leaver
//          received in between ("leave-to-last-stale").
//
// Each event runs { ingest; probe send; flush; probe send }: the first send
// lands while the delta is still pending (delivering the leave's stale
// copies), the flush installs it, the second send is the joiner's first
// chance at a delivery. Reported per encoder: closed-watch counts and
// p50/p99/max in microseconds, plus the records the tracer dropped past its
// bound: the tracer also records every probe send hop by hop, but the TTE
// closures themselves live in the fabric and are never dropped.
//
// Scale via env/flags: ELMO_PODS (default 12 = 27,648 hosts),
// ELMO_TTE_GROUPS (default 256), ELMO_EVENTS (default 4,000), --out=<path>
// records a bench/results-style JSON snapshot (docs/BENCH_SCHEMA.md).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>

#include "elmo/stream.h"
#include "figlib.h"
#include "obs/trace.h"
#include "sim/fabric.h"

namespace {

using namespace elmo;

struct TteSummary {
  std::vector<double> join_us;
  std::vector<double> leave_us;
  std::size_t stale_seen = 0;
  std::size_t open_watches = 0;  // never closed (no probe reached them)
  std::uint64_t tracer_dropped = 0;  // summed over the periodic clears
};

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0 : util::percentile(v, p);
}
double vmax(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

void append_side(std::string& out, const char* key,
                 const std::vector<double>& us, std::size_t stale,
                 bool leave) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"closed\": %zu, \"p50_us\": %.3f, \"p99_us\": "
                "%.3f, \"max_us\": %.3f",
                key, us.size(), pct(us, 50), pct(us, 99), vmax(us));
  out += buf;
  if (leave) {
    std::snprintf(buf, sizeof(buf), ", \"stale_seen\": %zu", stale);
    out += buf;
  }
  out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  using util::TextTable;
  const util::Flags flags{argc, argv};
  auto scale = benchx::Scale::from_flags(flags);
  const auto tte_groups =
      static_cast<std::size_t>(flags.get_int("tte_groups", 256));
  const auto events =
      static_cast<std::size_t>(flags.get_int("events", 4'000));
  const auto out_path = flags.get_string("out", "");

  util::ThreadPool pool{scale.threads};
  benchx::PhaseTimer phases;

  const topo::ClosTopology topology{scale.topo_params()};
  util::Rng rng{scale.seed};
  scale.tenants = std::max<std::size_t>(
      20, static_cast<std::size_t>(3000.0 * tte_groups / 1e6));
  phases.start("workload");
  const cloud::Cloud cloud{topology, scale.cloud_params(/*P=*/1), rng, &pool};
  cloud::WorkloadParams wp;
  wp.total_groups = tte_groups;
  const cloud::GroupWorkload workload{cloud, wp, rng, &pool};

  // One shared membership draw so every encoder churns the same groups.
  // Member 0 of each group is pinned to kBoth: it is the probe sender and
  // never leaves, so every group stays probeable for the whole run.
  const auto groups = workload.groups();
  const std::uint64_t role_seed = rng();
  std::vector<std::vector<Member>> base_members(groups.size());
  pool.parallel_for(0, groups.size(), [&](std::size_t gi) {
    const auto& g = groups[gi];
    auto role_rng = util::Rng::stream(role_seed, gi);
    auto& members = base_members[gi];
    members.reserve(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      members.push_back(Member{g.member_hosts[i], g.member_vms[i],
                               i == 0 ? MemberRole::kBoth
                                      : static_cast<MemberRole>(
                                            role_rng.index(3))});
    }
  });
  phases.stop();

  std::cout << "time_to_effect: " << topology.num_hosts() << " hosts, "
            << tte_groups << " groups, " << events
            << " churn events per encoder\n\n";

  std::string results_json;
  TextTable table{{"encoder", "join closed", "join p50 (us)", "join p99 (us)",
                   "leave closed", "stale seen", "leave p99 (us)"}};

  for (const auto kind : kAllEncoderKinds) {
    const char* name = to_string(kind);
    phases.start(name);

    EncoderConfig config;
    config.encoder = kind;
    config.redundancy_limit = 12;  // paper operating point
    Controller controller{topology, config};
    std::vector<Controller::GroupSpec> specs(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      specs[gi] = {groups[gi].tenant, base_members[gi]};
    }
    const auto ids = controller.create_groups(specs, &pool);

    sim::Fabric fabric{topology};
    for (const auto id : ids) fabric.install_group(controller, id);

    obs::Tracer tracer;
    // Flushes are explicit: the probe pattern needs one send in the
    // pending-delta window, so auto-flush must never fire.
    stream::ControlPlane plane{
        controller, fabric,
        stream::ControlPlaneOptions{std::numeric_limits<std::size_t>::max()}};
    for (const auto id : ids) plane.track_group(id);
    plane.set_tracer(&tracer);

    TteSummary sum;
    auto members = base_members;  // churned copy, per encoder
    util::Rng churn_rng{scale.seed ^ 0x7e};
    for (std::size_t e = 0; e < events; ++e) {
      const auto gi = churn_rng.index(ids.size());
      const auto id = ids[gi];
      const bool do_leave = (e % 2 == 1) && members[gi].size() > 1;
      if (do_leave) {
        const auto j = 1 + churn_rng.index(members[gi].size() - 1);
        const auto victim = members[gi][j];
        plane.leave(id, victim.host, victim.vm);
        members[gi].erase(members[gi].begin() +
                          static_cast<std::ptrdiff_t>(j));
      } else {
        Member m;
        do {
          m.host = static_cast<topo::HostId>(
              churn_rng.index(topology.num_hosts()));
        } while (m.host == members[gi][0].host);
        m.vm = static_cast<std::uint32_t>(10'000 + e);
        m.role = MemberRole::kReceiver;
        plane.join(id, m);
        members[gi].push_back(m);
      }
      const auto sender = members[gi][0].host;
      const auto address = controller.group(id).address;
      (void)fabric.send(sender, address, std::size_t{64});  // stale window
      plane.flush();
      (void)fabric.send(sender, address, std::size_t{64});  // first chance
      if ((e & 1023) == 1023) {
        // Bound span memory; watches and TTE records are kept.
        sum.tracer_dropped += tracer.stats().dropped;
        tracer.clear();
      }
    }
    plane.flush();
    phases.stop();
    sum.tracer_dropped += tracer.stats().dropped;

    for (const auto& rec : fabric.tte_records()) {
      if (rec.leave) {
        sum.leave_us.push_back(rec.tte_seconds * 1e6);
        if (rec.stale_seen) ++sum.stale_seen;
      } else {
        sum.join_us.push_back(rec.tte_seconds * 1e6);
      }
    }
    sum.open_watches = fabric.open_trace_watches();

    table.add_row({name, std::to_string(sum.join_us.size()),
                   TextTable::fmt(pct(sum.join_us, 50), 1),
                   TextTable::fmt(pct(sum.join_us, 99), 1),
                   std::to_string(sum.leave_us.size()),
                   std::to_string(sum.stale_seen),
                   TextTable::fmt(pct(sum.leave_us, 99), 1)});

    if (!results_json.empty()) results_json += ",\n  ";
    results_json += std::string{"\""} + name + "\": {";
    append_side(results_json, "join", sum.join_us, 0, false);
    results_json += ", ";
    append_side(results_json, "leave", sum.leave_us, sum.stale_seen, true);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ", \"open_watches\": %zu, \"tracer_dropped\": %llu}",
                  sum.open_watches,
                  static_cast<unsigned long long>(sum.tracer_dropped));
    results_json += buf;
  }

  std::cout << table.render();

  if (!out_path.empty()) {
    std::ofstream file{out_path};
    file << "{\"bench\": \"time_to_effect\", \"pods\": " << scale.pods
         << ", \"hosts\": " << topology.num_hosts()
         << ", \"groups\": " << tte_groups << ", \"events\": " << events
         << ", \"seed\": " << scale.seed << ",\n \"results\": {\n  "
         << results_json << "\n}}\n";
  }

  auto json_scale = scale;
  json_scale.groups = tte_groups;
  benchx::emit_run_json("time_to_effect", json_scale, phases);
  return 0;
}
