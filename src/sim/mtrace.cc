#include "sim/mtrace.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace elmo::sim {

std::size_t MtraceReport::depth(std::size_t index) const {
  std::size_t d = 0;
  for (; trace.hops[index].parent != obs::kNoProvParent; ++d) {
    index = trace.hops[index].parent;
  }
  return d;
}

namespace {

MtraceCounters snapshot(const Fabric& fabric) {
  return {fabric.aggregate_switch_stats(topo::Layer::kLeaf),
          fabric.aggregate_switch_stats(topo::Layer::kSpine),
          fabric.aggregate_switch_stats(topo::Layer::kCore),
          fabric.aggregate_hypervisor_stats()};
}

}  // namespace

MtraceReport mtrace(Fabric& fabric, const elmo::Controller& controller,
                    elmo::GroupId group, topo::HostId sender,
                    std::size_t payload_bytes) {
  const auto& g = controller.group(group);
  obs::ProvenanceLog local;
  auto* const attached = fabric.provenance();
  auto* const log = attached != nullptr ? attached : &local;
  const auto sends_before = log->sends().size();

  // Per-element counters before the probe; the report carries the delta,
  // i.e. what this one packet did.
  const auto before = snapshot(fabric);
  fabric.set_provenance(log);
  (void)fabric.send(sender, g.address, payload_bytes);
  fabric.set_provenance(attached);

  MtraceReport report;
  report.counters = snapshot(fabric);
  report.counters.leaves -= before.leaves;
  report.counters.spines -= before.spines;
  report.counters.cores -= before.cores;
  report.counters.hypervisors -= before.hypervisors;

  // A sender without a flow for the group sends nothing and records no tree.
  if (log->sends().size() == sends_before) return report;
  report.trace = log->last();

  const auto& hops = report.trace.hops;
  report.notes.assign(hops.size(), nullptr);
  std::set<topo::HostId> reached;
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const auto& hop = hops[i];
    report.total_wire_bytes += hop.bytes_in;
    report.max_depth = std::max(report.max_depth, report.depth(i));
    if (hop.lost) {
      ++report.lost_copies;
      continue;
    }
    if (hop.layer != topo::Layer::kHost) continue;
    const bool member = g.tree != nullptr && g.tree->is_member(hop.node) &&
                        reached.insert(hop.node).second;
    if (member) {
      ++report.members_reached;
      report.notes[i] = "<- member";
    } else {
      ++report.redundant_copies;
      report.notes[i] = "<- redundant";
    }
  }
  return report;
}

std::string MtraceReport::render() const {
  std::ostringstream out;
  out << "mtrace: " << link_transmissions() << " link transmissions, "
      << members_reached << " members reached, " << redundant_copies
      << " redundant copies, " << lost_copies << " lost, "
      << total_wire_bytes << " wire bytes\n";
  out << obs::render_trace(trace, notes);
  auto layer_line = [&out](const char* name, const dp::SwitchStats& s) {
    if (s.packets_in == 0) return;
    out << "  " << name << ": " << s.packets_in << " in, " << s.copies_out
        << " out, " << s.prule_matches << " p-rule, " << s.upstream_matches
        << " upstream, " << s.srule_matches << " s-rule, "
        << s.default_matches << " default, " << s.drops << " drops, "
        << s.header_pops << " pops (" << s.header_pop_bytes << "B)\n";
  };
  out << "counters (probe delta):\n";
  layer_line("leaf ", counters.leaves);
  layer_line("spine", counters.spines);
  layer_line("core ", counters.cores);
  const auto& h = counters.hypervisors;
  out << "  host : " << h.received << " received, " << h.delivered_to_vms
      << " VM deliveries, " << h.discarded << " discarded\n";
  return out.str();
}

}  // namespace elmo::sim
