// Multicast traceroute (paper §7, Monitoring: "Debugging multicast traffic
// has been an issue, with difficulties troubleshooting copies of a multicast
// packet and the lack of tools (like traceroute and ping)").
//
// Mtrace sends one probe through the packet-level data plane and reports
// the decision tree the walk recorded for it (obs::SendTrace, DESIGN.md
// §10): every link transmission with the copy's wire size (showing the
// p-rule popping), the rule each hop applied, copies the loss model dropped
// in flight, and each host copy as a member delivery or a redundant copy.
// The fabric's link counters keep their history: the probe only adds its
// own transmissions to them.
#pragma once

#include <string>
#include <vector>

#include "elmo/controller.h"
#include "obs/provenance.h"
#include "sim/fabric.h"

namespace elmo::sim {

// What the probe alone did to the per-element counters: fleet-wide
// SwitchStats summed over each switch layer, plus hypervisor deltas. The
// delta view turns the aggregate telemetry (DESIGN.md §9) into a per-probe
// diagnosis — e.g. default_matches > 0 means this group's header did not
// cover some switch and the probe fell back to the default p-rule there.
struct MtraceCounters {
  dp::SwitchStats leaves;
  dp::SwitchStats spines;
  dp::SwitchStats cores;
  dp::HypervisorStats hypervisors;
};

struct MtraceReport {
  // The probe's decision tree; hops[0] is the sender. Every other hop is
  // one link transmission, with the copy's wire size in bytes_in.
  obs::SendTrace trace;
  std::size_t members_reached = 0;    // distinct member hosts reached
  std::size_t redundant_copies = 0;   // every other host copy delivered
  std::size_t lost_copies = 0;        // copies dropped in flight
  std::size_t max_depth = 0;          // links on the longest path
  std::uint64_t total_wire_bytes = 0;
  MtraceCounters counters;            // probe-only deltas
  // Per-hop notes for obs::render_trace: "<- member" / "<- redundant" on
  // delivered host copies, nullptr elsewhere.
  std::vector<const char*> notes;

  std::size_t link_transmissions() const noexcept {
    return trace.hops.empty() ? 0 : trace.hops.size() - 1;
  }
  // Depth of hop `index` in links from the sender.
  std::size_t depth(std::size_t index) const;

  // Summary line, the annotated tree (obs::render_trace), and the counter
  // deltas.
  std::string render() const;
};

// Probes `group` from `sender` (payload_bytes of filler). Records into the
// fabric's provenance log if one is attached, else into a local log that
// is detached again before returning.
MtraceReport mtrace(Fabric& fabric, const elmo::Controller& controller,
                    elmo::GroupId group, topo::HostId sender,
                    std::size_t payload_bytes = 64);

}  // namespace elmo::sim
