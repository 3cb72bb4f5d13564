// Differential runner: executes one Scenario through the REAL pipeline
// (Controller encode -> streaming control plane -> p4rt wire channel ->
// bit-exact header codec -> sim::Fabric event-queue walk) and diffs every
// observable against the set-based DeliveryOracle and the analytic
// TrafficEvaluator.
//
// One pipeline writes the fabric under test: a stream::ControlPlane, whose
// flush threshold (1, 8 or 64) the scenario seed picks. It installs every
// group at setup, streams each join/leave/host-fail as coalesced rule
// deltas, and re-diffs every group after a failure or restoration. Two
// referees check it:
//
//   * the state digest, at every settled point (after a flush before each
//     send, failure resync and the end of the run, and after every
//     membership event that leaves nothing pending): the streamed fabric
//     must digest-equal a fresh batch install of the controller's current
//     encodings (stream::fabric_state_digest);
//   * the delivery oracle, per send: every oracle-expected host got a copy
//     (exactly one unless failures legitimize duplicates), the sender host
//     got none, per-VM deliveries match copies x mirrored receiving VMs,
//     switch hop count stays within the Clos diameter, and the packet-level
//     fabric agrees with the analytic evaluator on total copies and members
//     reached.
//
// After every membership event the controller's member list is also diffed
// against the oracle mirror.
//
// Mutation mode turns the harness on itself: each Mutation seeds one known
// fault into the pipeline (bit-flipped header templates, dropped s-rules or
// flow VMs, stale mirrors, the pre-fix leave-by-host-only churn bug) and a
// run is only useful evidence if the differ CATCHES it (applied && !ok). A
// fabric-side fault is seeded into the digest's reference as well, so the
// send checks must catch it; a stale mirror is the digest's to catch, and
// the leave-by-host-only desync the membership diff's.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "verify/explain.h"
#include "verify/scenario.h"

namespace elmo::obs {
class MetricsRegistry;
class Tracer;
}

namespace elmo::verify {

enum class Mutation : std::uint8_t {
  kNone = 0,
  // Clear a member-host bit in a leaf p-rule of every sender's header
  // template: that member silently stops receiving.
  kClearPRuleBit,
  // Set a spare bit in a leaf p-rule of every sender's header template: an
  // extra copy the analytic evaluator does not predict.
  kSetPRuleBit,
  // Remove an s-rule the encoding spilled to a leaf's group table.
  kDropSRule,
  // Drop one receiving VM from a hypervisor flow: host copies arrive but the
  // per-VM fan-out comes up short.
  kDropLocalVm,
  // Install the header template of a different (other-leaf) member into a
  // sender's flow.
  kWrongSenderHeader,
  // Apply membership changes to the controller behind the streaming plane's
  // back: its mirror and the fabric go stale.
  kSkipMirrorUpdate,
  // Process leaves through the legacy leave(group, host) API, which removes
  // the FIRST member on the host — the exact pre-fix ChurnSimulator desync
  // under co-location.
  kLeaveByHostOnly,
};

inline constexpr std::array<Mutation, 7> kAllMutations = {
    Mutation::kClearPRuleBit,   Mutation::kSetPRuleBit,
    Mutation::kDropSRule,       Mutation::kDropLocalVm,
    Mutation::kWrongSenderHeader, Mutation::kSkipMirrorUpdate,
    Mutation::kLeaveByHostOnly,
};

const char* to_string(Mutation mutation);

struct RunReport {
  bool ok = false;
  // Mutation mode: the seeded fault actually fired in this scenario. A
  // mutation is only *validated* by a run with applied && !ok; scan more
  // seeds until one applies.
  bool applied = false;
  std::string failure;  // first divergence, human-readable; empty when ok
  // When the divergence happened during a send check: that send's rendered
  // decision tree with oracle annotations (verify::SendExplanation), so the
  // diff arrives with its own explanation attached. Empty otherwise.
  std::string explanation;
  std::size_t events_run = 0;
  std::size_t sends_checked = 0;
};

// One diffed send's full provenance join, exported via
// RunObservability::captures for tools/explain and artifact dumps.
struct SendCapture {
  std::size_t event_index = 0;  // index into Scenario::events
  std::size_t group_index = 0;
  topo::HostId sender = 0;
  SendExplanation explanation;
  // The analytic evaluator's view of the same send, for cross-checking the
  // attribution totals (members_reached / duplicate / spurious).
  std::size_t evaluator_reached = 0;
  std::size_t evaluator_duplicates = 0;
  std::size_t evaluator_spurious = 0;
};

// Optional telemetry taps for one run (DESIGN.md §9). All may be null.
// The registry receives the fabric's per-element and walk totals when the run
// finishes (accumulate_fabric_metrics — one shot per run); `captures`
// receives one SendCapture per send the differ checks.
struct RunObservability {
  obs::MetricsRegistry* registry = nullptr;
  std::vector<SendCapture>* captures = nullptr;
  // Causal tracer (DESIGN.md §15): attached to the streaming control plane
  // and its fabric for the whole run, so setup installs, churn events,
  // flushes, time-to-effect closures and every send's per-hop walk share one
  // timeline.
  obs::Tracer* tracer = nullptr;
};

RunReport run_scenario(const Scenario& scenario,
                       Mutation mutation = Mutation::kNone,
                       const RunObservability* observability = nullptr);

}  // namespace elmo::verify
