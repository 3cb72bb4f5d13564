// Streaming control plane (ROADMAP "long-running controller service"):
// consumes Join / Leave / HostFail events, re-encodes only the affected
// group (Controller::join/leave are already incremental), and pushes the
// *delta* between the previously-installed rules and the new encoding over
// the p4rt wire channel into a live sim::Fabric — instead of re-pushing
// whole-group state per event like compile_install.
//
// Delta computation keeps a compact mirror of what the fabric holds, one
// flat entry per group: a 64-bit content hash per installed hypervisor flow
// (by host) and per installed s-rule (by layer and physical switch), each in
// a sorted vector. After each event the affected group is compiled once into
// a p4rt::GroupCompile view. A flow hashes as its vni, local VMs, whether it
// carries a header, the sender's upstream prefix bytes and the hash of the
// group's shared downstream suffix, which is hashed once per group. The view
// is merged against the mirror, and only a rule whose hash changed is built
// into a full rule update (header included).
//
// Updates are coalesced and batched: pending updates are keyed by rule
// location, a newer update for the same key overwrites the older one (the
// wire sees only the final state), and the batch is flushed through
// p4rt::encode/decode and one p4rt::apply_update per update when it reaches
// ControlPlaneOptions::flush_threshold (or on an explicit flush()). Per-
// event ingest-to-install lag is recorded at flush time.
//
// Every update that lands is counted against the element that installed it
// (applied()). This is the repo's only churn and failure accounting: Tables
// 1 and 2 and §5.1.3b report these counts, at flush threshold 1 for churn so
// that one event's updates to one switch are one update.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "elmo/churn.h"
#include "elmo/controller.h"
#include "obs/trace.h"
#include "p4rt/runtime.h"
#include "sim/fabric.h"
#include "util/stats.h"

namespace elmo::stream {

// One membership mutation arriving at the controller.
struct Event {
  enum class Kind : std::uint8_t { kJoin, kLeave, kHostFail };
  Kind kind = Kind::kJoin;
  GroupId group = 0;      // kJoin / kLeave
  Member member;          // kJoin: joiner; kLeave: (host, vm) of the leaver
  topo::HostId host = 0;  // kHostFail: every member VM on this host leaves
};

struct ControlPlaneOptions {
  // Pending rule updates that trigger an automatic flush. 1 = install every
  // event immediately; larger values trade install lag for batching.
  std::size_t flush_threshold = 64;
};

struct ControlPlaneStats {
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t host_fails = 0;
  // Events whose re-encode left every installed rule untouched.
  std::uint64_t clean_events = 0;

  std::uint64_t flushes = 0;
  std::uint64_t batches_encoded = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t updates_applied = 0;
  // A pending update overwritten by a newer one for the same rule before it
  // ever reached the wire (the value of coalescing).
  std::uint64_t updates_coalesced = 0;

  // Per-layer applied-update counters (what Table 2 attributes per switch).
  std::uint64_t flow_adds = 0;
  std::uint64_t flow_dels = 0;
  std::uint64_t leaf_srule_adds = 0;
  std::uint64_t leaf_srule_dels = 0;
  std::uint64_t spine_srule_adds = 0;
  std::uint64_t spine_srule_dels = 0;

  // Ingest-to-install latency of each event, measured when its flush lands.
  util::Distribution install_lag_seconds;
};

// Applied rule updates (adds + dels) per element, indexed by id: flows per
// host, s-rules per leaf and per physical spine. Cores hold no multicast
// state, so no update ever targets one. elmo::update_rates turns a vector
// into per-switch rates.
struct AppliedUpdates {
  std::vector<std::uint64_t> hosts;
  std::vector<std::uint64_t> leaves;
  std::vector<std::uint64_t> spines;
};

class ControlPlane final : public MembershipDriver {
 public:
  ControlPlane(Controller& controller, sim::Fabric& fabric,
               ControlPlaneOptions options = {});

  // --- event ingestion -----------------------------------------------------
  void ingest(const Event& event);
  // MembershipDriver: lets a ChurnSimulator stream through this plane.
  void join(GroupId group, const Member& member) override;
  Member leave(GroupId group, topo::HostId host, std::uint32_t vm) override;
  // Every member VM hosted on `host` leaves its group (the host died), group
  // by group in ascending id. Returns the number of memberships evicted.
  std::size_t host_fail(topo::HostId host);

  // Drains pending updates into the fabric through the wire channel.
  // Returns the number of rule updates applied.
  std::size_t flush();
  std::size_t pending() const noexcept { return pending_.size(); }

  // --- mirror management ---------------------------------------------------
  // Adopts a group that is ALREADY installed in the fabric (e.g. bulk load
  // via create_groups + install_group) without emitting any updates: the
  // mirror is seeded from the controller's current state.
  void track_group(GroupId group);
  // Re-diffs a group against the mirror, emitting whatever it takes to make
  // the fabric match the controller (full install for untracked groups,
  // full removal if the controller no longer has the group). Use after
  // out-of-band controller mutations, e.g. fail_spine header recomputes.
  void refresh(GroupId group);
  // Refreshes every tracked group (failure handling touches many groups),
  // in group order, auto-flushing after each group's re-diff so the pending
  // set stays bounded by the flush threshold plus one group's delta. Returns
  // the number of groups whose re-diff queued at least one update.
  std::size_t refresh_all();

  const ControlPlaneStats& stats() const noexcept { return stats_; }
  const AppliedUpdates& applied() const noexcept { return applied_; }
  const Controller& controller() const noexcept { return *controller_; }

  // --- causal tracing (DESIGN.md §15) --------------------------------------
  // Attaches a tracer to the plane AND its fabric (nullptr detaches both; not
  // owned). While attached, every churn event opens a trace — a root span on
  // the control lane with "reencode" / "delta_diff" children — each flush
  // gets a wire-lane trace with p4rt framing children and per-update install
  // spans, cross-linked by flow events, and join/leave events arm the
  // fabric's time-to-effect watches. Detached (the default), ingest pays one
  // null test per event and flush one per applied update.
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    fabric_->set_tracer(tracer);
  }
  obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  // A rule's location in the fabric. The defaulted order is the flush
  // order: flows before s-rules, then by group address, then location.
  struct RuleKey {
    bool srule = false;
    std::uint32_t group = 0;  // group IPv4
    // Within the group: a flow's host, or an s-rule's layer << 32 |
    // physical switch.
    std::uint64_t location = 0;
    auto operator<=>(const RuleKey&) const = default;
  };
  struct RuleKeyHash {
    std::size_t operator()(const RuleKey& k) const noexcept {
      return (std::uint64_t{k.group} * 0x9e3779b97f4a7c15ull) ^ k.location ^
             (k.srule ? 1ull << 63 : 0);
    }
  };
  struct Pending {
    RuleKey key;
    p4rt::Update update;
    // The event that (last) produced the update, so flush can attribute
    // each install to its cause across coalescing; empty when untraced.
    obs::TraceContext ctx{};
  };

  // One mirrored rule: its location within the group (as in RuleKey) and
  // its content hash.
  struct RuleHash {
    std::uint64_t location = 0;
    std::uint64_t hash = 0;
  };
  struct GroupMirror {
    std::uint32_t address = 0;  // group IPv4, captured at first install
    bool tracked = false;
    std::vector<RuleHash> flows;   // by host
    std::vector<RuleHash> srules;  // by (layer, switch)
  };

  // Compiles `group` once (p4rt::GroupCompile) and queues the delta against
  // the mirror; returns the number of updates queued. `seed_only` populates
  // the mirror without queueing (track_group).
  std::size_t diff_group(GroupId group, bool seed_only);
  // Merges desired_ (sorted by location) into `held`, the mirror's entries
  // of one rule kind: changed(view index, added) for each rule that is new
  // or whose hash differs, gone(location) for each held rule not desired.
  template <typename Changed, typename Gone>
  void merge(std::vector<RuleHash>& held, Changed&& changed, Gone&& gone);
  // The group's mirror, or nullptr when the group is untracked.
  const GroupMirror* tracked(GroupId group) const;
  bool holds_flow(GroupId group, topo::HostId host) const;
  void queue(const RuleKey& key, p4rt::Update update);
  void note_applied(const p4rt::Update& update);
  void maybe_auto_flush();
  void index_membership(GroupId group, topo::HostId host, bool present);

  // Tracing helpers; all no-ops when tracer_ is null.
  obs::TraceContext trace_event_begin(
      const char* name, std::initializer_list<obs::TraceAttr> attrs);
  obs::TraceContext trace_child_begin(const char* name,
                                      const obs::TraceContext& root);
  void trace_end(const obs::TraceContext& span);
  void trace_event_end(const obs::TraceContext& root);

  Controller* controller_;
  sim::Fabric* fabric_;
  ControlPlaneOptions options_;
  ControlPlaneStats stats_;
  AppliedUpdates applied_;

  std::vector<GroupMirror> mirror_;  // indexed by GroupId
  // Per host (sized from the topology), the groups it holds a flow of, in
  // ascending id — drives host_fail.
  std::vector<std::vector<GroupId>> host_groups_;
  // diff_group's buffers, reused across calls: the compile view, the
  // desired rules of one kind (hash, index into the view), and the merge.
  p4rt::GroupCompile compiled_;
  std::vector<std::pair<RuleHash, std::uint32_t>> desired_;
  std::vector<RuleHash> merged_;

  // Pending updates, one per rule key in queue order; pending_index_ maps a
  // key to its slot. flush sorts them into RuleKey order.
  std::vector<Pending> pending_;
  std::unordered_map<RuleKey, std::size_t, RuleKeyHash> pending_index_;
  // Ingest timestamps of events awaiting their flush.
  std::vector<std::chrono::steady_clock::time_point> pending_event_times_;

  // Tracing state: the in-flight event's root context, stamped onto every
  // update the event queues.
  obs::Tracer* tracer_ = nullptr;
  obs::TraceContext event_ctx_{};
};

// Canonical 64-bit digest of every installed hypervisor flow and s-rule in
// the fabric. Two fabrics with the same installed state digest equal; the
// equivalence tests use this to pin "streamed deltas == fresh batch
// install" byte-for-byte. local_vms are sorted before hashing: streamed
// joins append members in event order while a batch install follows the
// final member order, and the VM *set* — not its order — is the installed
// state (delivery behavior is order-independent).
std::uint64_t fabric_state_digest(const sim::Fabric& fabric);

}  // namespace elmo::stream
