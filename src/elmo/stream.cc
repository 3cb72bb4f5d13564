#include "elmo/stream.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace elmo::stream {
namespace {

// FNV-1a over the rule content; the mirror stores one hash per installed
// rule instead of the rule itself (1M groups × several rules each).
struct ContentHash {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

// A flow's content: vni, local VMs, and — for a sender host — its header as
// the upstream prefix bytes plus the hash of the group's shared downstream
// suffix (`suffix`, hashed once per group).
std::uint64_t flow_hash(const p4rt::GroupCompile& view,
                        const p4rt::GroupCompile::Flow& flow,
                        std::uint64_t suffix) {
  ContentHash hash;
  hash.u32(view.vni);
  const auto vms = view.local_vms(flow);
  hash.u64(vms.size());
  for (const auto vm : vms) hash.u32(vm);
  hash.u32(flow.has_header ? 1 : 0);
  if (flow.has_header) {
    const auto prefix = view.prefix(flow);
    hash.u64(prefix.size());
    hash.bytes(prefix.data(), prefix.size());
    hash.u64(suffix);
  }
  return hash.h;
}

std::uint64_t bitmap_hash(const net::PortBitmap& bitmap) {
  ContentHash hash;
  hash.u64(bitmap.size());
  for (const auto word : bitmap.words()) hash.u64(word);
  return hash.h;
}

std::uint64_t srule_location(topo::Layer layer, std::uint32_t switch_id) {
  return std::uint64_t{static_cast<std::uint8_t>(layer)} << 32 | switch_id;
}

struct StreamMetricIds {
  obs::MetricsRegistry::Id events;
  obs::MetricsRegistry::Id updates;
  obs::MetricsRegistry::Id updates_hypervisor;
  obs::MetricsRegistry::Id updates_leaf;
  obs::MetricsRegistry::Id updates_spine;
  obs::MetricsRegistry::Id coalesced;
  obs::MetricsRegistry::Id flushes;
  obs::MetricsRegistry::Id wire_bytes;
  obs::MetricsRegistry::Id install_lag;
  StreamMetricIds() {
    auto& reg = obs::MetricsRegistry::global();
    events = reg.counter("elmo_stream_events_total",
                         "Membership events ingested by the control plane");
    updates = reg.counter("elmo_stream_updates_total",
                          "Delta rule updates applied to the fabric");
    updates_hypervisor =
        reg.counter("elmo_stream_updates_hypervisor_total",
                    "Hypervisor flow updates applied (adds + dels)");
    updates_leaf = reg.counter("elmo_stream_updates_leaf_total",
                               "Leaf s-rule updates applied (adds + dels)");
    updates_spine = reg.counter("elmo_stream_updates_spine_total",
                                "Spine s-rule updates applied (adds + dels)");
    coalesced = reg.counter(
        "elmo_stream_updates_coalesced_total",
        "Pending updates overwritten by a newer update before flushing");
    flushes = reg.counter("elmo_stream_flushes_total",
                          "Update batches pushed over the wire channel");
    wire_bytes = reg.counter("elmo_stream_wire_bytes_total",
                             "p4rt wire bytes crossing the control channel");
    install_lag = reg.histogram(
        "elmo_stream_install_lag_seconds", obs::latency_bounds(),
        "Ingest-to-install latency of one membership event");
  }
};

StreamMetricIds& stream_metric_ids() {
  static StreamMetricIds ids;
  return ids;
}

const char* install_span_name(p4rt::UpdateKind kind) {
  switch (kind) {
    case p4rt::UpdateKind::kHypervisorFlowAdd: return "install:flow_add";
    case p4rt::UpdateKind::kHypervisorFlowDel: return "install:flow_del";
    case p4rt::UpdateKind::kSRuleAdd: return "install:srule_add";
    case p4rt::UpdateKind::kSRuleDel: return "install:srule_del";
  }
  return "install";
}

// Install target: the host for flows, the physical switch for s-rules.
double install_target(const p4rt::Update& u) {
  const bool is_flow = u.kind == p4rt::UpdateKind::kHypervisorFlowAdd ||
                       u.kind == p4rt::UpdateKind::kHypervisorFlowDel;
  return is_flow ? static_cast<double>(u.host)
                 : static_cast<double>(u.switch_id);
}

}  // namespace

ControlPlane::ControlPlane(Controller& controller, sim::Fabric& fabric,
                           ControlPlaneOptions options)
    : controller_{&controller}, fabric_{&fabric}, options_{options} {
  if (options_.flush_threshold == 0) {
    throw std::invalid_argument{"ControlPlane: flush_threshold must be >= 1"};
  }
  const auto& t = fabric.topology();
  applied_.hosts.assign(t.num_hosts(), 0);
  applied_.leaves.assign(t.num_leaves(), 0);
  applied_.spines.assign(t.num_spines(), 0);
}

void ControlPlane::ingest(const Event& event) {
  switch (event.kind) {
    case Event::Kind::kJoin:
      join(event.group, event.member);
      break;
    case Event::Kind::kLeave:
      leave(event.group, event.member.host, event.member.vm);
      break;
    case Event::Kind::kHostFail:
      host_fail(event.host);
      break;
  }
}

void ControlPlane::join(GroupId group, const Member& member) {
  pending_event_times_.push_back(std::chrono::steady_clock::now());
  ++stats_.events;
  ++stats_.joins;
  ELMO_METRIC(reg.add(stream_metric_ids().events));
  const auto root = trace_event_begin(
      "churn:join", {{"group", static_cast<double>(group)},
                     {"host", static_cast<double>(member.host)},
                     {"vm", static_cast<double>(member.vm)}});
  auto span = trace_child_begin("reencode", root);
  controller_->join(group, member);
  trace_end(span);
  span = trace_child_begin("delta_diff", root);
  if (diff_group(group, /*seed_only=*/false) == 0) ++stats_.clean_events;
  trace_end(span);
  if (tracer_ != nullptr) {
    // Arm the time-to-effect watch: it arms for real when the flow install
    // lands and closes at the first delivery over the fresh rule.
    fabric_->trace_watch(net::Ipv4Address{mirror_[group].address},
                         member.host, root, /*leave=*/false);
  }
  trace_event_end(root);
  maybe_auto_flush();
}

Member ControlPlane::leave(GroupId group, topo::HostId host, std::uint32_t vm) {
  pending_event_times_.push_back(std::chrono::steady_clock::now());
  ++stats_.events;
  ++stats_.leaves;
  ELMO_METRIC(reg.add(stream_metric_ids().events));
  const auto root = trace_event_begin(
      "churn:leave", {{"group", static_cast<double>(group)},
                      {"host", static_cast<double>(host)},
                      {"vm", static_cast<double>(vm)}});
  std::uint32_t addr = 0;
  if (tracer_ != nullptr) {
    if (const auto* m = tracked(group)) addr = m->address;
  }
  auto span = trace_child_begin("reencode", root);
  auto removed = controller_->leave(group, host, vm);
  trace_end(span);
  span = trace_child_begin("delta_diff", root);
  if (diff_group(group, /*seed_only=*/false) == 0) ++stats_.clean_events;
  trace_end(span);
  if (tracer_ != nullptr && addr != 0) {
    // Watch only when this leave takes the host's flow out entirely — that
    // is the removal whose time-to-effect (stale deliveries until the
    // FlowDel lands) is measurable at the fabric.
    if (!holds_flow(group, host)) {
      fabric_->trace_watch(net::Ipv4Address{addr}, host, root,
                           /*leave=*/true);
    }
  }
  trace_event_end(root);
  maybe_auto_flush();
  return removed;
}

std::size_t ControlPlane::host_fail(topo::HostId host) {
  pending_event_times_.push_back(std::chrono::steady_clock::now());
  ++stats_.events;
  ++stats_.host_fails;
  ELMO_METRIC(reg.add(stream_metric_ids().events));
  const auto root = trace_event_begin(
      "churn:host_fail", {{"host", static_cast<double>(host)}});

  std::size_t evicted = 0;
  if (host < host_groups_.size()) {
    // Copy: diff_group edits the index under us.
    const auto groups = host_groups_[host];
    for (const auto group : groups) {
      if (!controller_->has_group(group)) continue;
      std::uint32_t addr = 0;
      if (tracer_ != nullptr) {
        if (const auto* m = tracked(group)) addr = m->address;
      }
      // Collect first: Controller::leave invalidates member iteration.
      std::vector<std::uint32_t> vms;
      for (const auto& m : controller_->group(group).members) {
        if (m.host == host) vms.push_back(m.vm);
      }
      auto span = trace_child_begin("reencode", root);
      for (const auto vm : vms) {
        controller_->leave(group, host, vm);
        ++evicted;
      }
      trace_end(span);
      span = trace_child_begin("delta_diff", root);
      diff_group(group, /*seed_only=*/false);
      trace_end(span);
      if (tracer_ != nullptr && addr != 0 && !holds_flow(group, host)) {
        fabric_->trace_watch(net::Ipv4Address{addr}, host, root,
                             /*leave=*/true);
      }
    }
  }
  trace_event_end(root);
  maybe_auto_flush();
  return evicted;
}

obs::TraceContext ControlPlane::trace_event_begin(
    const char* name, std::initializer_list<obs::TraceAttr> attrs) {
  if (tracer_ == nullptr) return {};
  const auto root =
      tracer_->begin_span(name, obs::TraceLane::kControl, {}, attrs);
  event_ctx_ = root;
  return root;
}

obs::TraceContext ControlPlane::trace_child_begin(
    const char* name, const obs::TraceContext& root) {
  if (tracer_ == nullptr) return {};
  return tracer_->begin_span(name, obs::TraceLane::kControl, root);
}

void ControlPlane::trace_end(const obs::TraceContext& span) {
  if (tracer_ != nullptr) tracer_->end_span(span);
}

void ControlPlane::trace_event_end(const obs::TraceContext& root) {
  if (tracer_ == nullptr) return;
  tracer_->end_span(root);
  event_ctx_ = {};
}

void ControlPlane::track_group(GroupId group) {
  diff_group(group, /*seed_only=*/true);
}

void ControlPlane::refresh(GroupId group) {
  diff_group(group, /*seed_only=*/false);
  maybe_auto_flush();
}

std::size_t ControlPlane::refresh_all() {
  std::size_t changed = 0;
  for (GroupId group = 0; group < mirror_.size(); ++group) {
    if (!mirror_[group].tracked) continue;
    if (diff_group(group, /*seed_only=*/false) != 0) ++changed;
    // Keys carry the group address, so nothing coalesces across groups:
    // flushing here applies the same updates with the pending set bounded.
    maybe_auto_flush();
  }
  return changed;
}

const ControlPlane::GroupMirror* ControlPlane::tracked(GroupId group) const {
  return group < mirror_.size() && mirror_[group].tracked ? &mirror_[group]
                                                          : nullptr;
}

bool ControlPlane::holds_flow(GroupId group, topo::HostId host) const {
  const auto* m = tracked(group);
  if (m == nullptr) return false;
  const auto it = std::lower_bound(
      m->flows.begin(), m->flows.end(), host,
      [](const RuleHash& slot, topo::HostId h) { return slot.location < h; });
  return it != m->flows.end() && it->location == host;
}

std::size_t ControlPlane::diff_group(GroupId group, bool seed_only) {
  const bool live = controller_->has_group(group);
  if (!live && tracked(group) == nullptr) return 0;
  if (group >= mirror_.size()) mirror_.resize(group + 1);
  auto& mirror = mirror_[group];
  mirror.tracked = true;
  // Every queue() call either adds a pending rule or coalesces one.
  const auto queued_before = stats_.updates_coalesced + pending_.size();

  // Desired rules: the group's compile view (none once the group is gone).
  auto& view = compiled_;
  std::uint64_t suffix = 0;
  if (live) {
    view.compile(*controller_, group);
    mirror.address = view.group.value;
    ContentHash hash;
    hash.bytes(view.downstream.data(), view.downstream.size());
    suffix = hash.h;
  } else {
    view.flows.clear();
    view.srules.clear();
  }
  const net::Ipv4Address address{mirror.address};

  // Flows: the view lists them by host.
  desired_.clear();
  for (std::uint32_t i = 0; i < view.flows.size(); ++i) {
    desired_.push_back(
        {{view.flows[i].host, flow_hash(view, view.flows[i], suffix)}, i});
  }
  merge(mirror.flows,
        [&](std::uint32_t i, bool added) {
          const auto& flow = view.flows[i];
          if (added) index_membership(group, flow.host, true);
          if (!seed_only) {
            queue({false, address.value, flow.host}, view.flow_update(flow));
          }
        },
        [&](std::uint64_t host) {
          index_membership(group, static_cast<topo::HostId>(host), false);
          if (seed_only) return;
          p4rt::Update del;
          del.kind = p4rt::UpdateKind::kHypervisorFlowDel;
          del.host = static_cast<topo::HostId>(host);
          del.group = address;
          queue({false, address.value, host}, std::move(del));
        });

  // S-rules: the view lists them in encoding order; sorted by location, the
  // first rule at a location wins.
  desired_.clear();
  for (std::uint32_t i = 0; i < view.srules.size(); ++i) {
    const auto& srule = view.srules[i];
    desired_.push_back({{srule_location(srule.layer, srule.switch_id),
                         bitmap_hash(*srule.ports)},
                        i});
  }
  std::stable_sort(desired_.begin(), desired_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.location < b.first.location;
                   });
  merge(mirror.srules,
        [&](std::uint32_t i, bool) {
          const auto& srule = view.srules[i];
          if (seed_only) return;
          queue({true, address.value,
                 srule_location(srule.layer, srule.switch_id)},
                view.srule_update(srule));
        },
        [&](std::uint64_t location) {
          if (seed_only) return;
          p4rt::Update del;
          del.kind = p4rt::UpdateKind::kSRuleDel;
          del.layer = static_cast<topo::Layer>(location >> 32);
          del.switch_id = static_cast<std::uint32_t>(location);
          del.group = address;
          queue({true, address.value, location}, std::move(del));
        });

  if (!live && mirror.flows.empty() && mirror.srules.empty()) {
    mirror = GroupMirror{};
  }
  return stats_.updates_coalesced + pending_.size() - queued_before;
}

template <typename Changed, typename Gone>
void ControlPlane::merge(std::vector<RuleHash>& held, Changed&& changed,
                         Gone&& gone) {
  merged_.clear();
  auto h = held.begin();
  for (const auto& [rule, index] : desired_) {
    if (!merged_.empty() && merged_.back().location == rule.location) continue;
    for (; h != held.end() && h->location < rule.location; ++h) {
      gone(h->location);
    }
    merged_.push_back(rule);
    const bool have = h != held.end() && h->location == rule.location;
    if (have && (h++)->hash == rule.hash) continue;
    changed(index, !have);
  }
  for (; h != held.end(); ++h) gone(h->location);
  held.assign(merged_.begin(), merged_.end());
}

void ControlPlane::queue(const RuleKey& key, p4rt::Update update) {
  // Attribute the pending rule to the event that (last) produced it.
  const auto ctx = tracer_ != nullptr ? event_ctx_ : obs::TraceContext{};
  const auto [it, inserted] = pending_index_.try_emplace(key, pending_.size());
  if (inserted) {
    pending_.push_back({key, std::move(update), ctx});
    return;
  }
  auto& slot = pending_[it->second];
  slot.update = std::move(update);
  if (ctx.trace_id != 0) slot.ctx = ctx;
  ++stats_.updates_coalesced;
  ELMO_METRIC(reg.add(stream_metric_ids().coalesced));
}

void ControlPlane::note_applied(const p4rt::Update& update) {
  switch (update.kind) {
    case p4rt::UpdateKind::kHypervisorFlowAdd:
      ++stats_.flow_adds;
      ++applied_.hosts[update.host];
      ELMO_METRIC(reg.add(stream_metric_ids().updates_hypervisor));
      break;
    case p4rt::UpdateKind::kHypervisorFlowDel:
      ++stats_.flow_dels;
      ++applied_.hosts[update.host];
      ELMO_METRIC(reg.add(stream_metric_ids().updates_hypervisor));
      break;
    case p4rt::UpdateKind::kSRuleAdd:
      if (update.layer == topo::Layer::kLeaf) {
        ++stats_.leaf_srule_adds;
        ++applied_.leaves[update.switch_id];
        ELMO_METRIC(reg.add(stream_metric_ids().updates_leaf));
      } else {
        ++stats_.spine_srule_adds;
        ++applied_.spines[update.switch_id];
        ELMO_METRIC(reg.add(stream_metric_ids().updates_spine));
      }
      break;
    case p4rt::UpdateKind::kSRuleDel:
      if (update.layer == topo::Layer::kLeaf) {
        ++stats_.leaf_srule_dels;
        ++applied_.leaves[update.switch_id];
        ELMO_METRIC(reg.add(stream_metric_ids().updates_leaf));
      } else {
        ++stats_.spine_srule_dels;
        ++applied_.spines[update.switch_id];
        ELMO_METRIC(reg.add(stream_metric_ids().updates_spine));
      }
      break;
  }
}

void ControlPlane::maybe_auto_flush() {
  if (pending_.size() >= options_.flush_threshold) flush();
}

std::size_t ControlPlane::flush() {
  if (pending_.empty() && pending_event_times_.empty()) return 0;

  std::size_t applied = 0;
  if (!pending_.empty()) {
    const bool traced = tracer_ != nullptr;
    std::sort(pending_.begin(), pending_.end(),
              [](const Pending& a, const Pending& b) { return a.key < b.key; });
    std::vector<p4rt::Update> batch;
    std::vector<obs::TraceContext> ctxs;  // aligned with batch when traced
    batch.reserve(pending_.size());
    if (traced) ctxs.reserve(pending_.size());
    for (auto& p : pending_) {
      if (traced) ctxs.push_back(p.ctx);
      batch.push_back(std::move(p.update));
    }
    pending_.clear();
    pending_index_.clear();

    obs::TraceContext flush_ctx{};
    if (traced) {
      flush_ctx = tracer_->begin_span(
          "flush", obs::TraceLane::kWire, {},
          {{"updates", static_cast<double>(batch.size())}});
      // One causal edge per distinct contributing churn event.
      std::vector<std::uint64_t> seen;
      for (const auto& ctx : ctxs) {
        if (ctx.trace_id == 0) continue;
        if (std::find(seen.begin(), seen.end(), ctx.trace_id) != seen.end()) {
          continue;
        }
        seen.push_back(ctx.trace_id);
        tracer_->flow(ctx, obs::TraceLane::kControl, flush_ctx,
                      obs::TraceLane::kWire);
      }
    }

    obs::TraceContext span{};
    if (traced) {
      span = tracer_->begin_span("p4rt_encode", obs::TraceLane::kWire,
                                 flush_ctx);
    }
    const auto wire = p4rt::encode(batch);
    if (traced) {
      tracer_->end_span(span);
      span = tracer_->begin_span("p4rt_decode", obs::TraceLane::kWire,
                                 flush_ctx);
    }
    const auto decoded = p4rt::decode(wire);
    if (traced) tracer_->end_span(span);

    // Each update is applied and counted; traced, it also gets an install
    // span. decode preserves batch order, so decoded[i] pairs with ctxs[i];
    // flow installs also poke the fabric's time-to-effect watches.
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      const auto& u = decoded[i];
      obs::TraceContext ictx{};
      if (traced) {
        ictx = tracer_->begin_span(
            install_span_name(u.kind), obs::TraceLane::kInstall, flush_ctx,
            {{"group", static_cast<double>(u.group.value)},
             {"target", install_target(u)}});
      }
      p4rt::apply_update(*fabric_, u);
      note_applied(u);
      if (!traced) continue;
      tracer_->end_span(ictx);
      if (i < ctxs.size() && ctxs[i].trace_id != 0) {
        tracer_->flow(ctxs[i], obs::TraceLane::kControl, ictx,
                      obs::TraceLane::kInstall);
      }
      if (u.kind == p4rt::UpdateKind::kHypervisorFlowAdd ||
          u.kind == p4rt::UpdateKind::kHypervisorFlowDel) {
        fabric_->trace_rule_installed(
            u.group, u.host, ictx,
            u.kind == p4rt::UpdateKind::kHypervisorFlowDel);
      }
    }

    applied = decoded.size();
    stats_.wire_bytes += wire.size();
    stats_.updates_applied += applied;
    ++stats_.batches_encoded;
    ELMO_METRIC({
      reg.add(stream_metric_ids().wire_bytes, wire.size());
      reg.add(stream_metric_ids().updates, applied);
    });
    if (traced) tracer_->end_span(flush_ctx);
  }

  ++stats_.flushes;
  ELMO_METRIC(reg.add(stream_metric_ids().flushes));

  const auto now = std::chrono::steady_clock::now();
  for (const auto stamp : pending_event_times_) {
    const auto lag = std::chrono::duration<double>(now - stamp).count();
    stats_.install_lag_seconds.add(lag);
    ELMO_METRIC(reg.observe(stream_metric_ids().install_lag, lag));
  }
  pending_event_times_.clear();
  return applied;
}

std::uint64_t fabric_state_digest(const sim::Fabric& fabric) {
  const auto& t = fabric.topology();
  ContentHash digest;

  auto hash_switch_table = [&digest](const dp::NetworkSwitch& sw,
                                     std::uint64_t tag) {
    std::vector<std::uint32_t> groups;
    groups.reserve(sw.srules().size());
    for (const auto& [addr, bitmap] : sw.srules()) {
      (void)bitmap;
      groups.push_back(addr);
    }
    std::sort(groups.begin(), groups.end());
    for (const auto addr : groups) {
      digest.u64(tag);
      digest.u32(addr);
      digest.u64(bitmap_hash(*sw.srule(net::Ipv4Address{addr})));
    }
  };

  for (topo::HostId h = 0; h < t.num_hosts(); ++h) {
    const auto& hv = fabric.hypervisor(h);
    std::vector<std::uint32_t> groups;
    groups.reserve(hv.flows().size());
    for (const auto& [addr, flow] : hv.flows()) {
      (void)flow;
      groups.push_back(addr);
    }
    std::sort(groups.begin(), groups.end());
    for (const auto addr : groups) {
      const auto* flow = hv.flow(net::Ipv4Address{addr});
      digest.u64(0xf10f'0000'0000'0000ull | h);
      digest.u32(addr);
      digest.u32(flow->vni);
      auto vms = flow->local_vms;
      std::sort(vms.begin(), vms.end());
      digest.u64(vms.size());
      for (const auto vm : vms) digest.u32(vm);
      const auto header = flow->header();
      digest.u64(header.size());
      digest.bytes(header.prefix.data(), header.prefix.size());
      digest.bytes(header.suffix.data(), header.suffix.size());
    }
  }
  for (topo::LeafId l = 0; l < t.num_leaves(); ++l) {
    hash_switch_table(fabric.leaf(l), 0x1eaf'0000'0000'0000ull | l);
  }
  for (topo::SpineId s = 0; s < t.num_spines(); ++s) {
    hash_switch_table(fabric.spine(s), 0x5071'0000'0000'0000ull | s);
  }
  return digest.h;
}

void ControlPlane::index_membership(GroupId group, topo::HostId host,
                                    bool present) {
  // Sized at the first tracked flow, so a plane that never tracks a group
  // holds no per-host index.
  if (host_groups_.empty()) {
    host_groups_.resize(fabric_->topology().num_hosts());
  }
  auto& groups = host_groups_[host];
  const auto it = std::lower_bound(groups.begin(), groups.end(), group);
  if (present) {
    groups.insert(it, group);
  } else if (it != groups.end() && *it == group) {
    groups.erase(it);
  }
}

}  // namespace elmo::stream
