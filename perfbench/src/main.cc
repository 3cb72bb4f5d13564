// Paper-scale end-to-end benchmark of the Elmo reproduction.
//
//   elmo_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                  [--pods=12] [--groups=5000] [--tenants=1000]
//                  [--rounds=3] [--min_ops=<n>] [--trace_out=<path>]
//
// Builds the 27,648-host Facebook-Fabric Clos carrying 5,000 WVE groups
// (world.h), then runs one closed-loop workload on one thread and checks every
// output: each send against verify::DeliveryOracle, each join probe at the
// joiner's hypervisor, and the churned fabric against a fresh batch install.
// The group population is a fixed data set (WorldParams::seed); --seed
// draws the op stream over it.
//
// A run is --rounds rounds. Each round builds a fresh world (set-up is timed
// every round; setup_s is the median) and runs its own seeded op stream for
// its share of --seconds. Op latencies are percentiles over every op of every
// round: the rounds spread the timed ops over the run, so that no single
// stretch of memory contention from the host's neighbours decides them.
//
// With --trace=0 the result line carries the end-to-end metrics, measured
// with tracing off. With --trace=1 ops alternate in blocks between untraced
// and traced; traced ops record spans around the calls into each layer's
// public functions (a hop-by-hop replay of each traced send, a shadow
// controller replaying the event stream) and the result line carries the
// per-layer metrics derived from those spans and from public counters, with
// the traced-minus-untraced difference as the tracing overhead.
//
// Count-type metrics are taken over a fixed, seed-determined slice (each
// round's first --min_ops ops, plus the last round's probes, which draw from
// the fixed data set's seed), so they repeat exactly for a seed; times cover
// every op of every round.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
// line before it is the run record (seed, host fingerprint, every metric the
// workload defines). Any failed gate makes the exit code non-zero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

#include "alloc_count.h"
#include "elmo/churn.h"
#include "elmo/stream.h"
#include "net/packet.h"
#include "sim/fabric.h"
#include "span_log.h"
#include "util/stats.h"
#include "verify/oracle.h"
#include "world.h"

namespace perfbench {
namespace {

using namespace elmo;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0 : util::percentile(v, p);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads. Every workload is a closed loop with one client on one thread.
// ---------------------------------------------------------------------------

enum class WorkloadKind { kWalkWve, kChurnWve, kChurnUnderTraffic };

struct Workload {
  WorkloadKind kind;
  const char* name;
  std::size_t payload_bytes;    // per send
  std::size_t sends_per_event;  // 0 = sends only; otherwise the op mix
  std::size_t flush_threshold;  // ControlPlane auto-flush
  std::size_t min_ops;          // fixed slice for the exact counts
};

// walk_wve — why: per-packet cost at the smallest packet, where hop parsing
// and replication dominate; WVE fanout makes p50 small and p99 the heavy
// tail. The control plane is idle: the bypass workload for every
// control-plane change.
// churn_wve — why: every event runs re-encode, per-sender header serialize,
// delta diff, p4rt framing and table installs in 64-update batches, and the
// data-plane walk is never called: the bypass workload for every data-plane
// change.
// churn_under_traffic — why: the same layers used differently. Table writes
// run beside walk reads (one event per 8 sends, each installed before the
// next op), p4rt batches carry one event, every receiving join is probed by
// a send that must reach the joiner, and at 1500 B host-delivery byte
// copies weigh more than hop parsing.
constexpr Workload kWorkloads[] = {
    {WorkloadKind::kWalkWve, "walk_wve", 64, 0, 64, 4096},
    {WorkloadKind::kChurnWve, "churn_wve", 0, 0, 64, 2048},
    {WorkloadKind::kChurnUnderTraffic, "churn_under_traffic", 1500, 8, 1,
     3072},
};

// Ops per block; with tracing on, every other block is traced.
constexpr std::size_t kTraceBlock = 32;
// Probes that measure the layers a workload itself leaves idle, run untimed
// on the last round's world.
constexpr std::size_t kProbeSends = 256;
constexpr std::size_t kProbeEvents = 256;
constexpr std::size_t kProbeGroups = 256;
constexpr std::size_t kMinGroupSize = 5;  // ChurnParams default
constexpr std::size_t kSpanCapacity = 600'000;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t pods = 12;
  std::size_t groups = 5'000;
  std::size_t tenants = 1'000;
  std::size_t rounds = 3;
  std::size_t min_ops = 0;  // 0: the workload's default
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument{"expected --key=value, got " + arg};
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    auto num = [&] { return std::stoull(value); };
    if (key == "workload") workload = value;
    else if (key == "seed") o.seed = num();
    else if (key == "seconds") o.seconds = std::stod(value);
    else if (key == "trace") o.trace = num() != 0;
    else if (key == "pods") o.pods = num();
    else if (key == "groups") o.groups = num();
    else if (key == "tenants") o.tenants = num();
    else if (key == "rounds") o.rounds = std::max<std::size_t>(1, num());
    else if (key == "min_ops") o.min_ops = num();
    else if (key == "trace_out") o.trace_out = value;
    else throw std::invalid_argument{"unknown flag --" + key};
  }
  for (const auto& w : kWorkloads) {
    if (workload == w.name) o.workload = &w;
  }
  if (o.workload == nullptr) {
    throw std::invalid_argument{"unknown --workload=" + workload};
  }
  if (o.min_ops == 0) o.min_ops = o.workload->min_ops;
  return o;
}

// ---------------------------------------------------------------------------
// Host fingerprint and memory.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Public per-layer counters, summed over every element of a layer.
// ---------------------------------------------------------------------------

struct LayerStats {
  dp::SwitchStats leaf, spine, core;
  dp::HypervisorStats host;

  static LayerStats of(const sim::Fabric& f) {
    return {f.aggregate_switch_stats(topo::Layer::kLeaf),
            f.aggregate_switch_stats(topo::Layer::kSpine),
            f.aggregate_switch_stats(topo::Layer::kCore),
            f.aggregate_hypervisor_stats()};
  }
};

dp::SwitchStats minus(const dp::SwitchStats& a, const dp::SwitchStats& b) {
  dp::SwitchStats d;
  d.packets_in = a.packets_in - b.packets_in;
  d.bytes_in = a.bytes_in - b.bytes_in;
  d.copies_out = a.copies_out - b.copies_out;
  d.bytes_out = a.bytes_out - b.bytes_out;
  d.prule_matches = a.prule_matches - b.prule_matches;
  d.upstream_matches = a.upstream_matches - b.upstream_matches;
  d.srule_matches = a.srule_matches - b.srule_matches;
  d.default_matches = a.default_matches - b.default_matches;
  d.drops = a.drops - b.drops;
  d.header_pops = a.header_pops - b.header_pops;
  d.header_pop_bytes = a.header_pop_bytes - b.header_pop_bytes;
  return d;
}

dp::HypervisorStats minus(const dp::HypervisorStats& a,
                          const dp::HypervisorStats& b) {
  dp::HypervisorStats d;
  d.sent = a.sent - b.sent;
  d.bytes_sent = a.bytes_sent - b.bytes_sent;
  d.received = a.received - b.received;
  d.bytes_received = a.bytes_received - b.bytes_received;
  d.delivered_to_vms = a.delivered_to_vms - b.delivered_to_vms;
  d.delivered_bytes = a.delivered_bytes - b.delivered_bytes;
  d.discarded = a.discarded - b.discarded;
  d.unicast_fallback = a.unicast_fallback - b.unicast_fallback;
  return d;
}

LayerStats minus(const LayerStats& a, const LayerStats& b) {
  return {minus(a.leaf, b.leaf), minus(a.spine, b.spine),
          minus(a.core, b.core), minus(a.host, b.host)};
}

void add(LayerStats& acc, const LayerStats& d) {
  acc.leaf += d.leaf;
  acc.spine += d.spine;
  acc.core += d.core;
  acc.host += d.host;
}

// acc += now - before, over the ControlPlaneStats counters.
void add_delta(stream::ControlPlaneStats& acc,
               const stream::ControlPlaneStats& now,
               const stream::ControlPlaneStats& before) {
  acc.events += now.events - before.events;
  acc.clean_events += now.clean_events - before.clean_events;
  acc.flushes += now.flushes - before.flushes;
  acc.batches_encoded += now.batches_encoded - before.batches_encoded;
  acc.wire_bytes += now.wire_bytes - before.wire_bytes;
  acc.updates_applied += now.updates_applied - before.updates_applied;
  acc.updates_coalesced += now.updates_coalesced - before.updates_coalesced;
  acc.flow_adds += now.flow_adds - before.flow_adds;
  acc.flow_dels += now.flow_dels - before.flow_dels;
  acc.leaf_srule_adds += now.leaf_srule_adds - before.leaf_srule_adds;
  acc.leaf_srule_dels += now.leaf_srule_dels - before.leaf_srule_dels;
  acc.spine_srule_adds += now.spine_srule_adds - before.spine_srule_adds;
  acc.spine_srule_dels += now.spine_srule_dels - before.spine_srule_dels;
}

// ---------------------------------------------------------------------------
// Hop-by-hop replay of one send through the public data-plane API: the
// source hypervisor's encapsulate, then ForwardingElement::process at every
// node, next hops mapped through the ClosTopology accessors.
// ---------------------------------------------------------------------------

struct ReplayResult {
  sim::SendResult result;
  std::uint64_t calls[4] = {0, 0, 0, 0};  // process() per topo::Layer
  std::uint64_t encaps = 0;
};

sim::NodeRef next_hop(const topo::ClosTopology& t, const sim::NodeRef& at,
                      std::size_t port) {
  switch (at.layer) {
    case topo::Layer::kLeaf:
      if (port < t.leaf_down_ports()) {
        return {topo::Layer::kHost, t.host_at(at.id, port)};
      }
      return {topo::Layer::kSpine,
              t.spine_at(t.pod_of_leaf(at.id), port - t.leaf_down_ports())};
    case topo::Layer::kSpine:
      if (port < t.spine_down_ports()) {
        return {topo::Layer::kLeaf, t.leaf_at(t.pod_of_spine(at.id), port)};
      }
      return {topo::Layer::kCore,
              t.core_behind_spine_port(at.id, port - t.spine_down_ports())};
    case topo::Layer::kCore:
      return {topo::Layer::kSpine,
              t.spine_behind_core_port(at.id, static_cast<topo::PodId>(port))};
    case topo::Layer::kHost:
      break;
  }
  throw std::logic_error{"replay: hosts have no switch ports"};
}

SpanKind span_kind_of(topo::Layer layer) {
  switch (layer) {
    case topo::Layer::kLeaf: return SpanKind::kLeaf;
    case topo::Layer::kSpine: return SpanKind::kSpine;
    case topo::Layer::kCore: return SpanKind::kCore;
    case topo::Layer::kHost: break;
  }
  return SpanKind::kDecap;
}

ReplayResult replay_send(sim::Fabric& fabric, topo::HostId src,
                         net::Ipv4Address group,
                         std::span<const std::uint8_t> payload, SpanLog& log,
                         std::uint32_t parent, std::uint64_t op) {
  ReplayResult out;
  const auto& t = fabric.topology();
  log.begin(SpanKind::kEncap, parent, op);
  auto packet = fabric.hypervisor(src).encapsulate(group, payload);
  log.end();
  ++out.encaps;
  if (!packet) return out;

  struct Item {
    sim::NodeRef at;
    net::PacketView packet;
  };
  std::vector<Item> queue;
  std::size_t head = 0;
  const sim::NodeRef first{topo::Layer::kLeaf, t.leaf_of_host(src)};
  net::PacketView view{std::move(*packet)};
  out.result.total_wire_bytes += view.size();
  ++out.result.total_link_transmissions;
  queue.push_back(Item{first, std::move(view)});

  dp::EmissionArena arena;
  while (head < queue.size()) {
    Item item = std::move(queue[head++]);
    arena.clear();
    log.begin(span_kind_of(item.at.layer), parent, op);
    const auto emissions =
        fabric.element(item.at).process(item.packet, 0, arena);
    log.end();
    ++out.calls[static_cast<std::size_t>(item.at.layer)];
    if (item.at.layer == topo::Layer::kHost) {
      out.result.vm_deliveries += emissions.size();
      continue;
    }
    for (auto& e : emissions) {
      const auto next = next_hop(t, item.at, e.out_port);
      out.result.total_wire_bytes += e.packet.size();
      ++out.result.total_link_transmissions;
      if (next.layer == topo::Layer::kHost) ++out.result.host_copies[next.id];
      queue.push_back(Item{next, std::move(e.packet)});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Membership driver between the ChurnSimulator and the ControlPlane: times
// each ControlPlane call (auto-flush included) and keeps the delivery
// oracle's membership mirror in step.
// ---------------------------------------------------------------------------

struct EventRecord {
  bool join = true;
  GroupId group = 0;
  Member member;
  bool traced = false;
  std::uint32_t span = SpanLog::kNoSpan;
  std::uint64_t op = 0;
  double plane_us = 0;
};

class TimingDriver final : public MembershipDriver {
 public:
  TimingDriver(stream::ControlPlane& plane, verify::DeliveryOracle& oracle,
               const std::unordered_map<GroupId, std::size_t>& index,
               SpanLog* log)
      : plane_{&plane}, oracle_{&oracle}, index_{&index}, log_{log} {}

  // The next event's op id and whether it is traced.
  void arm(std::uint64_t op, bool traced) {
    op_ = op;
    traced_ = traced && log_ != nullptr;
    fired_ = false;
    mirror_ok_ = true;
  }
  bool fired() const noexcept { return fired_; }
  const EventRecord& last() const noexcept { return last_; }
  bool mirror_ok() const noexcept { return mirror_ok_; }

  void join(GroupId group, const Member& member) override {
    start();
    plane_->join(group, member);
    finish(true, group, member);
    oracle_->join(index_->at(group), member);
  }

  Member leave(GroupId group, topo::HostId host, std::uint32_t vm) override {
    start();
    const Member m = plane_->leave(group, host, vm);
    finish(false, group, m);
    if (!oracle_->leave(index_->at(group), host, vm)) mirror_ok_ = false;
    return m;
  }

 private:
  void start() {
    if (traced_) {
      span_ = log_->begin(SpanKind::kEvent, SpanLog::kNoSpan, op_);
    } else {
      t0_ = Clock::now();
    }
  }
  void finish(bool join, GroupId group, const Member& member) {
    const double us = traced_ ? log_->end() : us_since(t0_);
    last_ = EventRecord{join, group, member, traced_,
                        traced_ ? span_ : SpanLog::kNoSpan, op_, us};
    fired_ = true;
  }

  stream::ControlPlane* plane_;
  verify::DeliveryOracle* oracle_;
  const std::unordered_map<GroupId, std::size_t>* index_;
  SpanLog* log_;
  std::uint64_t op_ = 0;
  bool traced_ = false;
  bool fired_ = false;
  bool mirror_ok_ = true;
  std::uint32_t span_ = SpanLog::kNoSpan;
  Clock::time_point t0_;
  EventRecord last_;
};

// ---------------------------------------------------------------------------
// One round: a seeded op stream (seeded by the run's seed and the round) on
// one freshly built world.
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t { kSend, kEvent, kProbe };

struct OpSample {
  OpKind kind = OpKind::kSend;
  bool traced = false;
  double us = 0;
};

// Counters over the counting slice: each round's first min_ops ops, plus
// the last round's probes.
struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t sends = 0;
  std::uint64_t events = 0;
  std::uint64_t send_wire_bytes = 0;
  std::uint64_t excess_copies = 0;
  stream::ControlPlaneStats plane;  // deltas
  // Traced ops only: public counters around Fabric::send.
  std::uint64_t traced_sends = 0;
  std::uint64_t traced_events = 0;
  LayerStats layers;
  std::uint64_t copies = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t work_items = 0;
  std::uint64_t max_queue_depth = 0;
};

void add(Counts& acc, const Counts& c) {
  acc.ops += c.ops;
  acc.sends += c.sends;
  acc.events += c.events;
  acc.send_wire_bytes += c.send_wire_bytes;
  acc.excess_copies += c.excess_copies;
  add_delta(acc.plane, c.plane, stream::ControlPlaneStats{});
  acc.traced_sends += c.traced_sends;
  acc.traced_events += c.traced_events;
  add(acc.layers, c.layers);
  acc.copies += c.copies;
  acc.bytes_copied += c.bytes_copied;
  acc.work_items += c.work_items;
  acc.max_queue_depth = std::max(acc.max_queue_depth, c.max_queue_depth);
}

struct RoundPlan {
  std::size_t index = 0;
  double budget_us = 0;       // run for this long, and at least min_ops ops
  bool last = false;          // run the probes and the digest gate
};

class Round {
 public:
  Round(const Options& opt, const RoundPlan& plan, World& world, SpanLog* log)
      : opt_{opt},
        plan_{plan},
        w_{*opt.workload},
        world_{world},
        log_{log},
        oracle_{world.topology(), world.controller().legacy_leaves()},
        driver_{world.plane(), oracle_, index_, log},
        payload_(w_.payload_bytes == 0 ? 64 : w_.payload_bytes, 0xab),
        send_rng_{util::Rng::stream(opt.seed, 101 + 1000 * plan.index)},
        churn_rng_{util::Rng::stream(opt.seed, 102 + 1000 * plan.index)},
        mix_rng_{util::Rng::stream(opt.seed, 103 + 1000 * plan.index)} {
    const auto& ids = world.ids();
    for (std::size_t gi = 0; gi < ids.size(); ++gi) {
      index_.emplace(ids[gi], gi);
      oracle_.create_group(world.initial_members()[gi]);
    }
    op_ = static_cast<std::uint64_t>(plan.index) << 32;  // unique per run
  }

  void run();

  const std::vector<OpSample>& ops() const noexcept { return ops_; }
  // Join-to-delivery of each probed join: the join's ControlPlane call plus
  // the probe send that reached the joiner.
  const std::vector<OpSample>& join_delivery() const noexcept { return jd_; }
  double flush_us() const noexcept { return flush_us_; }
  const Counts& counts() const noexcept { return counts_; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept { return notes_; }
  double rss_mb() const noexcept { return rss_mb_; }
  std::uint64_t probes_skipped() const noexcept { return probes_skipped_; }
  std::uint64_t noop_events() const noexcept { return noop_events_; }
  std::uint64_t conservation_checks() const noexcept { return conserved_; }
  const std::vector<EventRecord>& events() const noexcept { return events_; }

 private:
  bool churns() const { return w_.kind != WorkloadKind::kWalkWve; }
  bool traced_at(std::size_t op) const {
    return log_ != nullptr && (op / kTraceBlock) % 2 == 1;
  }
  void fail(std::string note) {
    ++failed_;
    if (notes_.size() < 8) notes_.push_back(std::move(note));
  }

  void set_counting(bool on);
  std::pair<std::size_t, topo::HostId> pick_send();
  // One send op; returns its latency. `joiner` is set for join probes.
  double send_op(std::size_t gi, topo::HostId src, bool traced,
                 std::uint32_t parent, const Member* joiner);
  // One churn attempt; returns the event, or nullptr for a no-op attempt.
  const EventRecord* event_op(ChurnSimulator& churn, bool traced);
  void probe_sends();
  void probe_events();
  void digest_gate();

  const Options& opt_;
  const RoundPlan plan_;
  const Workload& w_;
  World& world_;
  SpanLog* log_;
  std::unordered_map<GroupId, std::size_t> index_;
  verify::DeliveryOracle oracle_;
  TimingDriver driver_;
  std::vector<std::uint8_t> payload_;
  util::Rng send_rng_;
  util::Rng churn_rng_;
  util::Rng mix_rng_;
  std::vector<std::size_t> group_order_;
  std::size_t next_group_ = 0;

  std::vector<OpSample> ops_;
  std::vector<OpSample> jd_;
  double flush_us_ = 0;
  Counts counts_;
  bool counting_ = false;
  bool probing_ = false;  // probe ops are not timed ops
  stream::ControlPlaneStats plane_at_count_start_;
  std::uint64_t op_ = 0;  // op ids: shared by every span of a send or event
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
  double rss_mb_ = 0;
  std::uint64_t probes_skipped_ = 0;
  std::uint64_t noop_events_ = 0;
  std::uint64_t conserved_ = 0;
  std::vector<EventRecord> events_;
};

void Round::set_counting(bool on) {
  if (on == counting_) return;
  counting_ = on;
  if (log_ != nullptr) log_->set_counting(on);
  const auto& now = world_.plane().stats();
  if (on) {
    plane_at_count_start_ = now;
  } else {
    add_delta(counts_.plane, now, plane_at_count_start_);
    counts_.max_queue_depth =
        std::max(counts_.max_queue_depth,
                 world_.fabric().walk_stats().max_queue_depth);
  }
}

// Groups are drawn without replacement, one seeded permutation of all
// groups after another, so every group is sent to equally often; the
// sender is a seeded uniform pick among the group's sending members.
std::pair<std::size_t, topo::HostId> Round::pick_send() {
  const auto& ids = world_.ids();
  std::vector<topo::HostId> senders;
  for (;;) {
    if (next_group_ == group_order_.size()) {
      group_order_.resize(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) group_order_[i] = i;
      send_rng_.shuffle(std::span<std::size_t>{group_order_});
      next_group_ = 0;
    }
    const std::size_t gi = group_order_[next_group_++];
    senders.clear();
    for (const auto& m : world_.controller().group(ids[gi]).members) {
      if (can_send(m.role)) senders.push_back(m.host);
    }
    if (!senders.empty()) return {gi, senders[send_rng_.index(senders.size())]};
  }
}

double Round::send_op(std::size_t gi, topo::HostId src, bool traced,
                      std::uint32_t parent, const Member* joiner) {
  auto& fabric = world_.fabric();
  const GroupId id = world_.ids()[gi];
  const auto addr = world_.controller().group(id).address;
  const std::uint64_t op = op_++;
  ++attempted_;

  std::uint64_t joiner_delivered = 0;
  if (joiner != nullptr) {
    joiner_delivered = fabric.hypervisor(joiner->host).stats().delivered_to_vms;
  }
  LayerStats before;
  net::CopyStats copies_before{};
  std::uint64_t items_before = 0;
  if (traced) {
    before = LayerStats::of(fabric);
    copies_before = net::copy_stats();
    items_before = fabric.walk_stats().work_items;
  }

  sim::SendResult r;
  double us = 0;
  std::uint32_t span = SpanLog::kNoSpan;
  if (traced) {
    span = log_->begin(SpanKind::kSend, parent, op);
    r = fabric.send(src, addr, payload_);
    us = log_->end();
  } else {
    const auto t0 = Clock::now();
    r = fabric.send(src, addr, payload_);
    us = us_since(t0);
  }

  bool ok = true;
  // Oracle gate: every host that must receive does receive, and the
  // receiving hypervisors hand the packet to at least the receiving VMs.
  const auto expect =
      oracle_.expect(gi, world_.controller().group(id).encoding, src);
  std::uint64_t total_copies = 0;
  for (const auto& [host, n] : r.host_copies) total_copies += n;
  std::uint64_t expected_vms = 0;
  for (const auto& [host, vms] : expect.expected_hosts) {
    expected_vms += vms;
    if (ok && !r.host_copies.contains(host)) {
      ok = false;
      fail("send op " + std::to_string(op) + ": host " + std::to_string(host) +
           " of group " + std::to_string(id) + " got no copy");
    }
  }
  if (ok && r.vm_deliveries < expected_vms) {
    ok = false;
    fail("send op " + std::to_string(op) + ": " +
         std::to_string(r.vm_deliveries) + " VM deliveries, " +
         std::to_string(expected_vms) + " receiving VMs");
  }
  const std::uint64_t excess =
      total_copies >= expect.expected_hosts.size()
          ? total_copies - expect.expected_hosts.size()
          : 0;

  // Join probe gate: the joiner's hypervisor holds the flow for its VM and
  // delivered this send to it.
  if (joiner != nullptr) {
    const auto* flow = fabric.hypervisor(joiner->host).flow(addr);
    const bool has_vm =
        flow != nullptr && std::find(flow->local_vms.begin(),
                                     flow->local_vms.end(),
                                     joiner->vm) != flow->local_vms.end();
    const auto delivered =
        fabric.hypervisor(joiner->host).stats().delivered_to_vms -
        joiner_delivered;
    if (!has_vm || delivered == 0 || !r.host_copies.contains(joiner->host)) {
      if (ok) {
        fail("join probe op " + std::to_string(op) + ": joiner host " +
             std::to_string(joiner->host) + " not reached");
      }
      ok = false;
    }
  }

  if (traced) {
    const auto after = LayerStats::of(fabric);
    const auto copies_after = net::copy_stats();
    const auto items_after = fabric.walk_stats().work_items;
    const auto replay =
        replay_send(fabric, src, addr, payload_, *log_, span, op);
    const auto after_replay = LayerStats::of(fabric);

    // Conservation: the replay reproduces the walk exactly, and the public
    // per-layer counters moved by exactly the replay's calls.
    const auto walk = minus(after, before);
    const auto rep = minus(after_replay, after);
    const bool same_walk =
        replay.result.host_copies == r.host_copies &&
        replay.result.vm_deliveries == r.vm_deliveries &&
        replay.result.total_link_transmissions == r.total_link_transmissions &&
        replay.result.total_wire_bytes == r.total_wire_bytes;
    auto calls = [&](topo::Layer l) {
      return replay.calls[static_cast<std::size_t>(l)];
    };
    const bool same_counts =
        rep.leaf.packets_in == calls(topo::Layer::kLeaf) &&
        rep.spine.packets_in == calls(topo::Layer::kSpine) &&
        rep.core.packets_in == calls(topo::Layer::kCore) &&
        rep.host.received == calls(topo::Layer::kHost) &&
        rep.host.sent == replay.encaps &&
        walk.leaf.packets_in == rep.leaf.packets_in &&
        walk.spine.packets_in == rep.spine.packets_in &&
        walk.core.packets_in == rep.core.packets_in &&
        walk.host.received == rep.host.received;
    ++conserved_;
    if (!same_walk || !same_counts) {
      if (ok) {
        fail("conservation op " + std::to_string(op) + ": replay " +
             (same_walk ? "counters" : "result") + " differ from the walk");
      }
      ok = false;
    }
    if (counting_) {
      ++counts_.traced_sends;
      add(counts_.layers, walk);
      counts_.copies += copies_after.copies - copies_before.copies;
      counts_.bytes_copied += copies_after.bytes - copies_before.bytes;
      counts_.work_items += items_after - items_before;
    }
  }

  if (counting_) {
    ++counts_.ops;
    ++counts_.sends;
    counts_.send_wire_bytes += r.total_wire_bytes;
    counts_.excess_copies += excess;
  }
  if (!probing_) {
    ops_.push_back(OpSample{
        joiner != nullptr ? OpKind::kProbe : OpKind::kSend, traced, us});
  }
  return us;
}

const EventRecord* Round::event_op(ChurnSimulator& churn, bool traced) {
  driver_.arm(op_, traced);
  churn.step(kMinGroupSize, churn_rng_);
  if (!driver_.fired()) {
    ++noop_events_;
    return nullptr;
  }
  ++op_;
  ++attempted_;
  if (!driver_.mirror_ok()) {
    fail("event op " + std::to_string(driver_.last().op) +
         ": leave of a member the oracle does not mirror");
  }
  const auto& e = driver_.last();
  events_.push_back(e);
  if (counting_) {
    ++counts_.ops;
    ++counts_.events;
    if (e.traced) ++counts_.traced_events;
  }
  if (!probing_) ops_.push_back(OpSample{OpKind::kEvent, e.traced, e.plane_us});
  return &events_.back();
}

void Round::run() {
  ChurnSimulator churn{world_.controller(), world_.cloud(), world_.ids()};
  churn.set_driver(&driver_);

  const auto t0 = Clock::now();
  std::size_t slot = 0;        // position in the send/event mix
  std::size_t event_slot = 0;  // where this mix block's event sits
  const std::size_t mix = w_.sends_per_event + 1;
  bool probe_pending = false;  // the last event was a receiving join
  EventRecord probe_for;
  std::size_t ops = 0;
  auto done = [&] {
    return ops >= opt_.min_ops && us_since(t0) >= plan_.budget_us;
  };

  // Probes run on the freshly built world so their counts repeat exactly:
  // sends before the loop (they change no membership), events after it
  // (walk_wve's loop changes nothing).
  if (plan_.last && w_.kind == WorkloadKind::kChurnWve) probe_sends();

  set_counting(true);
  while (!done()) {
    const bool traced = traced_at(ops);
    if (probe_pending) {
      // The op after a receiving join: a send from one of the group's
      // senders on another host, which must reach the joiner.
      probe_pending = false;
      const auto joiner = probe_for.member;
      const auto gi = index_.at(probe_for.group);
      std::vector<topo::HostId> senders;
      for (const auto& m :
           world_.controller().group(probe_for.group).members) {
        if (can_send(m.role) && m.host != joiner.host) {
          senders.push_back(m.host);
        }
      }
      if (senders.empty()) {
        ++probes_skipped_;
        continue;
      }
      const auto src = senders[mix_rng_.index(senders.size())];
      const double us =
          send_op(gi, src, probe_for.traced, probe_for.span, &joiner);
      jd_.push_back(
          OpSample{OpKind::kProbe, probe_for.traced, probe_for.plane_us + us});
    } else {
      bool is_event = false;
      if (w_.kind == WorkloadKind::kChurnWve) {
        is_event = true;
      } else if (w_.kind == WorkloadKind::kChurnUnderTraffic) {
        if (slot % mix == 0) event_slot = mix_rng_.index(mix);
        is_event = slot % mix == event_slot;
        ++slot;
      }
      if (is_event) {
        const auto* e = event_op(churn, traced);
        if (e == nullptr) continue;
        if (w_.kind == WorkloadKind::kChurnUnderTraffic && e->join &&
            can_receive(e->member.role)) {
          probe_for = *e;
          probe_pending = true;
        }
      } else {
        const auto [gi, src] = pick_send();
        send_op(gi, src, traced, SpanLog::kNoSpan, nullptr);
      }
    }
    ++ops;
    if (ops == opt_.min_ops) set_counting(false);
  }
  set_counting(false);

  if (churns()) {
    // Drain the tail so every event is installed; charged to throughput.
    if (log_ != nullptr) {
      log_->begin(SpanKind::kFlush, SpanLog::kNoSpan, op_);
      world_.plane().flush();
      flush_us_ = log_->end();
    } else {
      const auto tf = Clock::now();
      world_.plane().flush();
      flush_us_ = us_since(tf);
    }
  }
  rss_mb_ = peak_rss_mb();

  if (plan_.last && w_.kind == WorkloadKind::kWalkWve) probe_events();
  if (plan_.last) digest_gate();
}

// churn_wve never walks: measure the data-plane layers on its fabric (and
// give wire_bytes_per_send and excess_copies_per_send a value). The probe is
// part of the fixed data set: its sends do not depend on --seed, so its
// counts are the same in every run.
void Round::probe_sends() {
  send_rng_ = util::Rng::stream(world_.params().seed, 104);  // else unused
  probing_ = true;
  set_counting(true);
  for (std::size_t i = 0; i < kProbeSends; ++i) {
    const auto [gi, src] = pick_send();
    send_op(gi, src, log_ != nullptr, SpanLog::kNoSpan, nullptr);
  }
  set_counting(false);
  probing_ = false;
}

// walk_wve never churns: measure the control-plane layers (and give
// updates_per_event a value) on a slice of its groups, adopted into the
// ControlPlane just for this probe. Like probe_sends, it does not depend on
// --seed.
void Round::probe_events() {
  churn_rng_ = util::Rng::stream(world_.params().seed, 105);  // else unused
  const auto& ids = world_.ids();
  std::vector<GroupId> slice;
  const std::size_t n = std::min(kProbeGroups, ids.size());
  const std::size_t stride = ids.size() / n;
  const std::size_t offset = churn_rng_.index(stride);
  for (std::size_t i = 0; i < n; ++i) slice.push_back(ids[offset + i * stride]);
  for (const auto id : slice) world_.plane().track_group(id);
  ChurnSimulator churn{world_.controller(), world_.cloud(), slice};
  churn.set_driver(&driver_);
  probing_ = true;
  set_counting(true);
  std::size_t done = 0;
  while (done < kProbeEvents) {
    if (event_op(churn, log_ != nullptr) != nullptr) ++done;
  }
  world_.plane().flush();
  set_counting(false);
  probing_ = false;
}

// Streamed deltas must leave the fabric exactly as a fresh batch install of
// the final membership would.
void Round::digest_gate() {
  if (world_.plane().stats().events == 0) return;
  ++attempted_;
  world_.plane().flush();
  sim::Fabric reference{world_.topology()};
  for (const auto id : world_.ids()) {
    reference.install_group(world_.controller(), id);
  }
  if (stream::fabric_state_digest(world_.fabric()) !=
      stream::fabric_state_digest(reference)) {
    fail("digest: churned fabric differs from a fresh batch install");
  }
}

// ---------------------------------------------------------------------------
// Shadow controller: replays the run's event stream on a bare Controller
// built from the same initial groups, timing Controller::join/leave and
// Controller::header_for for every traced event.
// ---------------------------------------------------------------------------

struct ShadowResult {
  std::vector<double> reencode_us;
  std::vector<double> self_us;  // ControlPlane call minus re-encode
  bool consistent = true;
};

ShadowResult replay_shadow(World& world, const std::vector<EventRecord>& events,
                           SpanLog& log) {
  ShadowResult out;
  Controller shadow{world.topology(), paper_encoder_config()};
  const auto specs = world.specs();
  const auto ids = shadow.create_groups(specs);
  if (ids != world.ids()) out.consistent = false;
  for (const auto& e : events) {
    double us = 0;
    if (e.traced) log.begin(SpanKind::kReencode, e.span, e.op);
    if (e.join) {
      shadow.join(e.group, e.member);
    } else {
      shadow.leave(e.group, e.member.host, e.member.vm);
    }
    if (!e.traced) continue;
    us = log.end();
    out.reencode_us.push_back(us);
    out.self_us.push_back(e.plane_us - us);
    for (const auto& m : shadow.group(e.group).members) {
      if (!can_send(m.role)) continue;
      log.begin(SpanKind::kHeader, e.span, e.op);
      const auto header = shadow.header_for(e.group, m.host);
      log.end();
      if (header.empty()) out.consistent = false;
    }
  }
  // The shadow must end where the real controller ended.
  for (const auto id : ids) {
    if (shadow.group(id).members.size() !=
        world.controller().group(id).members.size()) {
      out.consistent = false;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  // nullopt: does not apply to this workload
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  bool first = true;
  for (const auto& m : ms) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " +
           (m.value ? fmt(*m.value) : std::string{"null"}) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

// Latencies of one kind of op over every round, per leg.
struct Samples {
  std::vector<double> untraced;
  std::vector<double> traced;

  template <typename Keep>
  void add(const std::vector<OpSample>& ops, Keep&& keep) {
    for (const auto& o : ops) {
      if (keep(o.kind)) (o.traced ? traced : untraced).push_back(o.us);
    }
  }
};

// Overhead of tracing as a cost share: positive means tracing made the
// metric worse.
double overhead_pct(double untraced, double traced, bool lower_is_better) {
  if (untraced <= 0) return 0;
  const double d = lower_is_better ? traced - untraced : untraced - traced;
  return 100.0 * d / untraced;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

int run_main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const Workload& w = *opt.workload;

  std::optional<SpanLog> log;
  if (opt.trace) log.emplace(kSpanCapacity);
  WorldParams wp;
  wp.pods = opt.pods;
  wp.groups = opt.groups;
  wp.tenants = opt.tenants;
  wp.flush_threshold = w.flush_threshold;
  wp.track = w.kind != WorkloadKind::kWalkWve;

  // Rounds: each builds a fresh world (set-up is timed every round; setup_s
  // is the median) and runs its op stream for its share of --seconds. With
  // tracing, the last round's set-up is traced.
  auto all = [](OpKind) { return true; };
  auto is_send = [](OpKind k) { return k != OpKind::kEvent; };
  auto is_event = [](OpKind k) { return k == OpKind::kEvent; };
  std::vector<SetupTimes> setups;
  Samples op_s;
  Samples send_s;
  Samples event_s;
  Samples jd_s;
  double flush_us = 0;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::uint64_t conserved = 0;
  std::uint64_t probes_skipped = 0;
  std::uint64_t noop_events = 0;
  double rss_mb = 0;
  std::vector<EventRecord> events;
  std::unique_ptr<World> world;
  for (std::size_t r = 0; r < opt.rounds; ++r) {
    const bool last = r + 1 == opt.rounds;
    world.reset();
    world = std::make_unique<World>(wp, last && log ? &*log : nullptr);
    setups.push_back(world->times());

    RoundPlan plan;
    plan.index = r;
    plan.budget_us = opt.seconds * 1e6 / static_cast<double>(opt.rounds);
    plan.last = last;
    Round round{opt, plan, *world, log ? &*log : nullptr};
    round.run();

    op_s.add(round.ops(), all);
    send_s.add(round.ops(), is_send);
    event_s.add(round.ops(), is_event);
    jd_s.add(round.join_delivery(), all);
    flush_us += round.flush_us();
    add(counts, round.counts());
    attempted += round.attempted();
    failed += round.failed();
    for (const auto& n : round.failures()) {
      if (notes.size() < 8) notes.push_back(n);
    }
    conserved += round.conservation_checks();
    probes_skipped += round.probes_skipped();
    noop_events += round.noop_events();
    rss_mb = std::max(rss_mb, round.rss_mb());
    if (last) events = round.events();
  }

  std::vector<double> setup_totals;
  for (const auto& s : setups) setup_totals.push_back(s.total());
  std::vector<double> untraced_setups(setup_totals.begin(),
                                      setup_totals.end() - (log ? 1 : 0));
  if (untraced_setups.empty()) untraced_setups = setup_totals;

  ShadowResult shadow;
  if (log) {
    shadow = replay_shadow(*world, events, *log);
    ++attempted;
    if (!shadow.consistent) {
      ++failed;
      notes.push_back("shadow controller diverged from the real one");
    }
  }

  const auto& c = counts;
  const bool sends = w.kind != WorkloadKind::kChurnWve;
  const bool churns = w.kind != WorkloadKind::kWalkWve;
  const auto& op_us = op_s.untraced;
  const auto& send_us = send_s.untraced;
  const auto& event_us = event_s.untraced;
  const auto& jd_us = jd_s.untraced;
  auto rate = [](const std::vector<double>& v, double extra_us) {
    return ratio(static_cast<double>(v.size()) * 1e6, sum(v) + extra_us);
  };
  auto opt_if = [](bool applies, double v) {
    return applies ? std::optional<double>{v} : std::nullopt;
  };

  // End-to-end metrics the contract gates, defined on every workload: the
  // ones that repeat within a bound the contract allows on a host whose
  // memory latency swings with its neighbours' load. The deterministic costs
  // come from the counting slice, and from the probes on the workload that
  // leaves a plane idle.
  std::vector<Metric> e2e = {
      {"setup_s", "s", median(untraced_setups)},
      {"rss_mb", "MB", rss_mb},
      {"wire_bytes_per_send", "B", ratio(c.send_wire_bytes, c.sends)},
      {"excess_copies_per_send", "count", ratio(c.excess_copies, c.sends)},
      {"updates_per_event", "count",
       ratio(c.plane.updates_applied, c.plane.events)},
  };
  const double setup_s = e2e[0].value.value();

  // Every end-to-end metric of the workload definition, for the run record:
  // the gated ones, then the op latencies and rates. An op is the
  // workload's own unit (one Fabric::send, one ControlPlane call, or either);
  // the send_* and event_* names are the same figures where they apply.
  std::vector<Metric> named = e2e;
  named.insert(named.end(), {
      {"op_us_p50", "us", pct(op_us, 50)},
      {"op_us_p99", "us", pct(op_us, 99)},
      {"ops_per_s", "1/s", rate(op_us, flush_us)},
      {"send_us_p50", "us", opt_if(sends, pct(send_us, 50))},
      {"send_us_p99", "us", opt_if(sends, pct(send_us, 99))},
      {"sends_per_s", "1/s", opt_if(sends, rate(send_us, 0))},
      {"events_per_s", "1/s", opt_if(churns, rate(event_us, flush_us))},
      {"event_us_p50", "us", opt_if(churns, pct(event_us, 50))},
      {"event_us_p99", "us", opt_if(churns, pct(event_us, 99))},
      {"join_to_delivery_us_p50", "us",
       opt_if(w.kind == WorkloadKind::kChurnUnderTraffic, pct(jd_us, 50))},
      {"join_to_delivery_us_p90", "us",
       opt_if(w.kind == WorkloadKind::kChurnUnderTraffic, pct(jd_us, 90))},
      {"fail_ratio", "ratio", ratio(failed, attempted)},
  });

  std::vector<Metric> per_layer;
  if (log) {
    const auto& L = *log;
    const double ts = static_cast<double>(L.totals(SpanKind::kSend).count);
    const double cs = static_cast<double>(c.traced_sends);
    auto us_per_send = [&](SpanKind k) { return ratio(L.totals(k).us, ts); };
    auto calls_per_send = [&](SpanKind k) {
      return ratio(L.counted(k).count, cs);
    };
    auto allocs_per_send = [&](SpanKind k) {
      return ratio(L.counted(k).allocs, cs);
    };
    const SpanKind dp_kinds[] = {SpanKind::kEncap, SpanKind::kLeaf,
                                 SpanKind::kSpine, SpanKind::kCore,
                                 SpanKind::kDecap};
    const char* dp_names[] = {"encap", "leaf", "spine", "core", "decap"};
    double replay_us = 0;
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string n = std::string{"dataplane."} + dp_names[i];
      per_layer.push_back({n + ".us_per_send", "us", us_per_send(dp_kinds[i])});
      per_layer.push_back(
          {n + ".calls_per_send", "count", calls_per_send(dp_kinds[i])});
      per_layer.push_back(
          {n + ".allocs_per_send", "count", allocs_per_send(dp_kinds[i])});
      replay_us += L.totals(dp_kinds[i]).us;
    }
    // The replay's layers plus sim.walk add up to Fabric::send.
    per_layer.push_back(
        {"sim.send_us_per_send", "us", us_per_send(SpanKind::kSend)});
    per_layer.push_back({"sim.walk_us_per_send", "us",
                         ratio(L.totals(SpanKind::kSend).us - replay_us, ts)});
    const std::pair<const char*, const dp::SwitchStats*> sw[] = {
        {"leaf", &c.layers.leaf},
        {"spine", &c.layers.spine},
        {"core", &c.layers.core}};
    for (const auto& [n, s] : sw) {
      const std::string p = std::string{"dataplane."} + n;
      per_layer.push_back(
          {p + ".slow_path_ratio", "ratio",
           ratio(s->srule_matches + s->default_matches, s->packets_in)});
      per_layer.push_back(
          {p + ".header_pop_bytes_per_send", "B", ratio(s->header_pop_bytes, cs)});
    }
    per_layer.push_back(
        {"dataplane.decap.discard_ratio", "ratio",
         ratio(c.layers.host.discarded, c.layers.host.received)});
    per_layer.push_back(
        {"net.bytes_copied_per_send", "B", ratio(c.bytes_copied, cs)});
    per_layer.push_back({"net.copies_per_send", "count", ratio(c.copies, cs)});
    per_layer.push_back({"alloc.per_send", "count",
                         ratio(L.counted(SpanKind::kSend).allocs, cs)});
    per_layer.push_back(
        {"sim.work_items_per_send", "count", ratio(c.work_items, cs)});
    per_layer.push_back({"sim.max_queue_depth", "count",
                         static_cast<double>(c.max_queue_depth)});

    // Control plane.
    const double te = static_cast<double>(shadow.reencode_us.size());
    per_layer.push_back(
        {"elmo.reencode_us_p50", "us", pct(shadow.reencode_us, 50)});
    per_layer.push_back(
        {"elmo.reencode_us_p99", "us", pct(shadow.reencode_us, 99)});
    per_layer.push_back({"elmo.header_us_per_sender", "us",
                         ratio(L.totals(SpanKind::kHeader).us,
                               L.totals(SpanKind::kHeader).count)});
    per_layer.push_back(
        {"stream.self_us_per_event", "us", ratio(sum(shadow.self_us), te)});
    const auto& p = c.plane;
    const double ev = static_cast<double>(p.events);
    per_layer.push_back(
        {"stream.flushes_per_event", "count", ratio(p.flushes, ev)});
    per_layer.push_back(
        {"stream.coalesced_ratio", "ratio",
         ratio(p.updates_coalesced, p.updates_applied + p.updates_coalesced)});
    per_layer.push_back(
        {"stream.clean_event_ratio", "ratio", ratio(p.clean_events, ev)});
    per_layer.push_back({"stream.flow_updates_per_event", "count",
                         ratio(p.flow_adds + p.flow_dels, ev)});
    per_layer.push_back(
        {"stream.srule_updates_per_event", "count",
         ratio(p.leaf_srule_adds + p.leaf_srule_dels + p.spine_srule_adds +
                   p.spine_srule_dels,
               ev)});
    per_layer.push_back(
        {"p4rt.wire_bytes_per_event", "B", ratio(p.wire_bytes, ev)});
    per_layer.push_back(
        {"p4rt.batches_per_event", "count", ratio(p.batches_encoded, ev)});
    per_layer.push_back({"alloc.per_event", "count",
                         ratio(L.counted(SpanKind::kEvent).allocs,
                               c.traced_events)});

    // Set-up: the traced repetition's bulk install through the channel.
    const double upd = static_cast<double>(world->install_counts().updates);
    per_layer.push_back({"p4rt.compile_us_per_update", "us",
                         ratio(L.totals(SpanKind::kCompile).us, upd)});
    per_layer.push_back({"p4rt.encode_us_per_update", "us",
                         ratio(L.totals(SpanKind::kWireEncode).us, upd)});
    per_layer.push_back({"p4rt.decode_us_per_update", "us",
                         ratio(L.totals(SpanKind::kWireDecode).us, upd)});
    per_layer.push_back({"p4rt.apply_us_per_update", "us",
                         ratio(L.totals(SpanKind::kApply).us, upd)});
    per_layer.push_back(
        {"p4rt.wire_bytes_per_update", "B",
         ratio(world->install_counts().wire_bytes, upd)});
    auto stage = [&](double SetupTimes::*f) {
      std::vector<double> v;
      for (const auto& s : setups) v.push_back(s.*f);
      return median(v);
    };
    per_layer.push_back({"setup.cloud_s", "s", stage(&SetupTimes::cloud)});
    per_layer.push_back({"setup.encode_s", "s", stage(&SetupTimes::encode)});
    per_layer.push_back({"setup.fabric_s", "s", stage(&SetupTimes::fabric)});
    per_layer.push_back({"setup.install_s", "s", stage(&SetupTimes::install)});
    per_layer.push_back({"setup.track_s", "s", stage(&SetupTimes::track)});

    // Tracing overhead: the traced blocks' ops against the untraced blocks'
    // ops of the same rounds.
    const auto& pu = op_s.untraced;
    const auto& pt = op_s.traced;
    per_layer.push_back({"trace.overhead.setup_s_pct", "%",
                         overhead_pct(setup_s, setup_totals.back(), true)});
    per_layer.push_back({"trace.overhead.op_us_p50_pct", "%",
                         overhead_pct(pct(pu, 50), pct(pt, 50), true)});
    per_layer.push_back({"trace.overhead.op_us_p99_pct", "%",
                         overhead_pct(pct(pu, 99), pct(pt, 99), true)});
    per_layer.push_back({"trace.overhead.ops_per_s_pct", "%",
                         overhead_pct(rate(pu, 0), rate(pt, 0), false)});
    if (!opt.trace_out.empty() && !L.write_jsonl(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  }

  // Run record.
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": \"" << w.name << "\", \"seed\": "
      << opt.seed << ", \"seconds\": " << fmt(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"pods\": " << opt.pods
      << ", \"hosts\": " << world->topology().num_hosts()
      << ", \"groups\": " << opt.groups
      << ", \"tenants\": " << world->cloud().tenants().size()
      << ", \"rounds\": " << opt.rounds << ", \"min_ops\": " << opt.min_ops
      << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
      << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\"}"
      << ", \"ops\": " << op_s.untraced.size() + op_s.traced.size()
      << ", \"samples\": {\"send\": " << send_us.size()
      << ", \"event\": " << event_us.size()
      << ", \"join_probe\": " << jd_us.size() << "}"
      << ", \"join_probes_skipped\": " << probes_skipped
      << ", \"noop_churn_attempts\": " << noop_events
      << ", \"conservation_checks\": " << conserved
      << ", \"spans_stored\": " << (log ? log->stored() : 0)
      << ", \"spans_dropped\": " << (log ? log->dropped() : 0)
      << ", \"failures\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    rec << (i ? ", " : "") << "\"" << json_escape(notes[i]) << "\"";
  }
  rec << "], \"metrics\": " << metrics_json(named);
  if (log) rec << ", \"per_layer\": " << metrics_json(per_layer);
  rec << "}}";
  std::printf("%s\n", rec.str().c_str());

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(log ? per_layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  int code = 2;
  try {
    code = perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elmo_perfbench: %s\n", e.what());
  }
  // Output is flushed; skip tearing down the last world (hundreds of MB of
  // small objects), which no metric covers.
  std::fflush(nullptr);
  std::_Exit(code);
}
