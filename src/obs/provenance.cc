#include "obs/provenance.h"

#include <sstream>

#include "net/headers.h"

namespace elmo::obs {

const char* to_string(RuleClass rule) {
  switch (rule) {
    case RuleClass::kNone:
      return "none";
    case RuleClass::kSource:
      return "source";
    case RuleClass::kPRule:
      return "p-rule";
    case RuleClass::kUpstream:
      return "upstream";
    case RuleClass::kSRule:
      return "s-rule";
    case RuleClass::kDefault:
      return "default p-rule";
    case RuleClass::kHostDeliver:
      return "deliver";
    case RuleClass::kHostDiscard:
      return "discard";
    case RuleClass::kDrop:
      return "drop";
  }
  return "?";
}

namespace {

SendTrace make_trace(std::uint32_t group, std::uint32_t src_host,
                     std::size_t bytes) {
  SendTrace trace;
  trace.group = group;
  trace.src_host = src_host;
  ProvHop root;
  root.layer = topo::Layer::kHost;
  root.node = src_host;
  root.bytes_in = bytes;
  root.decision.rule = RuleClass::kSource;
  trace.hops.push_back(std::move(root));
  return trace;
}

std::size_t add_hop(SendTrace& trace, topo::Layer layer, std::uint32_t node,
                    std::size_t parent, std::size_t bytes_in) {
  auto& hops = trace.hops;
  const std::size_t index = hops.size();
  ProvHop hop;
  hop.layer = layer;
  hop.node = node;
  hop.parent = parent;
  hop.bytes_in = bytes_in;
  hops.push_back(std::move(hop));
  if (parent != kNoProvParent) hops[parent].children.push_back(index);
  return index;
}

}  // namespace

std::size_t ProvenanceLog::begin_send(std::uint32_t group,
                                      std::uint32_t src_host,
                                      std::size_t bytes) {
  sends_.push_back(make_trace(group, src_host, bytes));
  return 0;
}

std::size_t ProvenanceLog::begin_hop(topo::Layer layer, std::uint32_t node,
                                     std::size_t parent,
                                     std::size_t bytes_in) {
  return add_hop(sends_.back(), layer, node, parent, bytes_in);
}

void ProvenanceLog::lost_copy(topo::Layer layer, std::uint32_t node,
                              std::size_t parent, std::size_t bytes) {
  auto& trace = sends_.back();
  trace.hops[add_hop(trace, layer, node, parent, bytes)].lost = true;
}

std::string node_name(topo::Layer layer, std::uint32_t node) {
  switch (layer) {
    case topo::Layer::kHost:
      return "host" + std::to_string(node);
    case topo::Layer::kLeaf:
      return "L" + std::to_string(node);
    case topo::Layer::kSpine:
      return "S" + std::to_string(node);
    case topo::Layer::kCore:
      return "C" + std::to_string(node);
  }
  return "?";
}

namespace {

void render_hop(const SendTrace& trace, std::span<const char* const> notes,
                std::size_t index, std::size_t depth,
                std::ostringstream& out) {
  const auto& hop = trace.hops[index];
  out << std::string(2 * depth, ' ') << node_name(hop.layer, hop.node);
  if (hop.lost) {
    out << "  [lost in flight]";
  } else if (index == 0) {
    out << "  [source, " << hop.bytes_in << "B on wire]";
  } else {
    out << "  [" << describe(hop.decision) << ", " << hop.bytes_in
        << "B in]";
  }
  if (index < notes.size() && notes[index] != nullptr) {
    out << "  " << notes[index];
  }
  out << "\n";
  for (const auto child : hop.children) {
    render_hop(trace, notes, child, depth + 1, out);
  }
}

}  // namespace

std::string describe(const HopDecision& decision) {
  std::ostringstream out;
  out << to_string(decision.rule);
  if (decision.legacy) out << " (legacy)";
  if (decision.rule == RuleClass::kPRule && decision.prule_index >= 0) {
    out << " #" << decision.prule_index;
    if (decision.prule_shared) out << " shared";
  }
  if (decision.bitmap.any()) out << " ports=" << decision.bitmap.to_string();
  if (decision.rule == RuleClass::kUpstream) {
    if (decision.multipath) {
      out << " up=multipath";
    } else if (decision.up_bitmap.any()) {
      out << " up=" << decision.up_bitmap.to_string();
    }
  }
  if (decision.egress.any()) {
    out << " egress=" << decision.egress.to_string();
  }
  if (decision.popped_bytes > 0) {
    out << " popped " << decision.popped_bytes << "B";
  }
  if (decision.rule == RuleClass::kHostDeliver) {
    out << " (" << decision.vm_deliveries << " VMs)";
  }
  return out.str();
}

std::string render_trace(const SendTrace& trace,
                         std::span<const char* const> notes) {
  std::ostringstream out;
  out << "send group=" << net::Ipv4Address{trace.group}.to_string()
      << " from host" << trace.src_host << "\n";
  if (!trace.hops.empty()) render_hop(trace, notes, 0, 0, out);
  return out.str();
}

}  // namespace elmo::obs
