// In-memory span store of the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public functions (no tracing lives inside the program). A span carries its
// kind, start and end, the span that caused it and a shared id per send or
// churn event, plus the heap allocations made inside it. Per-kind totals are
// kept online so they stay exact when the stored spans hit their cap; the
// stored spans are written out once, at the end of the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_count.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSend,         // Fabric::send
  kEncap,        // HypervisorSwitch::encapsulate (replay)
  kLeaf,         // ForwardingElement::process at a leaf (replay)
  kSpine,
  kCore,
  kDecap,        // ForwardingElement::process at a hypervisor (replay)
  kEvent,        // ControlPlane join/leave, auto-flush included
  kFlush,        // ControlPlane::flush
  kReencode,     // Controller::join/leave on the shadow controller
  kHeader,       // Controller::header_for on the shadow controller
  kSetupCloud,   // cloud::Cloud + cloud::GroupWorkload
  kSetupEncode,  // Controller::create_groups
  kSetupFabric,  // sim::Fabric construction
  kSetupInstall,
  kSetupTrack,   // ControlPlane::track_group for every group
  kCompile,      // p4rt::compile_install
  kWireEncode,   // p4rt::encode
  kWireDecode,   // p4rt::decode
  kApply,        // p4rt::apply_updates
  kCount
};

inline constexpr std::array<const char*,
                            static_cast<std::size_t>(SpanKind::kCount)>
    kSpanNames = {"sim.send",        "dataplane.encap",  "dataplane.leaf",
                  "dataplane.spine", "dataplane.core",   "dataplane.decap",
                  "stream.event",    "stream.flush",     "elmo.reencode",
                  "elmo.header_for", "setup.cloud",      "setup.encode",
                  "setup.fabric",    "setup.install",    "setup.track",
                  "p4rt.compile",    "p4rt.encode",      "p4rt.decode",
                  "p4rt.apply"};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoSpan = 0;

  struct Span {
    SpanKind kind = SpanKind::kSend;
    std::uint32_t parent = kNoSpan;  // id of the causing span
    std::uint64_t op = 0;            // shared id of one send or event
    double start_us = 0;
    double end_us = 0;
    std::uint64_t allocs = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    double us = 0;
    std::uint64_t allocs = 0;
  };

  explicit SpanLog(std::size_t capacity) : capacity_{capacity} {
    spans_.reserve(capacity);
    open_.reserve(8);
  }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  // Opens a span and returns its id (1-based) for use as the parent of the
  // spans it causes; kNoSpan once the store is full — totals are still kept
  // for spans that are not stored.
  std::uint32_t begin(SpanKind kind, std::uint32_t parent, std::uint64_t op) {
    std::uint32_t id = kNoSpan;
    const double t = now_us();
    if (spans_.size() < capacity_) {
      spans_.push_back(Span{kind, parent, op, t, t, 0});
      id = static_cast<std::uint32_t>(spans_.size());
    } else {
      ++dropped_;
    }
    open_.push_back(Open{kind, id, allocations(), t});
    return id;
  }

  // Closes the most recently opened span (spans nest strictly) and returns
  // its duration in microseconds.
  double end() {
    const double t = now_us();
    const std::uint64_t a = allocations();
    const Open o = open_.back();
    open_.pop_back();
    auto& tot = totals_[static_cast<std::size_t>(o.kind)];
    ++tot.count;
    tot.us += t - o.start_us;
    tot.allocs += a - o.allocs;
    if (counting_) {
      auto& c = counted_[static_cast<std::size_t>(o.kind)];
      ++c.count;
      c.allocs += a - o.allocs;
    }
    if (o.id != kNoSpan) {
      spans_[o.id - 1].end_us = t;
      spans_[o.id - 1].allocs = a - o.allocs;
    }
    return t - o.start_us;
  }

  // Every closed span of `kind`.
  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  // Only spans closed while counting was on: the fixed, seed-determined
  // slice of the run whose counts must repeat exactly (times stay 0 here).
  const Totals& counted(SpanKind kind) const {
    return counted_[static_cast<std::size_t>(kind)];
  }
  void set_counting(bool on) noexcept { counting_ = on; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t stored() const noexcept { return spans_.size(); }

  // One JSON object per line: id, name, parent, op, start/end (us), allocs.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"op\":%llu,"
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"allocs\":%llu}\n",
                   i + 1, kSpanNames[static_cast<std::size_t>(s.kind)],
                   s.parent, static_cast<unsigned long long>(s.op),
                   s.start_us, s.end_us,
                   static_cast<unsigned long long>(s.allocs));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    SpanKind kind;
    std::uint32_t id;
    std::uint64_t allocs;
    double start_us;
  };

  Clock::time_point epoch_ = Clock::now();
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> counted_{};
  bool counting_ = false;
  std::uint64_t dropped_ = 0;
};

// Scoped span that is a no-op without a log.
class MaybeSpan {
 public:
  MaybeSpan(SpanLog* log, SpanKind kind, std::uint32_t parent,
            std::uint64_t op)
      : log_{log} {
    if (log_ != nullptr) id_ = log_->begin(kind, parent, op);
  }
  ~MaybeSpan() {
    if (log_ != nullptr) log_->end();
  }
  MaybeSpan(const MaybeSpan&) = delete;
  MaybeSpan& operator=(const MaybeSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_ = SpanLog::kNoSpan;
};

}  // namespace perfbench
