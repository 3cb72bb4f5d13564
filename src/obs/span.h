// RAII wall-clock span: observes elapsed seconds into a histogram on
// destruction. Costs two steady_clock reads when the registry is enabled and
// nothing (not even a clock read) when it is disabled at construction.
//
// The named constructor additionally mirrors the span onto the process-wide
// obs::Tracer (the "phases" lane of the trace timeline, DESIGN.md §15)
// when one is installed via set_global_tracer. With no tracer installed the
// extra cost is one relaxed atomic load — the documented zero-cost disabled
// path is preserved.
#pragma once

#include <chrono>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace elmo::obs {

class Span {
 public:
  Span(MetricsRegistry& reg, MetricsRegistry::Id hist) noexcept
      : reg_{&reg}, hist_{hist}, armed_{reg.enabled()} {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }

  // Tracer-emitting variant: `name` must be a string literal. The trace
  // span joins `parent`'s trace when given, else starts a fresh one.
  Span(MetricsRegistry& reg, MetricsRegistry::Id hist, const char* name,
       TraceContext parent = {}) noexcept
      : reg_{&reg}, hist_{hist}, armed_{reg.enabled()} {
    if (Tracer* t = global_tracer(); t != nullptr) {
      tracer_ = t;
      tctx_ = t->begin_span(name, TraceLane::kPhase, parent);
    }
    if (armed_) start_ = std::chrono::steady_clock::now();
  }

  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early; subsequent destruction is a no-op.
  double finish() noexcept {
    if (tracer_ != nullptr) {
      tracer_->end_span(tctx_);
      tracer_ = nullptr;
    }
    if (!armed_) return 0;
    armed_ = false;
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    reg_->observe(hist_, elapsed);
    return elapsed;
  }

 private:
  MetricsRegistry* reg_;
  MetricsRegistry::Id hist_;
  bool armed_;
  Tracer* tracer_ = nullptr;
  TraceContext tctx_{};
  std::chrono::steady_clock::time_point start_{};
};

// Arms a phase span whenever anyone is listening: the global registry (for
// the histogram) or the global tracer (for the timeline). With both off
// this is two relaxed loads and no clock read.
inline void arm_phase_span(std::optional<Span>& span, const char* name,
                           MetricsRegistry::Id hist,
                           TraceContext parent = {}) noexcept {
  auto& reg = MetricsRegistry::global();
  if (reg.enabled() || global_tracer() != nullptr) {
    span.emplace(reg, hist, name, parent);
  }
}

}  // namespace elmo::obs
