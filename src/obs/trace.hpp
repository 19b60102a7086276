// Sim-time span tracing: begin/end records against the simulation
// clock (util::Clock / sim::World ticks), exported as Chrome
// trace_event JSON (chrome://tracing, Perfetto, speedscope).
//
// Timestamps are *simulation* seconds, never wall-clock — a trace is a
// golden-testable artifact, byte-identical for every --threads value
// and every host. The recorder therefore accepts events only from
// serial sections (the commit loop after an ordered reduction, or the
// single-threaded sim engine); the internal mutex protects integrity
// if that contract is broken, but event order — and thus the exported
// bytes — is only guaranteed deterministic for serial recording.
// Wall-clock readings live in obs/stopwatch.hpp and never reach a
// trace.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace torsim::obs {

/// One completed span (Chrome "X" event) or instant (Chrome "i").
struct TraceEvent {
  std::string name;
  std::string category;
  util::UnixTime start = 0;       ///< sim seconds
  util::Seconds duration = 0;     ///< sim seconds; 0 + instant=true = "i"
  bool instant = false;
  /// Small structured payload rendered into the event's "args".
  std::vector<std::pair<std::string, std::int64_t>> args;
};

class TraceRecorder {
 public:
  /// Records a completed span [start, start + duration].
  void complete(std::string name, std::string category,
                util::UnixTime start, util::Seconds duration,
                std::vector<std::pair<std::string, std::int64_t>> args = {});

  /// Records an instantaneous event at `at`.
  void instant(std::string name, std::string category, util::UnixTime at,
               std::vector<std::pair<std::string, std::int64_t>> args = {});

  std::size_t size() const;

  /// Chrome trace_event JSON ("traceEvents" array). Events are emitted
  /// sorted by (start, record order) — a stable order independent of
  /// map/hash layout. The "ts" field is sim seconds scaled to
  /// microseconds (the unit trace viewers expect), relative to the
  /// earliest recorded event so viewers open at t=0.
  std::string chrome_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: records `name` against `clock` from construction to
/// destruction. Sim time must not move backwards in between (the
/// Clock enforces this). A null recorder disables the span.
class SpanGuard {
 public:
  SpanGuard(TraceRecorder* recorder, const util::Clock& clock,
            std::string name, std::string category = "sim")
      : recorder_(recorder),
        clock_(clock),
        name_(std::move(name)),
        category_(std::move(category)),
        start_(clock.now()) {}

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches a payload entry surfaced in the exported event's args.
  void arg(std::string key, std::int64_t value) {
    args_.emplace_back(std::move(key), value);
  }

  ~SpanGuard() {
    if (recorder_ == nullptr) return;
    recorder_->complete(std::move(name_), std::move(category_), start_,
                        clock_.now() - start_, std::move(args_));
  }

 private:
  TraceRecorder* recorder_;
  const util::Clock& clock_;
  std::string name_;
  std::string category_;
  util::UnixTime start_;
  std::vector<std::pair<std::string, std::int64_t>> args_;
};

}  // namespace torsim::obs

// Convenience macro for the common "span over this scope, timed by
// this sim clock" case. `recorder` may be null (span disabled).
#define TORSIM_OBS_CONCAT_INNER(a, b) a##b
#define TORSIM_OBS_CONCAT(a, b) TORSIM_OBS_CONCAT_INNER(a, b)
#define TRACE_SPAN(recorder, clock, name)               \
  ::torsim::obs::SpanGuard TORSIM_OBS_CONCAT(           \
      torsim_obs_span_, __LINE__)((recorder), (clock), (name))
