// Wall-clock and peak-RSS readings for *non-golden* perf telemetry
// (load-generator latencies, the population RSS budget test).
//
// This module is the torsim tree's single sanctioned wall-clock
// reader: obs/stopwatch.cpp is the only file where detlint permits
// std::chrono::steady_clock (the allowlist is path-scoped — a chrono
// call anywhere else still fails the lint gate, see
// docs/static-analysis.md). Nothing here may flow into a golden,
// a CSV, a metrics registry, or a trace: wall time is ambient state.
// Sim-time observability lives in obs/metrics.hpp and obs/trace.hpp.
#pragma once

#include <cstdint>

namespace torsim::obs {

/// Monotonic wall-clock seconds since an arbitrary epoch.
double wall_clock_seconds();

/// The process's peak resident set size in bytes (getrusage), or 0
/// when the platform does not report it.
std::int64_t peak_rss_bytes();

}  // namespace torsim::obs
