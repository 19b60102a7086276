// The scenario interpreter: replays a ScenarioPack against sim::World,
// hour by hour, firing timed event blocks and sampling a deterministic
// timeline. The whole run is a pure function of (pack, fault override):
// the timeline CSV and the metrics snapshot are byte-identical for every
// --threads value — which is what
// makes the committed goldens under scenarios/golden/ possible (see
// docs/scenarios.md and tests/scenario_golden_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/pack.hpp"
#include "util/csv.hpp"
#include "util/time.hpp"

namespace torsim::scenario {

struct ScenarioRunConfig {
  /// Forwarded to sim::WorldConfig::threads, which the World no longer
  /// reads (its publish path has no fan-out). Outputs are identical for
  /// every value.
  int threads = 0;
  /// Overrides the pack's baseline `faults` directive when non-empty
  /// (the CLI's --faults knob; parsed by fault::FaultPlan::parse).
  /// Timed fault-window events still replace the plan for their window
  /// and restore this baseline afterwards.
  std::string fault_override;
  /// Optional sinks; must outlive the run. The metrics registry receives
  /// the world's "sim.*"/"hsdir.*" series plus the engine's "scenario.*"
  /// counters, all deterministic.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// One sampled timeline row. Totals are cumulative since the run start,
/// gauges are the state at the sampled hour.
struct TimelineRow {
  int hour = 0;  ///< elapsed hours since pack start
  util::UnixTime time = 0;
  int relays_total = 0;
  int relays_online = 0;
  int consensus_relays = 0;
  int hsdirs = 0;
  int services_total = 0;
  int services_online = 0;
  std::int64_t descriptors_stored = 0;
  std::int64_t migrated_total = 0;
  std::int64_t taken_down_total = 0;
  std::int64_t flash_ok_total = 0;
  std::int64_t flash_failed_total = 0;
  /// Event kinds fired at this hour, space-joined ("" = quiet hour).
  std::string events;
};

struct ScenarioRunReport {
  std::string pack_name;
  int horizon_hours = 0;
  int events_applied = 0;
  std::int64_t services_migrated = 0;
  std::int64_t services_taken_down = 0;
  std::int64_t services_added = 0;
  std::int64_t relays_injected = 0;
  std::int64_t flash_fetches_ok = 0;
  std::int64_t flash_fetches_failed = 0;
  int churn_storm_hours = 0;
  int authority_outage_hours = 0;
  int fault_window_hours = 0;
  std::vector<TimelineRow> timeline;

  /// Emits the timeline (header + one row per sample) — the golden CSV.
  void write_timeline(util::CsvWriter& csv) const;

  /// One-line human summary for CLI banners.
  std::string describe() const;
};

/// Replays `pack` from bootstrap to its horizon. Throws
/// std::invalid_argument on a bad fault override.
ScenarioRunReport run_pack(const ScenarioPack& pack,
                           const ScenarioRunConfig& config);

}  // namespace torsim::scenario
