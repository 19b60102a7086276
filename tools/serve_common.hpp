// Shared by the torsim CLI's serve/load/query commands and torbench's
// serve-open harness: one place builds the WorldSession config and
// renders result CSVs, so the daemon-served answers and the batch-CLI
// answers are byte-comparable by construction (the serve equivalence
// gate; docs/serving.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/proto.hpp"
#include "serve/session.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace torsim::tools {

/// The knobs that shape the resident world; `torsim serve` and `torsim
/// query` must agree on every one of them for the equivalence gate to
/// hold.
struct ServeParams {
  double scale = 0.1;
  std::uint64_t seed = 20130204;
  int services = 16;
  int warmup_hours = 6;
  int threads = 0;
  fault::FaultPlan faults{};
};

inline serve::SessionConfig make_session_config(
    const ServeParams& params, obs::MetricsRegistry* metrics) {
  serve::SessionConfig config;
  config.world.seed = params.seed;
  config.world.honest_relays =
      std::max(50, static_cast<int>(3000 * params.scale));
  config.world.threads = params.threads;
  config.world.faults = params.faults;
  config.world.metrics = metrics;
  config.services = params.services;
  config.warmup_hours = params.warmup_hours;
  config.threads = params.threads;
  config.metrics = metrics;
  return config;
}

/// One row per request, ordered by sequence; the golden artifact both
/// the daemon path and the batch-CLI path must render byte-identically.
inline void write_result_csv(util::CsvWriter& csv,
                             const std::vector<serve::Request>& requests,
                             const std::vector<serve::Response>& responses) {
  csv.row({"seq", "id", "kind", "status", "data"});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::Response& response = responses[i];
    const std::string payload =
        response.status == serve::Status::kError
            ? response.error
            : util::join(response.data, "|");
    csv.typed_row(i, requests[i].id,
                  std::string(serve::query_kind_name(requests[i].kind)),
                  std::string(serve::status_name(response.status)), payload);
  }
}

}  // namespace torsim::tools
