// Closed/open-loop load generator against a running `torsim serve`: N worker
// threads, each owning one connection, replaying a deterministic
// request mix. Latency histograms flow through obs::MetricsRegistry as
// *telemetry* (wall-clock dependent, never golden); the matched
// (request, response) pairs come back ordered by request sequence, so
// the CSV a caller renders from them is byte-identical to the batch
// CLI executing the same mix — the serve equivalence gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/proto.hpp"

namespace torsim::serve {

struct LoadConfig {
  std::string socket_path;
  /// Concurrent worker connections; request sequence i is owned by
  /// worker i % clients.
  int clients = 4;
  /// Total requests when generating the default mix (ignored when
  /// `script` is non-empty).
  int requests = 100;
  /// false = closed loop (send, await, send); true = open loop
  /// (pipeline every owned request, then collect).
  bool open_loop = false;
  /// Seed of the generated mix.
  std::uint64_t seed = 1;
  /// Service count the generated ranges stay inside (must match the
  /// daemon's --services for all-ok runs).
  std::uint64_t services = 16;
  /// Append a final shutdown request after all workers finish.
  bool shutdown = false;
  /// Explicit request list (from a script file); overrides generation.
  std::vector<Request> script;
  /// Per-request budget for retry-after/reconnect cycles before the
  /// run fails.
  int max_retries = 200;
  /// Receive timeout per response.
  int timeout_millis = 10000;
  /// Optional latency/robustness telemetry sink ("load.*"). Must
  /// outlive the run.
  obs::MetricsRegistry* telemetry = nullptr;
};

struct LoadResult {
  /// The replayed mix, in sequence order (including the trailing
  /// shutdown request when configured).
  std::vector<Request> requests;
  /// Final response for each request, same order. Retry-after answers
  /// are consumed by the retry loop and never appear here.
  std::vector<Response> responses;
  std::int64_t retries = 0;
  std::int64_t reconnects = 0;
};

/// The deterministic default read-only mix shared by `torsim load` and
/// `torsim query`: request i is a pure function of (seed, i, services).
/// ids are 1-based sequence numbers; client is i % clients.
std::vector<Request> default_request_mix(std::uint64_t seed, int requests,
                                         std::uint64_t services, int clients);

/// Bucket edges (microseconds) of the "load.latency_us" telemetry
/// histogram; callers re-registering the name must pass these.
const std::vector<std::int64_t>& latency_edges_us();

/// Runs the load; throws std::runtime_error when a request exhausts
/// its retry budget or a connection cannot be (re)established.
LoadResult run_load(const LoadConfig& config);

}  // namespace torsim::serve
