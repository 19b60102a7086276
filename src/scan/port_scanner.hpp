// Sec. III: multi-day port scan of the harvested onion list.
//
// The paper scanned different port ranges on different days between
// 14–21 Feb 2013; churn (services going offline between days) and
// persistent timeouts capped coverage at 87% of ports. We reproduce the
// same process: ports are partitioned over scan days, a service answers
// a probe only if its descriptor is still published and the host is up
// on that day, and the Skynet port-55080 abnormal close is counted as an
// open port exactly as the paper did.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "population/population.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace torsim::scan {

struct ScanConfig {
  std::uint64_t seed = 1302;
  /// Number of scan days (the paper: 14–21 Feb = 8 days).
  int scan_days = 8;
  /// Probability that a probe to an up service still times out
  /// (overloaded circuits — "persistently getting timeout errors").
  double probe_timeout_probability = 0.02;
  /// Worker threads for the per-service sweep fan-out; <= 0 = one per
  /// hardware thread, 1 = legacy serial path. Output is bit-identical
  /// for every value (see docs/concurrency.md).
  int threads = 0;
  /// Injected connection faults (default: none). Probes hit by a
  /// retryable fault are re-tried under the plan's RetryPolicy; see
  /// docs/fault-injection.md.
  fault::FaultPlan faults{};
  /// Optional metrics sink ("scan.*" counters, "fault.*" via the
  /// injector). Must outlive the scan. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One per-destination observation.
struct PortObservation {
  /// The observed service in the scanned population; its onion text is
  /// pop.onion(service), rendered only where it is printed.
  population::ServiceId service = 0;
  std::uint16_t port = 0;
  net::ConnectResult result = net::ConnectResult::kClosed;
  int scan_day = 0;
  net::Protocol protocol = net::Protocol::kRawTcp;
};

struct ScanReport {
  /// Onion addresses whose descriptor could be fetched in the window.
  std::int64_t descriptors_available = 0;
  /// Onions probed (== descriptors_available).
  std::int64_t onions_scanned = 0;
  /// Fig. 1 histogram: open ports (abnormal-close counted as open).
  stats::Histogram<std::uint16_t> open_ports;
  /// All open/abnormal observations (input to the crawler).
  std::vector<PortObservation> observations;
  /// Onions with at least one open port.
  std::int64_t onions_with_open_ports = 0;
  /// Fraction of truly-open ports the scan detected.
  double coverage = 0.0;

  // -- Split probe-failure accounting (timeouts vs closed, previously
  //    conflated into silent misses) ------------------------------------
  /// Ports whose probe timed out: host down on the scan day, overloaded
  /// circuit, or an injected timeout that exhausted its retries.
  stats::Histogram<std::uint16_t> timeout_ports;
  /// Ports that answered with a clean close (including injected drops).
  stats::Histogram<std::uint16_t> closed_ports;
  std::int64_t probe_timeouts = 0;   ///< == timeout_ports.total()
  std::int64_t probes_closed = 0;    ///< == closed_ports.total()
  /// Probes whose reply came back garbled by an injected corruption
  /// (still counted open — the TCP handshake completed).
  std::int64_t probes_corrupt = 0;
  /// Probes that failed at least once but succeeded on a retry.
  std::int64_t probes_recovered = 0;
  /// Typed record of every injected fault hit during the sweep, in
  /// population order (deterministic across thread counts).
  fault::FailureLog failures;

  std::int64_t total_open_ports() const { return open_ports.total(); }
  std::int64_t unique_ports() const {
    return static_cast<std::int64_t>(open_ports.distinct());
  }

  /// Fig. 1 rendering: ports with >= `threshold` hits, descending, plus
  /// an "other" bucket (the paper used threshold 50 at full scale).
  std::vector<std::pair<std::string, std::int64_t>> figure1(
      std::int64_t threshold) const;
};

class PortScanner {
 public:
  explicit PortScanner(ScanConfig config = {}) : config_(config) {}

  /// Scans every published service in the population.
  ScanReport scan(const population::Population& pop) const;

 private:
  ScanConfig config_;
};

}  // namespace torsim::scan
