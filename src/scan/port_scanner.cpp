#include "scan/port_scanner.hpp"

#include "scan/schedule.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <string>

namespace torsim::scan {

namespace {

/// Fig. 1 bar label for a port: its digits, annotated for the ports
/// the paper names.
std::string port_label(std::uint16_t port) {
  std::string label = std::to_string(port);
  switch (port) {
    case net::kPortSkynet: label += "-Skynet"; break;
    case net::kPortHttp: label += "-http"; break;
    case net::kPortHttps: label += "-https"; break;
    case net::kPortSsh: label += "-ssh"; break;
    case net::kPortTorChat: label += "-TorChat"; break;
    case net::kPortIrc: label += "-irc"; break;
    default: break;
  }
  return label;
}

}  // namespace

std::vector<std::pair<std::string, std::int64_t>> ScanReport::figure1(
    std::int64_t threshold) const {
  auto [kept, other] = open_ports.with_other_bucket(threshold);
  std::vector<std::pair<std::string, std::int64_t>> rows;
  rows.reserve(kept.size() + 1);
  for (const auto& [port, count] : kept)
    rows.emplace_back(port_label(port), count);
  if (other > 0) rows.emplace_back("other", other);
  return rows;
}

namespace {

/// Per-service sweep result, computed independently per task and merged
/// in service order (the ordered reduction).
struct ServiceSweep {
  bool scanned = false;
  std::int64_t true_open = 0;
  std::vector<PortObservation> observations;
  std::vector<std::uint16_t> timeout_ports;
  std::vector<std::uint16_t> closed_ports;
  std::int64_t corrupt = 0;
  std::int64_t recovered = 0;
  fault::FailureLog failures;
};

}  // namespace

ScanReport PortScanner::scan(const population::Population& pop) const {
  // Each service draws from its own child stream keyed by its index in
  // the population, so the draws are identical no matter which thread
  // sweeps it or in what order. The fault injector never touches these
  // streams: its decisions are pure functions of (plan seed, probe key),
  // so raising a fault rate cannot reshuffle the base scenario.
  const util::Rng base(config_.seed);
  const ScanSchedule schedule = ScanSchedule::contiguous(config_.scan_days);
  fault::FaultInjector injector(config_.faults);
  injector.set_metrics(config_.metrics);
  const int max_attempts =
      injector.enabled() ? injector.retry().max_attempts : 1;

  const auto sweep_one = [&](std::size_t index) {
    ServiceSweep out;
    const population::Population::ServiceRef svc =
        pop.service(static_cast<population::ServiceId>(index));
    if (!svc.published_at_scan()) return out;
    out.scanned = true;
    util::Rng rng = base.child(index);
    const std::uint64_t onion_key =
        injector.enabled() ? fault::FaultInjector::key_of(svc.onion()) : 0;

    // Which scan days is this host up on? Drawn once per host so a host
    // that died mid-window misses every range scanned after its death.
    std::vector<bool> up(static_cast<std::size_t>(config_.scan_days));
    for (int d = 0; d < config_.scan_days; ++d)
      up[static_cast<std::size_t>(d)] =
          rng.bernoulli(svc.daily_availability());

    for (std::uint16_t port : svc.profile().scannable_ports()) {
      ++out.true_open;
      // Port ranges are partitioned across days: every host's port p is
      // probed on the same day, as in a real range sweep.
      const int day = schedule.day_for_port(port);
      if (!up[static_cast<std::size_t>(day)]) {
        out.timeout_ports.push_back(port);  // host down == probe timeout
        continue;
      }
      if (rng.bernoulli(config_.probe_timeout_probability)) {
        out.timeout_ports.push_back(port);  // overloaded circuit
        continue;
      }

      // Injected connection faults, bounded retries per the plan.
      bool probe_alive = true;
      bool corrupted = false;
      if (injector.enabled()) {
        bool timed_out = true;
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
          const fault::ConnectFault f =
              injector.connect_fault(onion_key, port, attempt);
          if (f == fault::ConnectFault::kNone) {
            timed_out = false;
            if (attempt > 1) ++out.recovered;
            break;
          }
          if (f == fault::ConnectFault::kDrop) {
            // A RST is definitive: the scanner records closed and moves
            // on instead of retrying.
            out.failures.push_back({fault::FailureKind::kConnectDrop,
                                    onion_key, port, attempt});
            out.closed_ports.push_back(port);
            timed_out = false;
            probe_alive = false;
            break;
          }
          if (f == fault::ConnectFault::kCorrupt) {
            out.failures.push_back({fault::FailureKind::kConnectCorrupt,
                                    onion_key, port, attempt});
            if (attempt > 1) ++out.recovered;
            ++out.corrupt;
            corrupted = true;
            timed_out = false;
            break;
          }
          out.failures.push_back({fault::FailureKind::kConnectTimeout,
                                  onion_key, port, attempt});
        }
        if (timed_out) {
          out.failures.push_back({fault::FailureKind::kRetriesExhausted,
                                  onion_key, port, max_attempts});
          out.timeout_ports.push_back(port);
          probe_alive = false;
        }
      }
      if (!probe_alive) continue;

      const net::ConnectResult result = svc.profile().connect(port);
      if (result != net::ConnectResult::kOpen &&
          result != net::ConnectResult::kAbnormalClose) {
        out.closed_ports.push_back(port);
        continue;
      }
      PortObservation obs;
      obs.service = static_cast<population::ServiceId>(index);
      obs.port = port;
      obs.result = result;
      obs.scan_day = day;
      if (const net::PortService* ps = svc.profile().service_at(port))
        obs.protocol = ps->protocol;
      else
        obs.protocol = net::Protocol::kSkynetControl;  // abnormal close
      if (corrupted && obs.protocol != net::Protocol::kSkynetControl)
        obs.protocol = net::Protocol::kRawTcp;  // banner was garbage
      out.observations.push_back(std::move(obs));
    }
    return out;
  };

  std::vector<ServiceSweep> sweeps =
      util::parallel_map(pop.size(), config_.threads, sweep_one);

  // Ordered reduction: commit per-service results in population order.
  ScanReport report;
  std::int64_t true_open_total = 0;
  for (ServiceSweep& sweep : sweeps) {
    if (!sweep.scanned) continue;
    ++report.descriptors_available;
    ++report.onions_scanned;
    true_open_total += sweep.true_open;
    if (!sweep.observations.empty()) ++report.onions_with_open_ports;
    for (PortObservation& obs : sweep.observations) {
      report.open_ports.add(obs.port);
      report.observations.push_back(std::move(obs));
    }
    for (std::uint16_t port : sweep.timeout_ports) {
      report.timeout_ports.add(port);
      ++report.probe_timeouts;
    }
    for (std::uint16_t port : sweep.closed_ports) {
      report.closed_ports.add(port);
      ++report.probes_closed;
    }
    report.probes_corrupt += sweep.corrupt;
    report.probes_recovered += sweep.recovered;
    report.failures.insert(report.failures.end(), sweep.failures.begin(),
                           sweep.failures.end());
  }

  report.coverage =
      true_open_total > 0
          ? static_cast<double>(report.open_ports.total()) /
                static_cast<double>(true_open_total)
          : 0.0;

  // Serial section: counters summarise the already-merged report, so
  // the totals are independent of config_.threads by construction.
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("scan.onions_scanned").inc(report.onions_scanned);
    m.counter("scan.onions_with_open_ports")
        .inc(report.onions_with_open_ports);
    m.counter("scan.ports_open").inc(report.open_ports.total());
    m.counter("scan.ports_timeout").inc(report.probe_timeouts);
    m.counter("scan.ports_closed").inc(report.probes_closed);
    m.counter("scan.probes_corrupt").inc(report.probes_corrupt);
    m.counter("scan.probes_recovered").inc(report.probes_recovered);
    obs::Histogram& per_service = m.histogram(
        "scan.open_ports_per_onion", {0, 1, 2, 3, 5, 10, 20, 50});
    for (const ServiceSweep& sweep : sweeps) {
      if (!sweep.scanned) continue;
      per_service.observe(
          static_cast<std::int64_t>(sweep.observations.size()));
    }
  }
  return report;
}

}  // namespace torsim::scan
