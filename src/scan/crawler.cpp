#include "scan/crawler.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "content/html.hpp"

namespace torsim::scan {
namespace {

/// Whether an HTTP GET against this protocol yields any text.
bool http_speaks(net::Protocol protocol) {
  switch (protocol) {
    case net::Protocol::kHttp:
    case net::Protocol::kHttps:
      return true;
    case net::Protocol::kSsh:
      return true;  // the SSH banner arrives before the protocol errors out
    default:
      return false;  // IRC/TorChat/raw sockets never answer an HTTP GET
  }
}

}  // namespace

CrawlReport Crawler::crawl(const population::Population& pop,
                           const ScanReport& scan) const {
  util::Rng rng(config_.seed);
  fault::FaultInjector injector(config_.faults);
  injector.set_metrics(config_.metrics);
  const int fault_attempts =
      injector.enabled() ? injector.retry().max_attempts : 1;
  const int revisits = std::max(1, config_.revisit_attempts);
  // Crawl probes must not re-draw the scan's fault decisions for the
  // same (onion, port): tag the key with a crawl epoch.
  constexpr std::uint64_t kCrawlEpoch = 0x10000;
  CrawlReport report;
  // A service's observations are consecutive, so its onion text is
  // rendered once per run of them, and only when a probe needs it.
  std::string onion;
  std::optional<population::ServiceId> onion_of;
  const auto onion_text = [&](population::ServiceId service)
      -> const std::string& {
    if (onion_of != service) {
      onion = pop.onion(service);
      onion_of = service;
    }
    return onion;
  };

  for (const PortObservation& obs : scan.observations) {
    // The paper excluded the 55080 botnet signature from the crawl.
    if (obs.port == net::kPortSkynet ||
        obs.result == net::ConnectResult::kAbnormalClose)
      continue;
    ++report.destinations;

    const population::Population::ServiceRef svc = pop.service(obs.service);
    if (!svc.alive_at_crawl()) continue;
    ++report.still_open;

    const net::PortService* ps = svc.profile().service_at(obs.port);
    if (ps == nullptr) continue;
    if (!http_speaks(ps->protocol)) continue;

    // Circuit-build success, re-visited up to `revisit_attempts` times.
    // With the default of 1 this is the exact legacy draw sequence.
    bool built = false;
    for (int visit = 1; visit <= revisits; ++visit) {
      if (rng.bernoulli(config_.connect_success)) {
        if (visit > 1) ++report.recovered_by_revisit;
        built = true;
        break;
      }
    }
    if (!built) {
      ++report.failed_timeout;
      continue;
    }

    // Injected connection faults on the established circuit.
    bool corrupted = false;
    if (injector.enabled()) {
      const std::uint64_t key =
          fault::FaultInjector::key_of(onion_text(obs.service));
      const std::uint64_t detail = kCrawlEpoch | obs.port;
      bool reached = false;
      bool dropped = false;
      for (int attempt = 1; attempt <= fault_attempts; ++attempt) {
        const fault::ConnectFault f = injector.connect_fault(key, detail,
                                                             attempt);
        if (f == fault::ConnectFault::kNone) {
          if (attempt > 1) ++report.recovered_by_revisit;
          reached = true;
          break;
        }
        if (f == fault::ConnectFault::kDrop) {
          report.failures.push_back({fault::FailureKind::kConnectDrop, key,
                                     detail, attempt});
          ++report.failed_closed;
          dropped = true;
          break;
        }
        if (f == fault::ConnectFault::kCorrupt) {
          report.failures.push_back({fault::FailureKind::kConnectCorrupt, key,
                                     detail, attempt});
          if (attempt > 1) ++report.recovered_by_revisit;
          ++report.corrupt_pages;
          corrupted = true;
          reached = true;
          break;
        }
        report.failures.push_back({fault::FailureKind::kConnectTimeout, key,
                                   detail, attempt});
      }
      if (!reached) {
        if (!dropped) {
          report.failures.push_back({fault::FailureKind::kRetriesExhausted,
                                     key, detail, fault_attempts});
          ++report.failed_timeout;
        }
        continue;
      }
    }
    ++report.connected;

    content::CrawlDestination dest;
    dest.onion = onion_text(obs.service);
    dest.port = obs.port;
    dest.connected = true;
    dest.protocol = ps->protocol;
    if (ps->protocol == net::Protocol::kSsh) {
      dest.text = ps->banner;
    } else if (ps->http) {
      // Tag-strip the HTML document down to text, as the paper's
      // text-extraction step did before classification.
      dest.text = content::strip_html(ps->http->body);
      dest.error_page = ps->http->error_page;
    }
    if (corrupted) {
      // The transfer died mid-stream: keep the first half of the text.
      dest.text.resize(dest.text.size() / 2);
    }
    report.pages.push_back(std::move(dest));
  }

  // The crawl is serial, but counters still summarise the finished
  // report so a re-run of the same scenario emits identical totals.
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("crawl.destinations").inc(report.destinations);
    m.counter("crawl.still_open").inc(report.still_open);
    m.counter("crawl.connected").inc(report.connected);
    m.counter("crawl.failed_timeout").inc(report.failed_timeout);
    m.counter("crawl.failed_closed").inc(report.failed_closed);
    m.counter("crawl.corrupt_pages").inc(report.corrupt_pages);
    m.counter("crawl.recovered_by_revisit")
        .inc(report.recovered_by_revisit);
    obs::Histogram& text_bytes = m.histogram(
        "crawl.page_text_bytes",
        {0, 128, 512, 2048, 8192, 32768, 131072});
    for (const content::CrawlDestination& page : report.pages)
      text_bytes.observe(static_cast<std::int64_t>(page.text.size()));
  }
  return report;
}

}  // namespace torsim::scan
