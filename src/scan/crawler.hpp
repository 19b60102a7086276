// Sec. IV crawler: two months after the scan, connect to every non-55080
// destination found open and pull page text over HTTP(S). Non-HTTP
// protocols fail to "connect" (the paper could only connect to 6,579 of
// 7,114 using HTTP or HTTPS); port 22 yields an SSH banner, which the
// pipeline later excludes as <20 words.
#pragma once

#include <vector>

#include "content/pipeline.hpp"
#include "population/population.hpp"
#include "scan/port_scanner.hpp"
#include "util/rng.hpp"

namespace torsim::scan {

struct CrawlConfig {
  std::uint64_t seed = 1304;
  /// Probability a live destination answers the crawler (circuit
  /// build failures etc.).
  double connect_success = 0.975;
  /// Injected connection faults (default: none); see
  /// docs/fault-injection.md.
  fault::FaultPlan faults{};
  /// How many times a destination is visited before the crawler gives
  /// up on circuit-build failures (1 = single visit, legacy behaviour).
  int revisit_attempts = 1;
  /// Optional metrics sink ("crawl.*" counters, "fault.*" via the
  /// injector). Must outlive the crawl. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
};

struct CrawlReport {
  /// Destinations attempted (open non-55080 ports from the scan).
  std::int64_t destinations = 0;
  /// Destinations whose host was still alive ("7,114 ports were open").
  std::int64_t still_open = 0;
  /// Destinations that answered over HTTP(S) ("6,579").
  std::int64_t connected = 0;
  std::vector<content::CrawlDestination> pages;

  // -- Split failure accounting (timeouts vs closed) --------------------
  /// HTTP-capable destinations that never answered: circuit-build
  /// failures plus injected timeouts that exhausted their retries.
  std::int64_t failed_timeout = 0;
  /// Destinations that actively refused (injected connection drops).
  std::int64_t failed_closed = 0;
  /// Pages fetched through an injected corruption: connected, but the
  /// text arrived truncated/garbled.
  std::int64_t corrupt_pages = 0;
  /// Destinations that failed at least once but answered on a re-visit.
  std::int64_t recovered_by_revisit = 0;
  /// Typed record of every injected fault hit during the crawl.
  fault::FailureLog failures;
};

class Crawler {
 public:
  explicit Crawler(CrawlConfig config = {}) : config_(config) {}

  /// Crawls the scan's open destinations; `pop` must be the population
  /// `scan` was taken of.
  CrawlReport crawl(const population::Population& pop,
                    const ScanReport& scan) const;

 private:
  CrawlConfig config_;
};

}  // namespace torsim::scan
