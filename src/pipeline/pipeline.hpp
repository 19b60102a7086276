// The paper's measurement chain (PAPER.md §1, steps 2–4), one function
// per stage, named after the spans that time it in torbench's harness:
//   population → scan → cert → crawl → classify → resolve → botnet
// and the three attack studies after it: geomap (Fig. 3), deanon
// (Sec. VI) and trackdet (Sec. VII).
// This is the only place that turns the CLI's inputs into component
// configs, so `torsim scan`, `torsim report` and torbench agree for
// every seed. The seed schedule, from Config::seed = N:
//
//   population  N      PopulationConfig::seed
//   scan        N + 1  ScanConfig::seed
//   classify    N + 2  the Rng that trains the topic classifier
//   resolve     N + 3  RequestGeneratorConfig::seed
//   crawl       N + 4  CrawlConfig::seed
//   geomap      N + 5  its World; +1 the clients' addresses, +2 the cell
//                      traces, +100 + i client i's path choices
//   deanon      N + 6  the signature-fidelity traces; the sweep point
//                      with g attacker guards wires geomap's world from
//                      N + 6 + g
//   trackdet    N      trackdet::run_silkroad_study(N), as torbench's
//                      harness calls it
//
// The attack studies build fixed-size worlds and ignore Config::scale.
// Under an enabled fault plan the crawler re-visits each destination up
// to the plan's RetryPolicy::max_attempts; otherwise it visits once.
// Every output is byte-identical for every Config::threads.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/deanonymizer.hpp"
#include "content/pipeline.hpp"
#include "fault/plan.hpp"
#include "geo/client_map.hpp"
#include "obs/metrics.hpp"
#include "popularity/botnet_inference.hpp"
#include "popularity/resolver.hpp"
#include "population/population.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "trackdet/scenario.hpp"

namespace torsim::pipeline {

struct Config {
  std::uint64_t seed = 20130204;
  double scale = 0.1;  ///< 1.0 = the paper's 39,824 services
  int threads = 0;     ///< fan-out workers; <= 0 = one per hardware thread
  fault::FaultPlan faults{};                ///< scan and crawl faults
  obs::MetricsRegistry* metrics = nullptr;  ///< must outlive every stage
};

population::Population population(const Config& config);

/// Fig. 1.
scan::ScanReport scan(const Config& config, const population::Population& pop);

/// Sec. III certificates.
scan::CertReport cert(const population::Population& pop,
                      const scan::ScanReport& scan_report);

/// Table I.
scan::CrawlReport crawl(const Config& config,
                        const population::Population& pop,
                        const scan::ScanReport& scan_report);

/// Fig. 2: trains the topic classifier (span content.train), then
/// classifies the crawled pages (content.classify).
content::PipelineResult classify(const Config& config,
                                 const scan::CrawlReport& crawl_report);

/// Table II: generates the requests (span popularity.requests), records
/// the harvested onions (popularity.dictionary), then joins their
/// derived descriptor ids against the requests and ranks them
/// (popularity.resolve).
popularity::ResolutionReport resolve(const Config& config,
                                     const population::Population& pop);

/// The Goldnet inference.
popularity::BotnetInferenceReport botnet(
    const popularity::ResolutionReport& ranking,
    const population::Population& pop);

/// Fig. 3: the Goldnet client map. In a 300-relay world the Sec. VI
/// attacker runs 40 guards and grinds HSDirs onto one service's
/// descriptor ids; 400 clients fetch its descriptor 3 times each, and
/// the recovered addresses are aggregated per country.
struct GeoMap {
  int clients = 0;
  attack::DeanonymizationReport attack;
  geo::ClientMap map;
};
GeoMap geomap(const Config& config);

/// Sec. VI: per-fetch deanonymisation against the attacker's share of
/// guard bandwidth, for {0, 5, 10, 20, 40, 80} attacker guards with 150
/// clients fetching twice each; plus the traffic signature's fidelity
/// over 20,000 background traces.
struct Deanon {
  struct Point {
    int attacker_guards = 0;
    double guard_share = 0.0;        ///< of guard *bandwidth*
    double signed_share = 0.0;       ///< fetches an attacker HSDir served
    double success_per_fetch = 0.0;  ///< deanonymised / fetches
  };
  std::vector<Point> sweep;
  int signature_trials = 0;
  int detected = 0;         ///< signed traces the detector found
  int false_positives = 0;  ///< clean traces it flagged
};
Deanon deanon(const Config& config);

/// Sec. VII: the Silk Road tracking study.
trackdet::SilkroadStudy trackdet(const Config& config);

}  // namespace torsim::pipeline
