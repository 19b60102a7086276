// The paper's measurement chain (PAPER.md §1, steps 2–4), one function
// per stage, named after the spans that time it in torbench's harness:
//   population → scan → cert → crawl → classify → resolve → botnet
// This is the only place that turns the CLI's inputs into component
// configs, so `torsim scan`, `torsim report` and torbench agree for
// every seed. The seed schedule, from Config::seed = N:
//
//   population  N      PopulationConfig::seed
//   scan        N + 1  ScanConfig::seed
//   classify    N + 2  the Rng that trains the topic classifier
//   resolve     N + 3  RequestGeneratorConfig::seed
//   crawl       N + 4  CrawlConfig::seed
//
// Under an enabled fault plan the crawler re-visits each destination up
// to the plan's RetryPolicy::max_attempts; otherwise it visits once.
// Every output is byte-identical for every Config::threads.
#pragma once

#include <cstdint>

#include "content/pipeline.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "popularity/botnet_inference.hpp"
#include "popularity/resolver.hpp"
#include "population/population.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"

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

/// Table II: generates the requests (span popularity.requests), builds
/// the descriptor-id dictionary (popularity.dictionary), then resolves
/// and ranks the requests (popularity.resolve).
popularity::ResolutionReport resolve(const Config& config,
                                     const population::Population& pop);

/// The Goldnet inference.
popularity::BotnetInferenceReport botnet(
    const popularity::ResolutionReport& ranking,
    const population::Population& pop);

}  // namespace torsim::pipeline
