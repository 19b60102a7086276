#include "pipeline/pipeline.hpp"

#include "popularity/request_generator.hpp"
#include "util/rng.hpp"

namespace torsim::pipeline {

population::Population population(const Config& config) {
  return population::Population::generate(
      {.seed = config.seed, .scale = config.scale});
}

scan::ScanReport scan(const Config& config,
                      const population::Population& pop) {
  return scan::PortScanner({.seed = config.seed + 1,
                            .threads = config.threads,
                            .faults = config.faults,
                            .metrics = config.metrics})
      .scan(pop);
}

scan::CertReport cert(const population::Population& pop,
                      const scan::ScanReport& scan_report) {
  return scan::analyse_certificates(pop, scan_report);
}

scan::CrawlReport crawl(const Config& config,
                        const population::Population& pop,
                        const scan::ScanReport& scan_report) {
  const int visits =
      config.faults.enabled() ? config.faults.retry.max_attempts : 1;
  return scan::Crawler({.seed = config.seed + 4,
                        .faults = config.faults,
                        .revisit_attempts = visits,
                        .metrics = config.metrics})
      .crawl(pop, scan_report);
}

content::PipelineResult classify(const Config& config,
                                 const scan::CrawlReport& crawl_report) {
  util::Rng rng(config.seed + 2);
  const auto classifier = content::TopicClassifier::make_default(rng);
  return content::ContentPipeline(classifier,
                                  content::LanguageDetector::instance(),
                                  {.threads = config.threads})
      .run(crawl_report.pages);
}

popularity::ResolutionReport resolve(const Config& config,
                                     const population::Population& pop) {
  const auto stream = popularity::RequestGenerator(
                          {.seed = config.seed + 3, .metrics = config.metrics})
                          .generate(pop);
  popularity::DescriptorResolver resolver(
      {.threads = config.threads, .metrics = config.metrics});
  resolver.build_dictionary(pop);
  return resolver.resolve(stream, pop);
}

popularity::BotnetInferenceReport botnet(
    const popularity::ResolutionReport& ranking,
    const population::Population& pop) {
  return popularity::infer_botnet_infrastructure(ranking, pop);
}

}  // namespace torsim::pipeline
