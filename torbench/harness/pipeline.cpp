// paper-pipeline: the paper's measurement chain in one process. Set-up
// generates the population; each pass then runs scan -> certificates ->
// crawl -> classify -> requests -> dictionary -> resolve -> botnet ->
// trackdet on it, with every memo cache invalidated first so each pass
// pays what a fresh process pays.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "content/pipeline.hpp"
#include "crypto/digest.hpp"
#include "popularity/botnet_inference.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "population/population.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "trackdet/scenario.hpp"
#include "util/memo.hpp"

namespace torbench {
namespace {

using namespace torsim;

struct PassOutput {
  std::string digest;
  std::int64_t onions_scanned = 0;
  std::int64_t pages_fetched = 0;
  double classified_ratio = 0.0;
  double resolved_id_ratio = 0.0;
  std::uint64_t derivations = 0;
  double derivation_hit_ratio = 0.0;
};

/// One pass of the chain; returns its outputs and records the checks it
/// fails.
PassOutput run_pass(const population::Population& pop, const Args& args,
                    Tracer& tracer, Result& result) {
  const int threads = args.threads;
  Digest digest;
  PassOutput out;

  scan::ScanReport scan_report;
  {
    Tracer::Span span(tracer, "scan.scan");
    scan::PortScanner scanner(scan::ScanConfig{.seed = args.seed + 1,
                                               .threads = threads});
    scan_report = scanner.scan(pop);
  }
  scan::CertReport certs;
  {
    Tracer::Span span(tracer, "scan.cert");
    certs = scan::analyse_certificates(pop, scan_report);
  }
  scan::CrawlReport crawl;
  {
    Tracer::Span span(tracer, "scan.crawl");
    crawl = scan::Crawler(scan::CrawlConfig{.seed = args.seed + 4})
                .crawl(pop, scan_report);
  }
  util::Rng rng(args.seed + 2);
  std::optional<content::TopicClassifier> classifier;
  {
    Tracer::Span span(tracer, "content.train");
    classifier.emplace(content::TopicClassifier::make_default(rng));
  }
  content::PipelineResult content_report;
  {
    Tracer::Span span(tracer, "content.classify");
    content::ContentPipeline pipeline(*classifier,
                                      content::LanguageDetector::instance(),
                                      {.threads = threads});
    content_report = pipeline.run(crawl.pages);
  }
  popularity::RequestStream stream;
  {
    Tracer::Span span(tracer, "popularity.requests");
    stream = popularity::RequestGenerator({.seed = args.seed + 3})
                 .generate(pop);
  }
  popularity::DescriptorResolver resolver({.threads = threads});
  {
    Tracer::Span span(tracer, "popularity.dictionary");
    resolver.build_dictionary(pop);
  }
  popularity::ResolutionReport ranking;
  {
    Tracer::Span span(tracer, "popularity.resolve");
    ranking = resolver.resolve(stream, pop);
  }
  popularity::BotnetInferenceReport botnet;
  {
    Tracer::Span span(tracer, "popularity.botnet");
    botnet = popularity::infer_botnet_infrastructure(ranking, pop);
  }
  std::optional<trackdet::SilkroadStudy> study;
  {
    Tracer::Span span(tracer, "trackdet.study");
    study.emplace(trackdet::run_silkroad_study(args.seed));
  }

  // Fig. 1 and Sec. III certificates.
  digest.add(scan_report.descriptors_available);
  digest.add(scan_report.onions_with_open_ports);
  for (const auto& [port, count] : scan_report.open_ports.entries()) {
    digest.add(port);
    digest.add(count);
  }
  digest.add(certs.selfsigned_mismatch);
  digest.add(certs.public_dns_cn);
  // Table I funnel and Fig. 2 topic counts.
  digest.add(crawl.destinations);
  digest.add(crawl.connected);
  digest.add(static_cast<std::int64_t>(content_report.classifiable));
  digest.add(static_cast<std::int64_t>(content_report.classified));
  for (const std::size_t count : content_report.topic_counts)
    digest.add(static_cast<std::int64_t>(count));
  // Table II ranking and the Goldnet inference.
  digest.add(ranking.total_requests);
  digest.add(ranking.unique_descriptor_ids);
  digest.add(ranking.resolved_descriptor_ids);
  for (const auto& row : ranking.ranking) {
    digest.add(row.onion);
    digest.add(row.requests);
  }
  for (const auto& server : botnet.physical_servers) {
    digest.add(server.apache_uptime_seconds);
    for (const auto& onion : server.onions) digest.add(onion);
  }
  // Sec. VII tracking clusters.
  digest.add(study->report.snapshots);
  digest.add(study->report.full_takeover_periods);
  for (const auto& cluster : study->report.clusters) {
    digest.add(cluster.shared_prefix);
    digest.add(static_cast<std::int64_t>(cluster.servers.size()));
    digest.add(cluster.periods_covered);
    digest.add(cluster.full_takeover ? 1 : 0);
  }
  out.digest = digest.hex();

  if (scan_report.onions_scanned <= 0) result.fail("scan probed no onions");
  if (content_report.classified == 0) result.fail("no page was classified");
  if (ranking.ranking.empty()) result.fail("popularity ranking is empty");
  if (study->report.clusters.empty()) result.fail("trackdet found no cluster");

  out.onions_scanned = scan_report.onions_scanned;
  out.pages_fetched = crawl.connected;
  out.classified_ratio = ratio(static_cast<double>(content_report.classified),
                               static_cast<double>(content_report.classifiable));
  out.resolved_id_ratio =
      ratio(static_cast<double>(ranking.resolved_descriptor_ids),
            static_cast<double>(ranking.unique_descriptor_ids));
  const util::CacheStats derivations = crypto::derivation_cache_stats();
  out.derivations = derivations.lookups();
  out.derivation_hit_ratio = ratio(static_cast<double>(derivations.hits),
                                   static_cast<double>(derivations.lookups()));
  return out;
}

}  // namespace

int run_pipeline(const Args& args, Tracer& tracer, Result& result) {
  const bool trace = tracer.enabled();
  population::PopulationConfig config;
  config.seed = args.seed;
  config.scale = args.smoke ? 0.02 : 1.0;

  // Set-up, five times: the population every pass runs against.
  std::vector<double> setups;
  std::optional<population::Population> pop;
  for (int i = 0; i < 5; ++i) {
    pop.reset();
    const double t0 = now_s();
    Tracer::Span span(tracer, "population.generate");
    pop.emplace(population::Population::generate(config));
    setups.push_back(now_s() - t0);
  }
  if (config.scale == 1.0 &&
      static_cast<std::int64_t>(pop->size()) != population::paper().total_onions)
    result.fail("population has " + std::to_string(pop->size()) +
                " services, expected " +
                std::to_string(population::paper().total_onions));

  // Passes until the run time is spent; a traced run alternates traced
  // and untraced passes so the tracing overhead is measured in-run.
  const int min_passes = args.min_reps > 0 ? args.min_reps : trace ? 4 : 3;
  std::vector<double> walls, traced_walls, untraced_walls, cpus;
  std::vector<PassOutput> outputs;
  const double start = now_s();
  for (int pass = 0; pass < min_passes || now_s() - start < args.seconds;
       ++pass) {
    util::bump_memo_epoch();
    crypto::reset_derivation_cache_stats();
    const bool traced_pass = trace && pass % 2 == 0;
    tracer.set_enabled(traced_pass);
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    PassOutput out;
    {
      Tracer::Span span(tracer, "pipeline.pass");
      out = run_pass(*pop, args, tracer, result);
    }
    const double wall = now_s() - t0;
    walls.push_back(wall);
    (traced_pass ? traced_walls : untraced_walls).push_back(wall);
    cpus.push_back(cpu_s() - cpu0);
    ++result.attempted;
    if (args.inject_mismatch && pass == 1) out.digest += "-injected";
    if (!outputs.empty() && out.digest != outputs.front().digest)
      result.fail("pass " + std::to_string(pass) + " digest " + out.digest +
                  " differs from pass 0 digest " + outputs.front().digest);
    else
      result.digest(out.digest);
    outputs.push_back(out);
  }
  tracer.set_enabled(trace);

  const double job = median(trace ? untraced_walls : walls);
  result.end_to_end("setup_s", median(setups), "s");
  result.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  result.end_to_end("job_p50_ms", job * 1e3, "ms");
  char line[160];
  std::snprintf(line, sizeof line,
                "paper-pipeline: %zu services, %zu passes, pipeline_s %.3f",
                pop->size(), walls.size(), job);
  result.note(line);
  result.note(samples_line("paper-pipeline set-ups (s)", setups));
  result.note(samples_line("paper-pipeline passes (s)", walls));

  const PassOutput& last = outputs.back();
  const double passes = static_cast<double>(trace ? traced_walls.size() : 1);
  const auto self = tracer.self_seconds();
  const auto per_pass = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / passes;
  };
  result.layer("population.generate_s", median(setups), "s");
  result.layer("population.services", static_cast<double>(pop->size()),
               "count");
  result.layer("scan.scan_s", per_pass("scan.scan"), "s");
  result.layer("scan.crawl_s", per_pass("scan.crawl"), "s");
  result.layer("scan.cert_s", per_pass("scan.cert"), "s");
  result.layer("scan.onions_scanned", static_cast<double>(last.onions_scanned),
               "count");
  result.layer("scan.pages_fetched", static_cast<double>(last.pages_fetched),
               "count");
  result.layer("content.train_s", per_pass("content.train"), "s");
  result.layer("content.classify_s", per_pass("content.classify"), "s");
  result.layer("content.classified_ratio", last.classified_ratio, "ratio");
  result.layer("popularity.requests_s", per_pass("popularity.requests"), "s");
  result.layer("popularity.dictionary_s", per_pass("popularity.dictionary"),
               "s");
  result.layer("popularity.resolve_s", per_pass("popularity.resolve"), "s");
  result.layer("popularity.botnet_s", per_pass("popularity.botnet"), "s");
  result.layer("popularity.resolved_id_ratio", last.resolved_id_ratio,
               "ratio");
  result.layer("crypto.derivations", static_cast<double>(last.derivations),
               "count");
  result.layer("crypto.derivation_hit_ratio", last.derivation_hit_ratio,
               "ratio");
  result.layer("trackdet.study_s", per_pass("trackdet.study"), "s");
  result.layer("bench.unattributed_s", per_pass("pipeline.pass"), "s");
  const double cpu = median(cpus);
  result.layer("cpu_s", cpu, "s");
  result.layer("parallel_efficiency",
               job > 0 ? cpu / (job * args.threads) : 0.0, "ratio");
  result.layer("trace.overhead_ratio",
               trace ? median(traced_walls) / median(untraced_walls) - 1.0
                     : 0.0,
               "ratio");
  return 0;
}

}  // namespace torbench
