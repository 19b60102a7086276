// Serial-equivalence goldens for the parallel fan-out call sites: the
// FIG1 port scan, the FIG2 content pipeline, the TAB2 descriptor-ID
// dictionary, and the harvest metrics and trace must produce *byte-identical*
// output at threads = 1 (the legacy serial path) and threads = 4 —
// same seed, same CSV, same summary. This is the determinism contract
// of util::parallel (see docs/concurrency.md) checked end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "attack/harvester.hpp"
#include "content/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "util/csv.hpp"
#include "util/encoding.hpp"

namespace torsim {
namespace {

using population::Population;
using population::PopulationConfig;

const Population& test_population() {
  static const Population pop = [] {
    PopulationConfig config;
    config.seed = 77;
    config.scale = 0.05;
    return Population::generate(config);
  }();
  return pop;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes rows through CsvWriter and hands back the file's exact bytes,
/// so equality below really is byte-identity of the emitted artifact.
template <typename WriteRows>
std::string csv_bytes(const std::string& tag, const WriteRows& write_rows) {
  const std::string path = "/tmp/torsim_equiv_" + tag + ".csv";
  {
    util::CsvWriter csv(path);
    write_rows(csv);
  }
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

// ---------------------------------------------------------------------
// FIG1 — port scan
// ---------------------------------------------------------------------

std::string scan_summary_csv(const scan::ScanReport& report,
                             const std::string& tag) {
  return csv_bytes(tag, [&](util::CsvWriter& csv) {
    csv.typed_row("descriptors_available", report.descriptors_available);
    csv.typed_row("onions_scanned", report.onions_scanned);
    csv.typed_row("onions_with_open_ports", report.onions_with_open_ports);
    csv.typed_row("coverage", report.coverage);
    csv.typed_row("open_ports_total", report.total_open_ports());
    csv.typed_row("unique_ports", report.unique_ports());
    for (const auto& [label, count] : report.figure1(5))
      csv.typed_row(label, count);
    // Every single observation, in report order.
    for (const auto& obs : report.observations)
      csv.typed_row(obs.onion, obs.port, static_cast<int>(obs.result),
                    obs.scan_day, static_cast<int>(obs.protocol));
  });
}

scan::ScanReport run_scan(int threads) {
  scan::PortScanner scanner(scan::ScanConfig{.seed = 4242,
                                             .threads = threads});
  return scanner.scan(test_population());
}

TEST(SerialEquivalenceTest, Fig1PortScanByteIdentical) {
  const auto serial = run_scan(1);
  const auto parallel = run_scan(4);
  EXPECT_EQ(serial.descriptors_available, parallel.descriptors_available);
  EXPECT_EQ(serial.observations.size(), parallel.observations.size());
  EXPECT_EQ(scan_summary_csv(serial, "fig1_serial"),
            scan_summary_csv(parallel, "fig1_parallel"));
}

TEST(SerialEquivalenceTest, Fig1HardwareThreadsAlsoIdentical) {
  // threads <= 0 resolves to hardware_concurrency — whatever that is on
  // the host, output must not change.
  EXPECT_EQ(scan_summary_csv(run_scan(1), "fig1_s"),
            scan_summary_csv(run_scan(0), "fig1_hw"));
}

// ---------------------------------------------------------------------
// FIG1 under fault injection — the injector's decisions are pure
// functions of (plan seed, event key), so the equivalence contract must
// survive any FaultPlan, including the typed-failure log.
// ---------------------------------------------------------------------

std::string faulted_scan_csv(const scan::ScanReport& report,
                             const std::string& tag) {
  return csv_bytes(tag, [&](util::CsvWriter& csv) {
    csv.typed_row("coverage", report.coverage);
    csv.typed_row("open_ports_total", report.total_open_ports());
    csv.typed_row("probe_timeouts", report.probe_timeouts);
    csv.typed_row("probes_closed", report.probes_closed);
    csv.typed_row("probes_corrupt", report.probes_corrupt);
    csv.typed_row("probes_recovered", report.probes_recovered);
    for (const auto& obs : report.observations)
      csv.typed_row(obs.onion, obs.port, static_cast<int>(obs.result),
                    obs.scan_day, static_cast<int>(obs.protocol));
    // The full typed-failure log, in report order.
    for (const auto& record : report.failures)
      csv.typed_row(fault::to_string(record.kind), record.key, record.detail,
                    record.attempt);
  });
}

scan::ScanReport run_faulted_scan(int threads) {
  scan::ScanConfig config;
  config.seed = 4242;
  config.threads = threads;
  config.faults = fault::FaultPlan::profile("moderate");
  return scan::PortScanner(config).scan(test_population());
}

TEST(SerialEquivalenceTest, Fig1FaultInjectedScanByteIdentical) {
  const auto serial = run_faulted_scan(1);
  const auto parallel = run_faulted_scan(4);
  EXPECT_FALSE(serial.failures.empty());
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(faulted_scan_csv(serial, "fig1_fault_serial"),
            faulted_scan_csv(parallel, "fig1_fault_parallel"));
  EXPECT_EQ(faulted_scan_csv(run_faulted_scan(0), "fig1_fault_hw"),
            faulted_scan_csv(parallel, "fig1_fault_parallel2"));
}

// ---------------------------------------------------------------------
// FIG2 — content pipeline
// ---------------------------------------------------------------------

const scan::CrawlReport& test_crawl() {
  static const scan::CrawlReport report = [] {
    scan::Crawler crawler;
    return crawler.crawl(test_population(), run_scan(1));
  }();
  return report;
}

std::string pipeline_summary_csv(const content::PipelineResult& result,
                                 const std::string& tag) {
  return csv_bytes(tag, [&](util::CsvWriter& csv) {
    csv.typed_row("destinations_total", result.destinations_total);
    csv.typed_row("connected", result.connected);
    csv.typed_row("excluded_short", result.excluded_short);
    csv.typed_row("excluded_ssh_banner", result.excluded_ssh_banner);
    csv.typed_row("excluded_dup443", result.excluded_dup443);
    csv.typed_row("excluded_error", result.excluded_error);
    csv.typed_row("classifiable", result.classifiable);
    csv.typed_row("english", result.english);
    csv.typed_row("torhost_default", result.torhost_default);
    csv.typed_row("classified", result.classified);
    for (int i = 0; i < content::kNumLanguages; ++i)
      csv.typed_row("lang", i, result.language_counts[i]);
    for (int i = 0; i < content::kNumTopics; ++i)
      csv.typed_row("topic", i, result.topic_counts[i]);
    for (const auto& s : result.services)
      csv.typed_row(s.onion, s.port, static_cast<int>(s.language),
                    static_cast<int>(s.topic), s.topic_confidence);
  });
}

content::PipelineResult run_pipeline(int threads) {
  static const content::TopicClassifier classifier = [] {
    util::Rng rng(5);
    return content::TopicClassifier::make_default(rng, 25, 100);
  }();
  content::ContentPipeline pipeline(classifier,
                                    content::LanguageDetector::instance(),
                                    {.threads = threads});
  return pipeline.run(test_crawl().pages);
}

TEST(SerialEquivalenceTest, Fig2PipelineByteIdentical) {
  const auto serial = run_pipeline(1);
  const auto parallel = run_pipeline(4);
  EXPECT_EQ(serial.classified, parallel.classified);
  EXPECT_EQ(serial.services.size(), parallel.services.size());
  EXPECT_EQ(pipeline_summary_csv(serial, "fig2_serial"),
            pipeline_summary_csv(parallel, "fig2_parallel"));
}

// ---------------------------------------------------------------------
// TAB2 — descriptor-ID dictionary + resolution
// ---------------------------------------------------------------------

std::string resolution_summary_csv(const popularity::ResolutionReport& report,
                                   const std::string& tag) {
  return csv_bytes(tag, [&](util::CsvWriter& csv) {
    csv.typed_row("total_requests", report.total_requests);
    csv.typed_row("unique_descriptor_ids", report.unique_descriptor_ids);
    csv.typed_row("resolved_descriptor_ids", report.resolved_descriptor_ids);
    csv.typed_row("resolved_onions", report.resolved_onions);
    csv.typed_row("resolved_requests", report.resolved_requests);
    for (const auto& row : report.ranking)
      csv.typed_row(row.onion, row.label, row.requests, row.paper_rank);
  });
}

TEST(SerialEquivalenceTest, Tab2ResolutionByteIdentical) {
  popularity::RequestGenerator generator;
  const auto stream = generator.generate(test_population());

  popularity::DescriptorResolver serial(
      popularity::ResolverConfig{.threads = 1});
  serial.build_dictionary(test_population());
  popularity::DescriptorResolver parallel(
      popularity::ResolverConfig{.threads = 4});
  parallel.build_dictionary(test_population());

  EXPECT_EQ(serial.dictionary_size(), parallel.dictionary_size());
  EXPECT_EQ(
      resolution_summary_csv(serial.resolve(stream, test_population()),
                             "tab2_serial"),
      resolution_summary_csv(parallel.resolve(stream, test_population()),
                             "tab2_parallel"));
}

TEST(SerialEquivalenceTest, Tab2DictionaryEntriesIdentical) {
  // Same onions, duplicated to exercise the last-writer-wins insert
  // order the serial loop defines.
  std::vector<std::string> onions;
  for (const auto service : test_population().services()) {
    onions.emplace_back(service.onion());
    if (onions.size() >= 200) break;
  }
  onions.insert(onions.end(), onions.begin(), onions.begin() + 50);

  popularity::DescriptorResolver serial(
      popularity::ResolverConfig{.threads = 1});
  serial.build_dictionary_from_onions(onions);
  popularity::DescriptorResolver parallel(
      popularity::ResolverConfig{.threads = 4});
  parallel.build_dictionary_from_onions(onions);
  ASSERT_EQ(serial.dictionary_size(), parallel.dictionary_size());

  // Spot-check the join itself: every derived id resolves identically.
  popularity::DescriptorResolver probe(
      popularity::ResolverConfig{.threads = 1});
  probe.build_dictionary_from_onions(onions);
  EXPECT_EQ(probe.dictionary_size(), serial.dictionary_size());
}

// ---------------------------------------------------------------------
// Observability: the metrics registry and the sim-time trace are part
// of the determinism contract — the emitted bytes must not depend on
// the thread count (ISSUE 4 acceptance: byte-identical at 1/4/8).
// ---------------------------------------------------------------------

std::pair<std::string, std::string> scan_metrics_bytes(int threads) {
  obs::MetricsRegistry metrics;
  scan::PortScanner scanner(scan::ScanConfig{
      .seed = 4242, .threads = threads, .metrics = &metrics});
  scanner.scan(test_population());
  return {metrics.to_text(), metrics.to_json()};
}

TEST(SerialEquivalenceTest, ScanMetricsByteIdenticalAcrossThreads) {
  const auto serial = scan_metrics_bytes(1);
  EXPECT_FALSE(serial.first.empty());
  for (int threads : {4, 8}) {
    const auto parallel = scan_metrics_bytes(threads);
    EXPECT_EQ(serial.first, parallel.first) << threads << " threads";
    EXPECT_EQ(serial.second, parallel.second) << threads << " threads";
  }
}

std::pair<std::string, std::string> harvest_obs_bytes(int threads) {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  sim::WorldConfig wc;
  wc.seed = 99;
  wc.honest_relays = 120;
  wc.threads = threads;
  wc.metrics = &metrics;
  wc.trace = &trace;
  sim::World world(wc);
  for (int i = 0; i < 12; ++i) world.add_service();
  attack::ShadowHarvester harvester(attack::HarvesterConfig{
      .num_ips = 2, .relays_per_ip = 4, .metrics = &metrics,
      .trace = &trace});
  harvester.deploy(world);
  harvester.run(world, 6);
  return {metrics.to_json(), trace.chrome_json()};
}

TEST(SerialEquivalenceTest, HarvestMetricsAndTraceByteIdentical) {
  const auto serial = harvest_obs_bytes(1);
  EXPECT_NE(serial.second.find("step_hour"), std::string::npos);
  EXPECT_NE(serial.second.find("harvest.ripen"), std::string::npos);
  for (int threads : {4, 8}) {
    const auto parallel = harvest_obs_bytes(threads);
    EXPECT_EQ(serial.first, parallel.first) << threads << " threads";
    EXPECT_EQ(serial.second, parallel.second) << threads << " threads";
  }
}

}  // namespace
}  // namespace torsim
