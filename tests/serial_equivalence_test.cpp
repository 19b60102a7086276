// Serial-equivalence goldens for the parallel fan-out call sites: the
// FIG1 port scan, the FIG2 content pipeline, the TAB2 descriptor-ID
// join, and the harvest metrics and trace must produce *byte-identical*
// output at threads = 1 (the legacy serial path) and threads = 4 —
// same seed, same CSV, same summary. This is the determinism contract
// of util::parallel (see docs/concurrency.md) checked end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attack/harvester.hpp"
#include "content/pipeline.hpp"
#include "crypto/digest.hpp"
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
      csv.typed_row(test_population().onion(obs.service), obs.port,
                    static_cast<int>(obs.result),
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
      csv.typed_row(test_population().onion(obs.service), obs.port,
                    static_cast<int>(obs.result),
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
// TAB2 — descriptor-ID join + resolution
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

  EXPECT_EQ(
      resolution_summary_csv(serial.resolve(stream, test_population()),
                             "tab2_serial"),
      resolution_summary_csv(parallel.resolve(stream, test_population()),
                             "tab2_parallel"));
}

TEST(SerialEquivalenceTest, Tab2JoinIdentical) {
  // Same onions, the first 50 repeated at the end to exercise the
  // last-writer-wins rule the serial insert order defines.
  std::vector<crypto::PermanentId> onions;
  for (population::ServiceId id = 0; id < 200; ++id)
    onions.push_back(test_population().permanent_id(id));
  onions.insert(onions.end(), onions.begin(), onions.begin() + 50);

  // Every id the default window (28 Jan – 8 Feb 2013) derives, with the
  // input position that derives it last, and a stream asking for each
  // distinct one once.
  std::vector<crypto::DescriptorId> ids;
  std::map<crypto::DescriptorId, std::size_t> last_position;
  for (std::size_t position = 0; position < onions.size(); ++position) {
    const crypto::PermanentId& pid = onions[position];
    for (util::UnixTime t = util::make_utc(2013, 1, 28);
         t < util::make_utc(2013, 2, 9); t += util::kSecondsPerDay)
      for (const crypto::DescriptorId& id : crypto::descriptor_ids_for_period(
               pid, crypto::time_period(t, pid))) {
        ids.push_back(id);
        last_position[id] = position;
      }
  }
  popularity::RequestStream stream;
  for (const auto& [id, position] : last_position)
    stream.requests.push_back({id, 0});

  std::string serial_csv;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    popularity::DescriptorResolver resolver(
        popularity::ResolverConfig{.threads = threads});
    resolver.build_dictionary(onions);
    const std::vector<std::uint32_t> got = resolver.resolve_ids(ids);
    ASSERT_EQ(got.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_NE(got[i], popularity::DescriptorResolver::kUnresolved)
          << "id " << i;
      ASSERT_EQ(resolver.onion(got[i]),
                crypto::onion_address(onions[last_position.at(ids[i])]))
          << "id " << i;
    }
    // A repeated onion renders the same text at both positions; had its
    // ids been split between them, that onion would fill two ranking
    // rows.
    const popularity::ResolutionReport report = resolver.resolve(stream);
    EXPECT_EQ(report.resolved_descriptor_ids,
              static_cast<std::int64_t>(last_position.size()));
    EXPECT_EQ(report.resolved_onions, 200);
    const std::string csv = resolution_summary_csv(
        report, "tab2_join_t" + std::to_string(threads));
    if (threads == 1) serial_csv = csv;
    EXPECT_EQ(csv, serial_csv);
  }
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

// ---------------------------------------------------------------------
// The World hour: step_hour walks every service's ring in parallel and
// applies the queued uploads store by store over WorldConfig::threads.
// Everything the World leaves behind must be the same bytes at every
// thread count, through churn, an authority outage, a harvester
// rotation and a fault plan that loses and delays uploads.
// ---------------------------------------------------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
  return util::hex_encode(bytes);
}

/// Every store's walk and fetch log, the failure log, each service's
/// last publish, the consensus archive and the harvest report.
std::string world_state_bytes(sim::World& world,
                              const attack::HarvestReport& report) {
  std::string out;
  const auto line = [&out](const std::string& text) { out += text + "\n"; };
  hsdir::DirectoryNetwork& dirnet = world.directories();
  for (relay::RelayId id = 0; id < world.registry().size(); ++id) {
    const hsdir::DescriptorStore* store = dirnet.find_store(id);
    if (store == nullptr) continue;
    line("store " + std::to_string(id));
    store->for_each_descriptor([&](const hsdir::DescriptorView& d) {
      line(" held " + hex(d.descriptor_id) + " " +
           std::to_string(d.published) + " key " + std::to_string(d.key));
    });
    for (const hsdir::FetchRecord& f : store->fetch_log())
      line(" fetch " + hex(f.descriptor_id) + " " + std::to_string(f.time) +
           (f.found ? " found" : " miss"));
  }
  for (const fault::FailureRecord& f : dirnet.failure_log())
    line("failure " + std::to_string(static_cast<int>(f.kind)) + " " +
         std::to_string(f.key) + " " + std::to_string(f.detail) + " " +
         std::to_string(f.attempt));
  for (std::size_t i = 0; i < world.service_count(); ++i) {
    const auto service = world.service(i);
    std::string text = "service " + std::to_string(i) + " period " +
                       std::to_string(service.last_published_period()) +
                       " lost " + std::to_string(service.last_publish_lost());
    for (const crypto::Fingerprint& fp : service.introduction_points())
      text += " intro " + hex(fp);
    for (const sim::PublishRecord& r : service.last_publish_records())
      text += " upload " + std::to_string(r.hsdir) + "/" +
              std::to_string(r.guard);
    line(text);
  }
  for (std::size_t c = 0; c < world.archive().size(); ++c) {
    const dirauth::Consensus& consensus = world.archive().at(c);
    line("consensus " + std::to_string(consensus.valid_after()));
    for (const dirauth::ConsensusEntry& e : consensus.entries())
      line(" " + std::to_string(e.relay) + " " + hex(e.fingerprint) + " " +
           std::to_string(e.flags));
  }
  for (const std::string& onion : report.onions) line("onion " + onion);
  line("harvest " + std::to_string(report.descriptors_collected) + " " +
       std::to_string(report.fetch_requests_logged) + " " +
       std::to_string(report.positions_used));
  return out;
}

std::string world_hour_bytes(int threads) {
  sim::WorldConfig config;
  config.seed = 31;
  config.honest_relays = 150;
  config.hourly_down_probability = 0.05;
  config.hourly_up_probability = 0.3;
  config.threads = threads;
  config.faults.publish_loss_rate = 0.2;
  config.faults.publish_delay_rate = 0.3;
  sim::World world(config);
  for (int i = 0; i < 240; ++i) world.add_service();
  // Some honest directories log requests, like the paper's measuring
  // HSDirs; the harvester's relays log too.
  for (relay::RelayId id = 0; id < 150; id += 5)
    world.directories().store_for(id).enable_logging(true);
  // A client fetch of every seventh service's first replica.
  const auto fetch_round = [&world] {
    for (std::size_t i = 0; i < world.service_count(); i += 7) {
      const auto ids = world.service(i).current_descriptor_ids(world.now());
      relay::RelayId answered = relay::kInvalidRelayId;
      world.directories().fetch_from(world.consensus(), ids[0], world.now(),
                                     answered);
    }
  };
  for (int hour = 0; hour < 4; ++hour) {
    world.step_hour();
    fetch_round();
  }
  // The authorities go dark for three hours while relays churn on.
  world.set_authority_online(false);
  for (int hour = 0; hour < 3; ++hour) {
    world.step_hour();
    fetch_round();
  }
  world.set_authority_online(true);
  attack::ShadowHarvester harvester(
      attack::HarvesterConfig{.num_ips = 3, .relays_per_ip = 4});
  harvester.deploy(world);
  const attack::HarvestReport report = harvester.run(world, 8);
  fetch_round();
  world.step_hour();
  fetch_round();
  return world_state_bytes(world, report);
}

TEST(SerialEquivalenceTest, WorldHourByteIdenticalAcrossThreads) {
  const std::string serial = world_hour_bytes(1);
  // The run exercised what it claims to: lost and delayed uploads,
  // logged fetches and a harvest.
  EXPECT_NE(serial.find("failure " + std::to_string(static_cast<int>(
                            fault::FailureKind::kPublishLost))),
            std::string::npos);
  EXPECT_NE(serial.find("failure " + std::to_string(static_cast<int>(
                            fault::FailureKind::kPublishDelayed))),
            std::string::npos);
  EXPECT_NE(serial.find(" found"), std::string::npos);
  EXPECT_NE(serial.find("onion "), std::string::npos);
  for (int threads : {2, 4}) {
    const std::string parallel = world_hour_bytes(threads);
    EXPECT_EQ(serial.size(), parallel.size()) << threads << " threads";
    EXPECT_TRUE(serial == parallel) << threads << " threads";
  }
}

}  // namespace
}  // namespace torsim
