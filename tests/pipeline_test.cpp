// src/pipeline against oracle::paper_chain, the chain as torbench wires
// it: every stage's output is rendered in full and must be
// byte-identical to the oracle's for several seeds, at threads 1 and 4.
// Under an enabled fault plan the crawl must re-visit destinations up
// to the plan's retry budget; the Sec. VII stage must equal torbench's
// trackdet::run_silkroad_study(seed), and the Fig. 3 and Sec. VI stages
// must be deterministic per seed. The paper rows `torsim report` does not
// print (the Sec. IV exclusion funnel and the in-text language split)
// are checked against the paper at scale 0.05.
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>

#include "content/topics.hpp"
#include "oracles.hpp"
#include "pipeline/pipeline.hpp"
#include "population/paper_constants.hpp"

namespace torsim {
namespace {

constexpr double kScale = 0.02;

std::ostringstream render_stream() {
  std::ostringstream os;
  os << std::setprecision(17);
  return os;
}

template <typename Key>
void render_histogram(std::ostringstream& os, const char* name,
                      const stats::Histogram<Key>& histogram) {
  for (const auto& [key, count] : histogram.entries())
    os << name << ' ' << key << ' ' << count << '\n';
}

std::string render(const population::Population& pop) {
  auto os = render_stream();
  for (std::size_t i = 0; i < pop.size(); ++i)
    os << pop.onion(static_cast<population::ServiceId>(i)) << '\n';
  return os.str();
}

std::string render(const scan::ScanReport& report) {
  auto os = render_stream();
  os << report.descriptors_available << ' ' << report.onions_scanned << ' '
     << report.onions_with_open_ports << ' ' << report.coverage << ' '
     << report.probe_timeouts << ' ' << report.probes_closed << ' '
     << report.probes_corrupt << ' ' << report.probes_recovered << ' '
     << report.failures.size() << '\n';
  render_histogram(os, "open", report.open_ports);
  render_histogram(os, "timeout", report.timeout_ports);
  render_histogram(os, "closed", report.closed_ports);
  for (const auto& o : report.observations)
    os << o.service << ' ' << o.port << ' ' << static_cast<int>(o.result)
       << ' ' << o.scan_day << ' ' << static_cast<int>(o.protocol) << '\n';
  return os.str();
}

std::string render(const scan::CertReport& report) {
  auto os = render_stream();
  os << report.certificates_seen << ' ' << report.selfsigned_mismatch << ' '
     << report.torhost_cn << ' ' << report.public_dns_cn << ' '
     << report.matching_cn << '\n';
  for (const auto& finding : report.deanonymising)
    os << finding.onion << ' ' << finding.port << ' ' << finding.common_name
       << '\n';
  return os.str();
}

std::string render(const scan::CrawlReport& report) {
  auto os = render_stream();
  os << report.destinations << ' ' << report.still_open << ' '
     << report.connected << ' ' << report.failed_timeout << ' '
     << report.failed_closed << ' ' << report.corrupt_pages << ' '
     << report.recovered_by_revisit << ' ' << report.failures.size() << '\n';
  for (const auto& page : report.pages)
    os << page.onion << ' ' << page.port << ' ' << page.connected << ' '
       << static_cast<int>(page.protocol) << ' ' << page.error_page << ' '
       << page.text << '\n';
  return os.str();
}

std::string render(const content::PipelineResult& result) {
  auto os = render_stream();
  os << result.destinations_total << ' ' << result.connected << ' '
     << result.excluded_short << ' ' << result.excluded_ssh_banner << ' '
     << result.excluded_dup443 << ' ' << result.excluded_error << ' '
     << result.classifiable << ' ' << result.english << ' '
     << result.torhost_default << ' ' << result.classified << '\n';
  render_histogram(os, "port", result.port_counts);
  for (const std::size_t count : result.language_counts) os << count << ' ';
  os << '\n';
  for (const std::size_t count : result.topic_counts) os << count << ' ';
  os << '\n';
  for (const auto& service : result.services)
    os << service.onion << ' ' << service.port << ' '
       << static_cast<int>(service.language) << ' '
       << static_cast<int>(service.topic) << ' ' << service.topic_confidence
       << '\n';
  return os.str();
}

std::string render(const popularity::ResolutionReport& report) {
  auto os = render_stream();
  os << report.total_requests << ' ' << report.unique_descriptor_ids << ' '
     << report.resolved_descriptor_ids << ' ' << report.resolved_onions
     << ' ' << report.resolved_requests << '\n';
  for (const auto& row : report.ranking)
    os << row.onion << ' ' << row.requests << ' ' << row.label << ' '
       << row.paper_alias << ' ' << row.paper_rank << '\n';
  return os.str();
}

std::string render(const popularity::BotnetInferenceReport& report) {
  auto os = render_stream();
  for (const auto& c : report.cnc_candidates)
    os << c.onion << ' ' << c.requests_per_2h << ' ' << c.http_503 << ' '
       << c.server_status_exposed << ' ' << c.traffic_bytes_per_sec << ' '
       << c.requests_per_sec << ' ' << c.apache_uptime_seconds << '\n';
  for (const auto& server : report.physical_servers) {
    os << server.apache_uptime_seconds << ' '
       << server.mean_traffic_bytes_per_sec << ' '
       << server.mean_requests_per_sec;
    for (const auto& onion : server.onions) os << ' ' << onion;
    os << '\n';
  }
  return os.str();
}

std::string render(const trackdet::TrackingReport& report) {
  auto os = render_stream();
  os << report.snapshots << ' ' << report.mean_hsdirs << ' '
     << report.suspicion_threshold << ' ' << report.full_takeover_periods
     << '\n';
  for (const auto& s : report.suspicious)
    os << s.name << ' ' << s.truth_campaign << ' ' << s.stats.server << ' '
       << s.stats.periods_responsible << ' ' << s.stats.fingerprint_switches
       << ' ' << s.stats.max_ratio << ' ' << s.flags.count() << '\n';
  for (const auto& c : report.clusters) {
    os << c.shared_prefix << ' ' << c.first_seen << ' ' << c.last_seen << ' '
       << c.periods_covered << ' ' << c.max_ratio << ' ' << c.full_takeover;
    for (const auto server : c.servers) os << ' ' << server;
    os << '\n';
  }
  return os.str();
}

std::string render(const trackdet::SilkroadStudy& study) {
  std::string out = render(study.report);
  for (const auto& year : study.yearly) out += "year\n" + render(year);
  return out;
}

std::string render(const attack::DeanonymizationReport& report) {
  auto os = render_stream();
  os << report.fetches_observed << ' ' << report.signatures_injected << ' '
     << report.through_our_guard << ' ' << report.deanonymized << ' '
     << report.false_positives << '\n';
  for (const auto address : report.client_addresses) os << address << ' ';
  os << '\n';
  return os.str();
}

std::string render(const pipeline::GeoMap& geomap) {
  auto os = render_stream();
  os << geomap.clients << '\n' << render(geomap.attack);
  for (const auto& row : geomap.map.rows())
    os << row.code << ' ' << row.clients << ' ' << row.share << '\n';
  return os.str();
}

std::string render(const pipeline::Deanon& deanon) {
  auto os = render_stream();
  for (const auto& point : deanon.sweep)
    os << point.attacker_guards << ' ' << point.guard_share << ' '
       << point.signed_share << ' ' << point.success_per_fetch << '\n';
  os << deanon.signature_trials << ' ' << deanon.detected << ' '
     << deanon.false_positives << '\n';
  return os.str();
}

/// Every src/pipeline stage after population, in chain order.
oracle::PaperChain run_pipeline(const pipeline::Config& config,
                                const population::Population& pop) {
  oracle::PaperChain out;
  out.scan = pipeline::scan(config, pop);
  out.cert = pipeline::cert(pop, out.scan);
  out.crawl = pipeline::crawl(config, pop, out.scan);
  out.content = pipeline::classify(config, out.crawl);
  out.ranking = pipeline::resolve(config, pop);
  out.botnet = pipeline::botnet(out.ranking, pop);
  return out;
}

void expect_same_outputs(const oracle::PaperChain& got,
                         const oracle::PaperChain& want) {
  EXPECT_EQ(render(got.scan), render(want.scan));
  EXPECT_EQ(render(got.cert), render(want.cert));
  EXPECT_EQ(render(got.crawl), render(want.crawl));
  EXPECT_EQ(render(got.content), render(want.content));
  EXPECT_EQ(render(got.ranking), render(want.ranking));
  EXPECT_EQ(render(got.botnet), render(want.botnet));
}

class PipelineSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSeedTest, EveryStageMatchesTorbenchWiring) {
  const std::uint64_t seed = GetParam();
  const pipeline::Config config{.seed = seed, .scale = kScale, .threads = 1};
  const auto pop = pipeline::population(config);
  const auto want_pop = oracle::paper_population(seed, kScale);
  EXPECT_EQ(render(pop), render(want_pop));
  const oracle::PaperChain want = oracle::paper_chain(want_pop, seed, 1);
  expect_same_outputs(run_pipeline(config, pop), want);
  // torbench's harness runs the Sec. VII study at the seed itself.
  const auto study = trackdet::run_silkroad_study(seed);
  EXPECT_EQ(render(pipeline::trackdet(config)), render(study));
  // The oracle must not be trivially empty.
  EXPECT_GT(want.scan.total_open_ports(), 0);
  EXPECT_GT(want.content.classified, 0u);
  EXPECT_GT(want.ranking.resolved_onions, 0);
  EXPECT_FALSE(study.report.clusters.empty());
}

TEST_P(PipelineSeedTest, ThreadCountDoesNotChangeOutput) {
  const std::uint64_t seed = GetParam();
  const auto pop = pipeline::population({.seed = seed, .scale = kScale});
  expect_same_outputs(
      run_pipeline({.seed = seed, .scale = kScale, .threads = 4}, pop),
      run_pipeline({.seed = seed, .scale = kScale, .threads = 1}, pop));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedTest,
                         ::testing::Values(0u, 1u, 7u));

// The Fig. 3 and Sec. VI studies: the same seed gives the same output
// and neither is empty; geomap, the cheaper one, also shows that another
// seed gives another output. (Key grinding makes each run slow under
// sanitizers, so deanon runs only twice.)
TEST(PipelineStudiesTest, GeomapAndDeanonAreDeterministicPerSeed) {
  const pipeline::Config config{.seed = 20130204};
  const pipeline::Config other{.seed = 1};
  const auto geomap = pipeline::geomap(config);
  EXPECT_EQ(render(geomap), render(pipeline::geomap(config)));
  EXPECT_NE(render(geomap), render(pipeline::geomap(other)));
  EXPECT_EQ(geomap.clients, 400);
  EXPECT_GT(geomap.attack.client_addresses.size(), 0u);
  EXPECT_FALSE(geomap.map.rows().empty());

  const auto deanon = pipeline::deanon(config);
  EXPECT_EQ(render(deanon), render(pipeline::deanon(config)));
  ASSERT_EQ(deanon.sweep.size(), 6u);
  EXPECT_EQ(deanon.sweep.front().success_per_fetch, 0.0);
  EXPECT_GT(deanon.sweep.back().success_per_fetch, 0.0);
  EXPECT_EQ(deanon.signature_trials, 20000);
  EXPECT_GT(deanon.detected, 0);
}

TEST(PipelineFaultsTest, CrawlRevisitsUpToTheRetryBudget) {
  const std::uint64_t seed = 1;
  const fault::FaultPlan plan = fault::FaultPlan::parse("moderate");
  ASSERT_GT(plan.retry.max_attempts, 1);
  const pipeline::Config config{
      .seed = seed, .scale = kScale, .threads = 1, .faults = plan};
  const auto pop = pipeline::population(config);
  const auto scan_report = pipeline::scan(config, pop);
  EXPECT_EQ(render(scan_report),
            render(scan::PortScanner(scan::ScanConfig{.seed = seed + 1,
                                                      .threads = 1,
                                                      .faults = plan})
                       .scan(pop)));

  const auto crawl_with = [&](int revisit_attempts) {
    return scan::Crawler(scan::CrawlConfig{
                             .seed = seed + 4,
                             .faults = plan,
                             .revisit_attempts = revisit_attempts})
        .crawl(pop, scan_report);
  };
  const auto crawl = pipeline::crawl(config, pop, scan_report);
  EXPECT_EQ(render(crawl), render(crawl_with(plan.retry.max_attempts)));
  EXPECT_NE(render(crawl), render(crawl_with(1)));
  EXPECT_GT(crawl.recovered_by_revisit, 0);
}

// The paper seed's content stage at scale 0.05, as `torsim classify
// --scale 0.05` runs it.
const content::PipelineResult& content_at_scale005() {
  static const content::PipelineResult result = [] {
    const pipeline::Config config{.seed = 20130204, .scale = 0.05,
                                  .threads = 1};
    const auto pop = pipeline::population(config);
    const auto scan_report = pipeline::scan(config, pop);
    return pipeline::classify(config,
                              pipeline::crawl(config, pop, scan_report));
  }();
  return result;
}

/// measured / (paper * 0.05) must lie in [lo, hi].
void expect_scaled_ratio(const char* row, std::size_t measured,
                         std::int64_t paper, double lo, double hi) {
  const double ratio =
      static_cast<double>(measured) / (static_cast<double>(paper) * 0.05);
  EXPECT_GE(ratio, lo) << row << ": measured " << measured;
  EXPECT_LE(ratio, hi) << row << ": measured " << measured;
}

TEST(PaperRowsTest, SecIvExclusionFunnelNearPaper) {
  const auto& result = content_at_scale005();
  const auto& paper = population::paper();
  expect_scaled_ratio("excluded <20 words", result.excluded_short,
                      paper.excluded_short, 0.85, 1.25);
  expect_scaled_ratio("SSH banners", result.excluded_ssh_banner,
                      paper.excluded_ssh_banners, 0.85, 1.2);
  expect_scaled_ratio("443 duplicates", result.excluded_dup443,
                      paper.excluded_dup443, 0.75, 1.2);
  // 73 error pages scale to 3.65: a handful either way.
  expect_scaled_ratio("error pages", result.excluded_error,
                      paper.excluded_error_pages, 0.25, 2.0);
  expect_scaled_ratio("TorHost default pages", result.torhost_default,
                      paper.torhost_default_pages, 0.6, 1.2);
}

TEST(PaperRowsTest, InTextLanguageSplitNearPaper) {
  const auto shares = content_at_scale005().language_shares();
  // Paper: 84% English over 17 languages.
  EXPECT_NEAR(shares[0], population::paper().english_share, 0.09);
  // Total variation distance from the paper's per-language split.
  const auto& paper_shares = content::paper_language_shares();
  double distance = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i)
    distance += std::abs(shares[i] - paper_shares[i]) / 2.0;
  EXPECT_LE(distance, 0.10);
}

}  // namespace
}  // namespace torsim
