// Unit tests for the deterministic fault-injection engine (src/fault)
// and its instrumentation points: descriptor store visibility, directory
// publish/fetch, client retry, port scan and crawl accounting.
//
// The chaos/property harness lives in chaos_scenario_test.cpp (ctest
// label "chaos"); this file covers the deterministic contracts.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dirauth/authority.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hs/client.hpp"
#include "hsdir/directory_network.hpp"
#include "population/population.hpp"
#include "relay/registry.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "sim/world.hpp"

namespace torsim {
namespace {

constexpr util::UnixTime kT0 = 1359676800;  // 2013-02-01

// ---------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------

TEST(RetryPolicyTest, ExponentialBackoffSchedule) {
  fault::RetryPolicy policy{.max_attempts = 4,
                            .base_backoff = 2,
                            .backoff_multiplier = 2.0};
  EXPECT_EQ(policy.backoff_before(1), 0);
  EXPECT_EQ(policy.backoff_before(2), 2);
  EXPECT_EQ(policy.backoff_before(3), 4);
  EXPECT_EQ(policy.backoff_before(4), 8);
  EXPECT_EQ(policy.total_backoff(1), 0);
  EXPECT_EQ(policy.total_backoff(4), 14);
}

TEST(RetryPolicyTest, NonIntegerMultiplierRounds) {
  fault::RetryPolicy policy{.max_attempts = 3,
                            .base_backoff = 3,
                            .backoff_multiplier = 1.5};
  EXPECT_EQ(policy.backoff_before(3), 5);  // llround(4.5)
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

TEST(FaultPlanTest, DefaultPlanIsDisabled) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(fault::FaultPlan::profile("none").enabled());
}

TEST(FaultPlanTest, ProfilesAreOrderedBySeverity) {
  const auto mild = fault::FaultPlan::profile("mild");
  const auto moderate = fault::FaultPlan::profile("moderate");
  const auto severe = fault::FaultPlan::profile("severe");
  EXPECT_TRUE(mild.enabled());
  EXPECT_LT(mild.connect_timeout_rate, moderate.connect_timeout_rate);
  EXPECT_LT(moderate.connect_timeout_rate, severe.connect_timeout_rate);
  EXPECT_LT(mild.publish_loss_rate, severe.publish_loss_rate);
  EXPECT_GE(severe.retry.max_attempts, moderate.retry.max_attempts);
}

TEST(FaultPlanTest, ParseKeyValueSpec) {
  const auto plan = fault::FaultPlan::parse(
      "drop=0.1,timeout=0.05,corrupt=0.01,hsdir-flaky=0.2,hsdir-outage=0.5,"
      "publish-loss=0.1,publish-delay=0.2,stall=0.3,retries=4,seed=7");
  EXPECT_DOUBLE_EQ(plan.connect_drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.connect_timeout_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.connect_corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.hsdir_flaky_fraction, 0.2);
  EXPECT_DOUBLE_EQ(plan.hsdir_outage_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.publish_loss_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.publish_delay_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.circuit_stall_rate, 0.3);
  EXPECT_EQ(plan.retry.max_attempts, 4);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanTest, ParseProfileNameWithoutEquals) {
  EXPECT_DOUBLE_EQ(fault::FaultPlan::parse("severe").connect_drop_rate,
                   fault::FaultPlan::profile("severe").connect_drop_rate);
}

TEST(FaultPlanTest, ParseRejectsBadInput) {
  EXPECT_THROW(fault::FaultPlan::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("frob=0.1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop=abc"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("retries=0"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop"), std::invalid_argument);
}

TEST(FaultPlanTest, DescribeSummarisesRates) {
  EXPECT_EQ(fault::FaultPlan{}.describe(), "faults: none");
  const auto text = fault::FaultPlan::profile("mild").describe();
  EXPECT_NE(text.find("drop=0.01"), std::string::npos);
  EXPECT_NE(text.find("retries=3"), std::string::npos);
}

// ---------------------------------------------------------------------
// FaultInjector purity + coupling
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, DisabledPlanInjectsNothing) {
  fault::FaultInjector injector{fault::FaultPlan{}};
  EXPECT_FALSE(injector.enabled());
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(injector.connect_fault(key, 80, 1), fault::ConnectFault::kNone);
    EXPECT_FALSE(injector.hsdir_unresponsive(key, kT0));
    EXPECT_FALSE(injector.publish_lost(key, key, 1));
    EXPECT_FALSE(injector.publish_delayed(key, key));
    EXPECT_FALSE(injector.circuit_stalled(key, 0, 1));
  }
}

TEST(FaultInjectorTest, DecisionsAreReproducibleAndStateless) {
  const auto plan = fault::FaultPlan::profile("moderate");
  fault::FaultInjector a{plan};
  fault::FaultInjector b{plan};
  // Query a forward and b backward: pure decisions cannot depend on
  // query order or on any state accumulated by earlier queries.
  std::vector<fault::ConnectFault> forward, backward;
  for (std::uint64_t key = 0; key < 500; ++key)
    forward.push_back(a.connect_fault(key, 443, 1));
  for (std::uint64_t key = 500; key-- > 0;)
    backward.push_back(b.connect_fault(key, 443, 1));
  for (std::size_t i = 0; i < forward.size(); ++i)
    EXPECT_EQ(forward[i], backward[forward.size() - 1 - i]) << i;
}

TEST(FaultInjectorTest, DifferentSeedsDifferentDecisions) {
  auto plan = fault::FaultPlan::profile("severe");
  fault::FaultInjector a{plan};
  plan.seed = 999;
  fault::FaultInjector b{plan};
  int differing = 0;
  for (std::uint64_t key = 0; key < 500; ++key)
    differing += a.connect_fault(key, 80, 1) != b.connect_fault(key, 80, 1);
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, RaisingRatesOnlyGrowsTheFaultedSet) {
  // Threshold coupling: an event faulted at low rates stays faulted at
  // higher rates (the kind may shift between bands, but never back to
  // kNone). This is what makes coverage sweeps monotone.
  fault::FaultPlan low;
  low.connect_drop_rate = 0.02;
  low.connect_timeout_rate = 0.05;
  low.connect_corrupt_rate = 0.01;
  fault::FaultPlan high = low;
  high.connect_drop_rate = 0.10;
  high.connect_timeout_rate = 0.20;
  high.connect_corrupt_rate = 0.05;
  fault::FaultInjector a{low};
  fault::FaultInjector b{high};
  for (std::uint64_t key = 0; key < 2000; ++key) {
    if (a.connect_fault(key, 80, 1) != fault::ConnectFault::kNone) {
      EXPECT_NE(b.connect_fault(key, 80, 1), fault::ConnectFault::kNone)
          << key;
    }
  }
}

TEST(FaultInjectorTest, ConnectFaultRatesMatchThePlan) {
  fault::FaultPlan plan;
  plan.connect_drop_rate = 0.10;
  plan.connect_timeout_rate = 0.20;
  plan.connect_corrupt_rate = 0.05;
  fault::FaultInjector injector{plan};
  int drop = 0, timeout = 0, corrupt = 0;
  constexpr int kEvents = 20000;
  for (std::uint64_t key = 0; key < kEvents; ++key) {
    switch (injector.connect_fault(key, 80, 1)) {
      case fault::ConnectFault::kDrop: ++drop; break;
      case fault::ConnectFault::kTimeout: ++timeout; break;
      case fault::ConnectFault::kCorrupt: ++corrupt; break;
      case fault::ConnectFault::kNone: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(drop) / kEvents, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(timeout) / kEvents, 0.20, 0.015);
  EXPECT_NEAR(static_cast<double>(corrupt) / kEvents, 0.05, 0.01);
}

TEST(FaultInjectorTest, AttemptsDrawIndependently) {
  fault::FaultPlan plan;
  plan.connect_timeout_rate = 0.5;
  fault::FaultInjector injector{plan};
  // A key that times out on attempt 1 is not doomed on attempt 2.
  int recovered = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (injector.connect_fault(key, 80, 1) == fault::ConnectFault::kTimeout &&
        injector.connect_fault(key, 80, 2) == fault::ConnectFault::kNone)
      ++recovered;
  }
  EXPECT_GT(recovered, 100);  // ~ 0.5 * 0.5 * 1000
}

TEST(FaultInjectorTest, HsdirOutageConstantWithinWindow) {
  fault::FaultPlan plan;
  plan.hsdir_flaky_fraction = 1.0;
  plan.hsdir_outage_rate = 0.5;
  plan.hsdir_outage_window = 3600;
  fault::FaultInjector injector{plan};
  for (std::uint64_t relay = 0; relay < 50; ++relay) {
    const bool at_start = injector.hsdir_unresponsive(relay, kT0);
    for (util::Seconds dt : {1, 600, 3599})
      EXPECT_EQ(injector.hsdir_unresponsive(relay, kT0 + dt), at_start)
          << relay;
  }
}

TEST(FaultInjectorTest, OnlyFlakyDirsHaveOutages) {
  fault::FaultPlan plan;
  plan.hsdir_flaky_fraction = 0.0;
  plan.hsdir_outage_rate = 1.0;
  plan.publish_loss_rate = 0.1;  // keep the plan enabled
  fault::FaultInjector injector{plan};
  for (std::uint64_t relay = 0; relay < 200; ++relay)
    EXPECT_FALSE(injector.hsdir_unresponsive(relay, kT0));
}

TEST(FaultInjectorTest, StringAndByteKeysAgree) {
  const std::string text = "msydqstlz2kzerdg";
  EXPECT_EQ(fault::FaultInjector::key_of(text),
            fault::FaultInjector::key_of(
                reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
  EXPECT_NE(fault::FaultInjector::key_of("a"),
            fault::FaultInjector::key_of("b"));
}

TEST(FaultInjectorTest, FailureKindNamesAreStable) {
  EXPECT_STREQ(fault::to_string(fault::FailureKind::kConnectDrop),
               "connect-drop");
  EXPECT_STREQ(fault::to_string(fault::FailureKind::kRetriesExhausted),
               "retries-exhausted");
  EXPECT_STREQ(fault::to_string(fault::ConnectFault::kCorrupt), "corrupt");
}

// ---------------------------------------------------------------------
// Descriptor store visibility (delayed publishes)
// ---------------------------------------------------------------------

TEST(FaultStoreTest, VisibleAfterGatesFetch) {
  util::Rng rng(31);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  const auto key = crypto::KeyPair::generate(rng);
  auto d = hsdir::make_descriptor(key, {}, 0, kT0);
  d.visible_after = kT0 + 7200;
  store.store(d, keys.add(key.public_bytes()));
  EXPECT_FALSE(store.fetch(d.descriptor_id, kT0 + 7199).has_value());
  EXPECT_TRUE(store.fetch(d.descriptor_id, kT0 + 7200).has_value());
}

// ---------------------------------------------------------------------
// DirectoryNetwork + Client under faults
// ---------------------------------------------------------------------

/// A World of 30 honest relays at kT0 whose directories run `plan`.
sim::WorldConfig fault_world(const fault::FaultPlan& plan) {
  sim::WorldConfig wc;
  wc.seed = 20130204;
  wc.honest_relays = 30;
  wc.faults = plan;
  return wc;
}

TEST(DirectoryFaultTest, PublishLossIsTypedAndDeterministic) {
  fault::FaultPlan plan;
  plan.publish_loss_rate = 0.9;
  plan.retry.max_attempts = 2;

  const auto run = [&](fault::FailureLog* log) {
    sim::World world(fault_world(plan));
    const auto service = world.service(world.add_service());
    if (log != nullptr) *log = world.directories().failure_log();
    // One publish record per receiving directory.
    return std::pair<std::size_t, int>(service.last_publish_records().size(),
                                       service.last_publish_lost());
  };
  fault::FailureLog log1, log2;
  const auto [received1, lost1] = run(&log1);
  const auto [received2, lost2] = run(&log2);

  // Same plan, same world seed: byte-identical failure logs.
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(received1, received2);
  EXPECT_EQ(lost1, lost2);
  // At 90% loss with 2 tries, some uploads must fail (p=0.81 each).
  EXPECT_GT(lost1, 0);
  bool saw_lost = false;
  for (const auto& record : log1)
    saw_lost |= record.kind == fault::FailureKind::kPublishLost;
  EXPECT_TRUE(saw_lost);
}

TEST(DirectoryFaultTest, EveryResponsibleDirAccountedFor) {
  fault::FaultPlan plan;
  plan.publish_loss_rate = 0.5;
  sim::World world(fault_world(plan));
  const auto service = world.service(world.add_service());
  // receivers + typed losses == the deduplicated responsible set:
  // nothing disappears silently.
  EXPECT_GT(service.last_publish_records().size(), 0u);
  EXPECT_GE(service.last_publish_lost(), 0);
  int lost_records = 0;
  for (const auto& record : world.directories().failure_log())
    lost_records += record.kind == fault::FailureKind::kPublishLost;
  EXPECT_EQ(lost_records, service.last_publish_lost());
}

TEST(DirectoryFaultTest, DelayedPublishBecomesVisibleLater) {
  fault::FaultPlan plan;
  plan.publish_delay_rate = 1.0;
  plan.publish_delay = 7200;
  sim::World world(fault_world(plan));
  const auto service = world.service(world.add_service());
  ASSERT_GT(service.last_publish_records().size(), 0u);
  const auto ids = service.current_descriptor_ids(kT0);

  hsdir::DirectoryNetwork& dirnet = world.directories();
  relay::RelayId hsdir = relay::kInvalidRelayId;
  bool visible_now = false;
  bool visible_later = false;
  for (const auto& id : ids) {
    visible_now |=
        dirnet.fetch_from(world.consensus(), id, kT0 + 1, hsdir).has_value();
    visible_later |= dirnet.fetch_from(world.consensus(), id, kT0 + 7201,
                                       hsdir).has_value();
  }
  EXPECT_FALSE(visible_now);
  EXPECT_TRUE(visible_later);
  bool saw_delayed = false;
  for (const auto& record : dirnet.failure_log())
    saw_delayed |= record.kind == fault::FailureKind::kPublishDelayed;
  EXPECT_TRUE(saw_delayed);
}

TEST(DirectoryFaultTest, TotalOutageYieldsTypedClientFailure) {
  fault::FaultPlan plan;
  plan.hsdir_flaky_fraction = 1.0;
  plan.hsdir_outage_rate = 1.0;
  sim::World world(fault_world(plan));
  const auto service = world.service(world.add_service());
  hsdir::DirectoryNetwork& dirnet = world.directories();
  dirnet.clear_failure_log();

  hs::Client client(util::Ipv4::random_public(world.rng()), 99);
  client.maintain(world.consensus(), kT0);
  const auto outcome = client.fetch_descriptor(
      service.onion_address(), world.consensus(), dirnet, kT0);
  EXPECT_FALSE(outcome.found);
  EXPECT_EQ(outcome.failure, hs::FetchFailure::kDirsUnresponsive);
  EXPECT_EQ(outcome.attempts, plan.retry.max_attempts);
  EXPECT_EQ(outcome.backoff_spent,
            plan.retry.total_backoff(plan.retry.max_attempts));
  bool saw_unresponsive = false;
  for (const auto& record : dirnet.failure_log())
    saw_unresponsive |=
        record.kind == fault::FailureKind::kHsdirUnresponsive;
  EXPECT_TRUE(saw_unresponsive);
}

TEST(DirectoryFaultTest, MissingDescriptorIsDefinitiveNotRetried) {
  fault::FaultPlan plan;
  plan.connect_drop_rate = 0.1;  // enabled, but directories are healthy
  sim::World world(fault_world(plan));
  hs::Client client(util::Ipv4::random_public(world.rng()), 99);
  client.maintain(world.consensus(), kT0);
  crypto::DescriptorId missing{};
  const auto outcome = client.fetch_descriptor_id(
      missing, world.consensus(), world.directories(), kT0);
  EXPECT_FALSE(outcome.found);
  EXPECT_EQ(outcome.failure, hs::FetchFailure::kNotFound);
  EXPECT_EQ(outcome.attempts, 1);  // a definitive miss is not retried
  EXPECT_EQ(outcome.backoff_spent, 0);
}

TEST(DirectoryFaultTest, NoInjectorMatchesDisabledInjector) {
  // A wired-but-disabled injector must not perturb anything.
  const auto run = [&](bool wire_disabled) {
    fault::FaultInjector disabled{fault::FaultPlan{}};
    sim::World world(fault_world(fault::FaultPlan{}));
    if (wire_disabled) world.directories().set_fault_injector(&disabled);
    const auto service = world.service(world.add_service());
    std::vector<relay::RelayId> receivers;
    for (const auto& record : service.last_publish_records())
      receivers.push_back(record.hsdir);
    hs::Client client(util::Ipv4::random_public(world.rng()), 99);
    client.maintain(world.consensus(), kT0);
    const auto outcome = client.fetch_descriptor(
        service.onion_address(), world.consensus(), world.directories(), kT0);
    return std::tuple<std::vector<relay::RelayId>, bool, int>(
        receivers, outcome.found, outcome.attempts);
  };
  EXPECT_EQ(run(true), run(false));
}

// ---------------------------------------------------------------------
// World wiring
// ---------------------------------------------------------------------

TEST(WorldFaultTest, WorldOwnsInjectorWhenPlanEnabled) {
  sim::WorldConfig wc;
  wc.honest_relays = 40;
  wc.faults = fault::FaultPlan::profile("mild");
  sim::World world(wc);
  ASSERT_NE(world.fault_injector(), nullptr);
  EXPECT_EQ(world.directories().fault_injector(), world.fault_injector());
  world.run_hours(2);  // survives stepping with faults active
}

TEST(WorldFaultTest, NoInjectorForDefaultPlan) {
  sim::WorldConfig wc;
  wc.honest_relays = 40;
  sim::World world(wc);
  EXPECT_EQ(world.fault_injector(), nullptr);
  EXPECT_EQ(world.directories().fault_injector(), nullptr);
}

// ---------------------------------------------------------------------
// Port scan accounting under faults
// ---------------------------------------------------------------------

const population::Population& scan_population() {
  static const population::Population pop = [] {
    population::PopulationConfig config;
    config.seed = 77;
    config.scale = 0.05;
    return population::Population::generate(config);
  }();
  return pop;
}

std::int64_t true_open_ports(const population::Population& pop) {
  std::int64_t total = 0;
  for (const auto svc : pop.services())
    if (svc.published_at_scan())
      total +=
          static_cast<std::int64_t>(svc.profile().scannable_ports().size());
  return total;
}

TEST(ScanFaultTest, EveryProbeLandsInExactlyOneBucket) {
  for (const char* profile : {"none", "mild", "severe"}) {
    scan::ScanConfig config;
    config.faults = fault::FaultPlan::profile(profile);
    const auto report = scan::PortScanner(config).scan(scan_population());
    // open + timeout + closed together cover every scannable port of
    // every scanned service: no probe outcome goes missing.
    EXPECT_EQ(report.open_ports.total() + report.probe_timeouts +
                  report.probes_closed,
              true_open_ports(scan_population()))
        << profile;
    EXPECT_EQ(report.probe_timeouts, report.timeout_ports.total());
    EXPECT_EQ(report.probes_closed, report.closed_ports.total());
  }
}

TEST(ScanFaultTest, ZeroPlanAddsNoFaultArtifacts) {
  scan::ScanConfig config;
  const auto report = scan::PortScanner(config).scan(scan_population());
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.probes_corrupt, 0);
  EXPECT_EQ(report.probes_recovered, 0);
  EXPECT_EQ(report.probes_closed, 0);
  EXPECT_GT(report.probe_timeouts, 0);  // churn + overload still happen
}

TEST(ScanFaultTest, CoverageMonotoneInConnectionFaultRate) {
  double last = 2.0;
  for (double rate : {0.0, 0.1, 0.2, 0.35, 0.5}) {
    scan::ScanConfig config;
    config.faults.connect_drop_rate = rate / 2;
    config.faults.connect_timeout_rate = rate / 2;
    const auto report = scan::PortScanner(config).scan(scan_population());
    EXPECT_LE(report.coverage, last) << rate;
    last = report.coverage;
  }
}

TEST(ScanFaultTest, FaultedScanIdenticalAcrossThreadCounts) {
  scan::ScanConfig serial;
  serial.threads = 1;
  serial.faults = fault::FaultPlan::profile("moderate");
  scan::ScanConfig parallel = serial;
  parallel.threads = 4;
  const auto a = scan::PortScanner(serial).scan(scan_population());
  const auto b = scan::PortScanner(parallel).scan(scan_population());
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.probe_timeouts, b.probe_timeouts);
  EXPECT_EQ(a.probes_closed, b.probes_closed);
  EXPECT_EQ(a.probes_corrupt, b.probes_corrupt);
  EXPECT_EQ(a.probes_recovered, b.probes_recovered);
  EXPECT_EQ(a.observations.size(), b.observations.size());
  EXPECT_EQ(a.coverage, b.coverage);
}

// ---------------------------------------------------------------------
// Crawler accounting under faults
// ---------------------------------------------------------------------

TEST(CrawlFaultTest, ZeroPlanAddsNoFaultArtifacts) {
  const auto scan_report =
      scan::PortScanner(scan::ScanConfig{}).scan(scan_population());
  const auto crawl = scan::Crawler().crawl(scan_population(), scan_report);
  EXPECT_TRUE(crawl.failures.empty());
  EXPECT_EQ(crawl.failed_closed, 0);
  EXPECT_EQ(crawl.corrupt_pages, 0);
  EXPECT_EQ(crawl.recovered_by_revisit, 0);
}

TEST(CrawlFaultTest, RevisitsRecoverCircuitFailures) {
  const auto scan_report =
      scan::PortScanner(scan::ScanConfig{}).scan(scan_population());
  scan::CrawlConfig single;
  single.connect_success = 0.5;
  scan::CrawlConfig retried = single;
  retried.revisit_attempts = 5;
  const auto once = scan::Crawler(single).crawl(scan_population(),
                                                scan_report);
  const auto again = scan::Crawler(retried).crawl(scan_population(),
                                                  scan_report);
  EXPECT_GT(again.connected, once.connected);
  EXPECT_GT(again.recovered_by_revisit, 0);
  EXPECT_LT(again.failed_timeout, once.failed_timeout);
}

TEST(CrawlFaultTest, InjectedFaultsAreTypedAndDeterministic) {
  const auto scan_report =
      scan::PortScanner(scan::ScanConfig{}).scan(scan_population());
  scan::CrawlConfig config;
  config.faults = fault::FaultPlan::profile("severe");
  const auto a = scan::Crawler(config).crawl(scan_population(), scan_report);
  const auto b = scan::Crawler(config).crawl(scan_population(), scan_report);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.connected, b.connected);
  EXPECT_GT(a.failures.size(), 0u);
  EXPECT_GT(a.failed_closed, 0);
  EXPECT_GT(a.corrupt_pages, 0);
  // Fewer pages than the healthy crawl, never more.
  const auto healthy =
      scan::Crawler(scan::CrawlConfig{}).crawl(scan_population(),
                                               scan_report);
  EXPECT_LE(a.connected, healthy.connected);
}

}  // namespace
}  // namespace torsim
