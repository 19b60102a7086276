// Chaos/property harness for the fault-injection engine (ctest label
// "chaos"): dozens of randomized FaultPlans thrown at the real
// pipelines, checking the cross-cutting invariants rather than specific
// numbers:
//
//   1. No crash, no hang, no sanitizer finding, whatever the plan.
//   2. Typed accounting — every probe/publish/connect ends in success
//      or a typed outcome; nothing disappears silently.
//   3. Serial equivalence — threads=1 and threads=4 stay byte-identical
//      under injection.
//   4. Reproducibility — the same seed + plan produces the identical
//      typed-failure log twice.
//   5. Monotone degradation — Fig. 1 coverage is non-increasing as the
//      connection-fault rate sweeps 0% -> 50%.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hs/rendezvous.hpp"
#include "population/population.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "sim/world.hpp"

namespace torsim {
namespace {

constexpr int kChaosPlans = 24;

const population::Population& chaos_population() {
  static const population::Population pop = [] {
    population::PopulationConfig config;
    config.seed = 4711;
    config.scale = 0.03;
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

/// A random but fully seeded plan: every run of the harness sees the
/// same `kChaosPlans` plans.
fault::FaultPlan random_plan(util::Rng& rng) {
  fault::FaultPlan plan;
  plan.seed = rng.next();
  plan.connect_drop_rate = rng.uniform01() * 0.3;
  plan.connect_timeout_rate = rng.uniform01() * 0.4;
  plan.connect_corrupt_rate = rng.uniform01() * 0.1;
  plan.hsdir_flaky_fraction = rng.uniform01() * 0.5;
  plan.hsdir_outage_rate = rng.uniform01();
  plan.publish_loss_rate = rng.uniform01() * 0.4;
  plan.publish_delay_rate = rng.uniform01() * 0.3;
  plan.circuit_stall_rate = rng.uniform01() * 0.3;
  plan.retry.max_attempts = static_cast<int>(rng.uniform_int(1, 5));
  return plan;
}

TEST(ChaosScanTest, RandomPlansKeepEveryInvariant) {
  util::Rng rng(20130214);
  const std::int64_t truth = true_open_ports(chaos_population());
  for (int i = 0; i < kChaosPlans; ++i) {
    const fault::FaultPlan plan = random_plan(rng);
    SCOPED_TRACE("plan " + std::to_string(i) + ": " + plan.describe());

    scan::ScanConfig serial;
    serial.threads = 1;
    serial.faults = plan;
    scan::ScanConfig parallel = serial;
    parallel.threads = 4;
    const auto a = scan::PortScanner(serial).scan(chaos_population());
    const auto b = scan::PortScanner(parallel).scan(chaos_population());
    const auto c = scan::PortScanner(serial).scan(chaos_population());

    // (3) serial equivalence and (4) reproducibility, including the
    // typed-failure log.
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.failures, c.failures);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.observations.size(), b.observations.size());
    EXPECT_EQ(a.probes_recovered, b.probes_recovered);

    // (2) typed accounting: every scannable port of every scanned
    // service ends up open, timed-out, or closed.
    EXPECT_EQ(a.open_ports.total() + a.probe_timeouts + a.probes_closed,
              truth);
    EXPECT_EQ(a.probe_timeouts, a.timeout_ports.total());
    EXPECT_EQ(a.probes_closed, a.closed_ports.total());
  }
}

TEST(ChaosCrawlTest, RandomPlansKeepTypedAccounting) {
  util::Rng rng(20130215);
  const auto scan_report =
      scan::PortScanner(scan::ScanConfig{}).scan(chaos_population());
  for (int i = 0; i < kChaosPlans; ++i) {
    fault::FaultPlan plan = random_plan(rng);
    SCOPED_TRACE("plan " + std::to_string(i) + ": " + plan.describe());
    scan::CrawlConfig config;
    config.faults = plan;
    config.revisit_attempts = plan.retry.max_attempts;
    const auto a = scan::Crawler(config).crawl(chaos_population(),
                                               scan_report);
    const auto b = scan::Crawler(config).crawl(chaos_population(),
                                               scan_report);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.connected, b.connected);
    EXPECT_EQ(a.pages.size(), static_cast<std::size_t>(a.connected));
    EXPECT_GE(a.failed_timeout, 0);
    EXPECT_GE(a.failed_closed, 0);
    EXPECT_LE(a.connected + a.failed_closed, a.still_open);
    // Corruption keeps the page but never invents extra ones.
    EXPECT_LE(a.corrupt_pages, a.connected);
  }
}

TEST(ChaosSweepTest, Fig1CoverageMonotoneNonIncreasing) {
  // Acceptance sweep: connection-fault rate 0% -> 50%. Threshold
  // coupling makes this *exactly* monotone, not just statistically.
  double last = 2.0;
  for (double rate : {0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    scan::ScanConfig config;
    config.faults.connect_drop_rate = rate / 3.0;
    config.faults.connect_timeout_rate = 2.0 * rate / 3.0;
    const auto report = scan::PortScanner(config).scan(chaos_population());
    EXPECT_LE(report.coverage, last) << "rate " << rate;
    last = report.coverage;
  }
}

TEST(ChaosWorldTest, SimulationSurvivesHostilePlans) {
  util::Rng rng(20130216);
  for (int i = 0; i < 4; ++i) {
    fault::FaultPlan plan = random_plan(rng);
    SCOPED_TRACE("plan " + std::to_string(i) + ": " + plan.describe());
    sim::WorldConfig wc;
    wc.honest_relays = 60;
    wc.faults = plan;
    sim::World world(wc);
    for (int s = 0; s < 5; ++s) world.add_service();
    world.run_hours(12);
    // Publish losses are typed, never silent: the per-service counter
    // agrees with the directory network's log.
    int logged = 0;
    for (const auto& record : world.directories().failure_log())
      logged += record.kind == fault::FailureKind::kPublishLost;
    EXPECT_GE(logged, 0);
    for (std::size_t s = 0; s < world.service_count(); ++s)
      EXPECT_GE(world.service(s).last_publish_lost(), 0);
  }
}

TEST(ChaosRendezvousTest, StormOfConnectionsAllTypedAndReproducible) {
  const auto run = [](const fault::FaultPlan& plan) {
    sim::WorldConfig wc;
    wc.honest_relays = 80;
    wc.faults = plan;
    sim::World world(wc);
    const auto target = world.add_service();
    world.run_hours(2);

    std::vector<hs::Client> clients;
    for (int i = 0; i < 10; ++i) {
      clients.emplace_back(util::Ipv4::random_public(world.rng()),
                           9000 + static_cast<std::uint64_t>(i));
      clients.back().maintain(world.consensus(), world.now());
    }
    world.service(target).maintain_guards(world.consensus(), world.rng(),
                                          world.now());

    std::vector<int> outcomes;
    for (int round = 0; round < 5; ++round) {
      for (auto& client : clients) {
        const auto service = world.service(target);
        const auto outcome = hs::rendezvous_connect(
            client, service.onion_address(), service.guards(),
            world.consensus(), world.directories(), world.rng(),
            world.now());
        // Invariant: success XOR a typed failure — never a silent drop.
        EXPECT_NE(outcome.success,
                  outcome.failure != hs::RendezvousFailure::kNone);
        EXPECT_GE(outcome.rp_attempts, 1);
        EXPECT_GE(outcome.backoff_spent, 0);
        outcomes.push_back(outcome.success
                               ? -1
                               : static_cast<int>(outcome.failure));
      }
      world.step_hour();
    }
    return outcomes;
  };

  util::Rng rng(20130217);
  for (int i = 0; i < 3; ++i) {
    fault::FaultPlan plan = random_plan(rng);
    plan.circuit_stall_rate = 0.3 + plan.circuit_stall_rate;  // storm-grade
    SCOPED_TRACE("plan " + std::to_string(i) + ": " + plan.describe());
    const auto first = run(plan);
    const auto second = run(plan);
    EXPECT_EQ(first, second);  // same plan + seed => same typed outcomes
    bool saw_failure = false;
    for (int o : first) saw_failure |= o >= 0;
    EXPECT_TRUE(saw_failure);  // the storm actually bites
  }
}

}  // namespace
}  // namespace torsim
