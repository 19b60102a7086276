#include <gtest/gtest.h>

#include <cmath>

#include "attack/deanonymizer.hpp"
#include "attack/grinding.hpp"
#include "attack/harvester.hpp"
#include "attack/signature.hpp"

namespace torsim::attack {
namespace {

// ---------------------------------------------------------------------
// traffic signature
// ---------------------------------------------------------------------

TEST(SignatureTest, DetectsOwnInjection) {
  const auto sig = TrafficSignature::standard();
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    CellTrace trace = background_trace(rng, 30);
    sig.inject(trace);
    EXPECT_TRUE(sig.detect(trace));
  }
}

TEST(SignatureTest, DetectsInjectionMidStream) {
  const auto sig = TrafficSignature::standard();
  util::Rng rng(2);
  CellTrace trace = background_trace(rng, 10);
  sig.inject(trace);
  const CellTrace tail = background_trace(rng, 10);
  trace.insert(trace.end(), tail.begin(), tail.end());
  EXPECT_TRUE(sig.detect(trace));
}

TEST(SignatureTest, LowFalsePositiveRateOnBackground) {
  const auto sig = TrafficSignature::standard();
  util::Rng rng(3);
  int false_positives = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i)
    if (sig.detect(background_trace(rng, 50))) ++false_positives;
  EXPECT_LT(false_positives, trials / 100);  // < 1%
}

TEST(SignatureTest, ShortTraceNeverMatches) {
  const auto sig = TrafficSignature::standard();
  EXPECT_FALSE(sig.detect({1, 2}));
  EXPECT_FALSE(sig.detect({}));
}

TEST(SignatureTest, JitterToleranceIsOneSided) {
  TrafficSignature sig({5, 0, 5});
  EXPECT_TRUE(sig.detect({5, 0, 5}, 0));
  EXPECT_TRUE(sig.detect({6, 1, 5}, 1));   // extra riding cells ok
  EXPECT_FALSE(sig.detect({4, 0, 5}, 1));  // cells cannot vanish
  EXPECT_FALSE(sig.detect({8, 0, 5}, 1));  // too much extra
}

TEST(SignatureTest, EmptyPatternRejected) {
  EXPECT_THROW(TrafficSignature({}), std::invalid_argument);
}

// ---------------------------------------------------------------------
// key grinding
// ---------------------------------------------------------------------

TEST(GrindingTest, GrindsKeyIntoArc) {
  util::Rng rng(4);
  crypto::Sha1Digest target;
  rng.fill_bytes(target.data(), target.size());
  // 1/1000 of the ring: expected ~1000 attempts.
  const auto result = grind_key_after(target, 1e-3, rng, 200000);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->attempts, 0u);
  const double ring = std::ldexp(1.0, 160);
  EXPECT_LE(result->distance, 1e-3 * ring);
  EXPECT_GT(result->distance, 0.0);
  EXPECT_DOUBLE_EQ(
      crypto::ring_distance(target, result->key.fingerprint()),
      result->distance);
}

TEST(GrindingTest, TighterArcTakesMoreAttempts) {
  util::Rng rng(5);
  crypto::Sha1Digest target;
  rng.fill_bytes(target.data(), target.size());
  std::uint64_t loose_total = 0, tight_total = 0;
  for (int i = 0; i < 5; ++i) {
    loose_total += grind_key_after(target, 1e-2, rng, 1000000)->attempts;
    tight_total += grind_key_after(target, 1e-4, rng, 1000000)->attempts;
  }
  EXPECT_GT(tight_total, loose_total);
}

TEST(GrindingTest, GivesUpAfterMaxAttempts) {
  util::Rng rng(6);
  crypto::Sha1Digest target{};
  EXPECT_FALSE(grind_key_after(target, 1e-12, rng, 100).has_value());
}

// ---------------------------------------------------------------------
// shadow harvester (small world end-to-end)
// ---------------------------------------------------------------------

sim::WorldConfig harvest_world_config(std::uint64_t seed) {
  sim::WorldConfig config;
  config.seed = seed;
  config.honest_relays = 150;
  return config;
}

TEST(HarvesterTest, CollectsMostPublishedOnions) {
  sim::World world(harvest_world_config(10));
  // 40 hidden services.
  std::set<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const auto index = world.add_service();
    expected.insert(world.service(index).onion_address());
  }

  HarvesterConfig config;
  config.num_ips = 10;
  config.relays_per_ip = 12;
  ShadowHarvester harvester(config);
  harvester.deploy(world);
  const auto report = harvester.run(world, 24);

  EXPECT_EQ(report.relays_deployed, 120);
  EXPECT_GT(report.positions_used, 40);
  // Against ~75 honest HSDirs, 120 attacker positions over 24h should
  // recover the great majority of the service population.
  std::size_t recovered = 0;
  for (const auto& onion : report.onions)
    if (expected.count(onion)) ++recovered;
  EXPECT_GT(recovered, expected.size() * 6 / 10);
  EXPECT_GT(report.descriptors_collected, 0);
}

TEST(HarvesterTest, OwnsItsRelays) {
  sim::World world(harvest_world_config(11));
  ShadowHarvester harvester(HarvesterConfig{.num_ips = 2,
                                            .relays_per_ip = 4,
                                            .bandwidth_kbps = 5000});
  harvester.deploy(world);
  EXPECT_EQ(harvester.relay_ids().size(), 8u);
  for (const auto id : harvester.relay_ids()) EXPECT_TRUE(harvester.owns(id));
  EXPECT_FALSE(harvester.owns(0));  // an honest relay
}

TEST(HarvesterTest, RespectsTwoPerIpRule) {
  sim::World world(harvest_world_config(12));
  ShadowHarvester harvester(HarvesterConfig{.num_ips = 3,
                                            .relays_per_ip = 8,
                                            .bandwidth_kbps = 5000});
  harvester.deploy(world);
  world.step_hour();
  // Only 2 relays per attacker IP may appear in any consensus.
  std::map<std::uint32_t, int> per_ip;
  for (const auto id : harvester.relay_ids()) {
    if (world.consensus().find_relay(id) != nullptr)
      ++per_ip[world.registry().get(id).config().address.value()];
  }
  for (const auto& [ip, count] : per_ip) EXPECT_LE(count, 2);
}

TEST(HarvesterTest, RequiresDeployBeforeRun) {
  sim::World world(harvest_world_config(13));
  ShadowHarvester harvester;
  EXPECT_THROW(harvester.run(world, 1), std::logic_error);
}

TEST(HarvesterTest, RejectsBadConfig) {
  EXPECT_THROW(ShadowHarvester(HarvesterConfig{.num_ips = 0,
                                               .relays_per_ip = 4,
                                               .bandwidth_kbps = 1}),
               std::invalid_argument);
  EXPECT_THROW(ShadowHarvester(HarvesterConfig{.num_ips = 1,
                                               .relays_per_ip = 1,
                                               .bandwidth_kbps = 1}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// client deanonymisation (Sec. VI, small world end-to-end)
// ---------------------------------------------------------------------

TEST(DeanonymizerTest, EndToEndRecoversClientAddresses) {
  sim::WorldConfig wc;
  wc.seed = 20;
  wc.honest_relays = 150;
  sim::World world(wc);
  const auto target_index = world.add_service();

  DeanonymizerConfig config;
  config.guard_relays = 30;  // large share of guard capacity
  ClientDeanonymizer attacker(config);
  attacker.deploy_guards(world);
  EXPECT_GT(attacker.position_hsdirs(world, world.service(target_index)), 0);
  // Re-publish so the attacker's freshly positioned HSDirs hold the
  // descriptor.
  world.step_hour();

  // A fleet of clients repeatedly fetches the target's descriptor.
  std::vector<hs::Client> clients;
  for (int i = 0; i < 60; ++i)
    clients.emplace_back(util::Ipv4::random_public(world.rng()),
                         9000 + static_cast<std::uint64_t>(i));
  util::Rng trace_rng(21);
  const auto onion = world.service(target_index).onion_address();
  for (auto& client : clients) {
    client.maintain(world.consensus(), world.now());
    for (int round = 0; round < 3; ++round) {
      const auto outcome = client.fetch_descriptor(
          onion, world.consensus(), world.directories(), world.now());
      attacker.observe_fetch(outcome, trace_rng);
    }
  }

  const auto& report = attacker.report();
  EXPECT_EQ(report.fetches_observed, 180);
  EXPECT_GT(report.signatures_injected, 0);
  EXPECT_GT(report.deanonymized, 0);
  EXPECT_FALSE(report.client_addresses.empty());
  // Deanonymisation requires both vantage points.
  EXPECT_LE(report.deanonymized, report.signatures_injected);
  EXPECT_LE(report.deanonymized, report.through_our_guard);
}

TEST(DeanonymizerTest, SuccessRateTracksGuardShare) {
  // With no attacker guards, nothing can be deanonymised even though
  // signatures are injected.
  sim::WorldConfig wc;
  wc.seed = 22;
  wc.honest_relays = 120;
  sim::World world(wc);
  const auto target_index = world.add_service();

  DeanonymizerConfig config;
  config.guard_relays = 0;
  ClientDeanonymizer attacker(config);
  attacker.position_hsdirs(world, world.service(target_index));
  world.step_hour();

  hs::Client client(util::Ipv4(99, 1, 2, 3), 777);
  client.maintain(world.consensus(), world.now());
  util::Rng trace_rng(23);
  for (int i = 0; i < 50; ++i) {
    const auto outcome = client.fetch_descriptor(
        world.service(target_index).onion_address(), world.consensus(),
        world.directories(), world.now());
    attacker.observe_fetch(outcome, trace_rng);
  }
  EXPECT_GT(attacker.report().signatures_injected, 0);
  EXPECT_EQ(attacker.report().deanonymized, 0);
}

TEST(DeanonymizerTest, RepositionsAfterDescriptorRotation) {
  sim::WorldConfig wc;
  wc.seed = 24;
  wc.honest_relays = 120;
  sim::World world(wc);
  const auto target_index = world.add_service();

  ClientDeanonymizer attacker;
  const int first = attacker.position_hsdirs(world, world.service(target_index));
  EXPECT_GT(first, 0);
  // Same period: no repositioning.
  EXPECT_EQ(attacker.position_hsdirs(world, world.service(target_index)), 0);
  // Advance past the period boundary: fingerprints must be re-ground.
  world.run_hours(25);
  const int again =
      attacker.position_hsdirs(world, world.service(target_index));
  EXPECT_GT(again, 0);
  // The standing relays carry fingerprint-switch history — the very
  // signal Sec. VII's detector hunts for.
  bool switched = false;
  for (const auto id : attacker.hsdir_ids())
    switched |= world.registry().get(id).fingerprint_switches() > 0;
  EXPECT_TRUE(switched);
}

TEST(DeanonymizerTest, PositionedHsdirsAreResponsible) {
  sim::WorldConfig wc;
  wc.seed = 25;
  wc.honest_relays = 120;
  sim::World world(wc);
  const auto target_index = world.add_service();

  ClientDeanonymizer attacker;
  attacker.position_hsdirs(world, world.service(target_index));
  const auto ids =
      world.service(target_index).current_descriptor_ids(world.now());
  // For each replica, at least one responsible HSDir is the attacker's.
  int replicas_covered = 0;
  for (const auto& id : ids) {
    bool covered = false;
    for (const auto* e : world.consensus().responsible_hsdirs(id))
      for (const auto attacker_id : attacker.hsdir_ids())
        covered |= e->relay == attacker_id;
    if (covered) ++replicas_covered;
  }
  EXPECT_EQ(replicas_covered, 2);
}

}  // namespace
}  // namespace torsim::attack

namespace torsim::attack {
namespace {

// ---------------------------------------------------------------------
// service deanonymisation (the S&P'13 predecessor Sec. VI adapts)
// ---------------------------------------------------------------------

TEST(ServiceDeanonTest, RecoversOperatorAddress) {
  sim::WorldConfig wc;
  wc.seed = 30;
  wc.honest_relays = 200;
  sim::World world(wc);
  const auto target_index = world.add_service();
  const auto target = world.service(target_index);
  target.set_address(util::Ipv4(203, 0, 113, 99));

  DeanonymizerConfig config;
  config.guard_relays = 40;  // large bandwidth share
  ClientDeanonymizer attacker(config);
  attacker.deploy_guards(world);
  attacker.position_hsdirs(world, target);

  // The service maintains guards and republishes daily; each upload is
  // an attack opportunity.
  util::Rng trace_rng(31);
  int deanon_days = 0;
  for (int day = 0; day < 10; ++day) {
    world.run_hours(24);
    attacker.position_hsdirs(world, target);
    target.maintain_guards(world.consensus(), world.rng(), world.now());
    target.maybe_publish(/*force=*/true);
    for (const auto& record : target.last_publish_records()) {
      if (attacker.observe_publish(record, target.address(), trace_rng))
        ++deanon_days;
    }
  }

  const auto& report = attacker.report();
  EXPECT_GT(report.publishes_observed, 0);
  EXPECT_GT(report.service_deanonymized, 0);
  ASSERT_EQ(report.service_addresses.size(), 1u);
  EXPECT_EQ(*report.service_addresses.begin(),
            util::Ipv4(203, 0, 113, 99).value());
  EXPECT_GT(deanon_days, 0);
}

TEST(ServiceDeanonTest, GuardlessServiceNotDeanonymised) {
  // A service that never maintains guards publishes without a guard
  // hop; the attack has no vantage point at the first hop.
  sim::WorldConfig wc;
  wc.seed = 32;
  wc.honest_relays = 150;
  sim::World world(wc);
  const auto target_index = world.add_service();
  const auto target = world.service(target_index);

  ClientDeanonymizer attacker;
  attacker.deploy_guards(world);
  attacker.position_hsdirs(world, target);
  world.step_hour();
  target.maybe_publish(true);

  util::Rng trace_rng(33);
  for (const auto& record : target.last_publish_records()) {
    EXPECT_EQ(record.guard, relay::kInvalidRelayId);
    EXPECT_FALSE(
        attacker.observe_publish(record, target.address(), trace_rng));
  }
  EXPECT_EQ(attacker.report().service_deanonymized, 0);
}

TEST(ServiceDeanonTest, PublishRecordsMatchReceivers) {
  sim::WorldConfig wc;
  wc.seed = 34;
  wc.honest_relays = 150;
  sim::World world(wc);
  const auto index = world.add_service();
  const auto host = world.service(index);
  host.maintain_guards(world.consensus(), world.rng(), world.now());
  const auto receivers = host.maybe_publish(true);
  ASSERT_EQ(host.last_publish_records().size(), receivers.size());
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    EXPECT_EQ(host.last_publish_records()[i].hsdir, receivers[i]);
    EXPECT_NE(host.last_publish_records()[i].guard, relay::kInvalidRelayId);
  }
}

}  // namespace
}  // namespace torsim::attack
