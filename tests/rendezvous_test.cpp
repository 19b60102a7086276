#include <gtest/gtest.h>

#include <set>

#include "hs/rendezvous.hpp"
#include "sim/world.hpp"

namespace torsim::hs {
namespace {

/// rendezvous_connect from `client` to World service `index`.
RendezvousOutcome connect_to(Client& client, sim::World& world,
                             std::size_t index,
                             std::span<const std::uint8_t> cookie = {}) {
  const auto service = world.service(index);
  return rendezvous_connect(client, service.onion_address(), service.guards(),
                            world.consensus(), world.directories(),
                            world.rng(), world.now(), cookie);
}

struct RendezvousFixture {
  sim::World world;
  std::size_t service_index;
  Client client{util::Ipv4(203, 0, 113, 9), 4242};

  explicit RendezvousFixture(std::uint64_t seed = 99)
      : world([&] {
          sim::WorldConfig config;
          config.seed = seed;
          config.honest_relays = 200;
          return config;
        }()) {
    service_index = world.add_service();
    world.service(service_index)
        .maintain_guards(world.consensus(), world.rng(), world.now());
    client.maintain(world.consensus(), world.now());
  }

  sim::World::ServiceRef service() { return world.service(service_index); }

  RendezvousOutcome connect() {
    return connect_to(client, world, service_index);
  }
};

TEST(RendezvousTest, SuccessfulConnection) {
  RendezvousFixture fx;
  const auto outcome = fx.connect();
  ASSERT_TRUE(outcome.success) << to_string(outcome.failure);
  EXPECT_EQ(outcome.failure, RendezvousFailure::kNone);
  EXPECT_NE(outcome.client_guard, relay::kInvalidRelayId);
  EXPECT_NE(outcome.service_guard, relay::kInvalidRelayId);
  EXPECT_NE(outcome.intro_point, relay::kInvalidRelayId);
  EXPECT_NE(outcome.rendezvous_point, relay::kInvalidRelayId);
  EXPECT_NE(outcome.cookie, 0u);
  EXPECT_GE(outcome.setup_cells, 10);
}

TEST(RendezvousTest, GuardsFrontBothSides) {
  RendezvousFixture fx;
  const auto outcome = fx.connect();
  ASSERT_TRUE(outcome.success);
  // Both first hops carry the Guard flag in the consensus.
  for (const auto id : {outcome.client_guard, outcome.service_guard}) {
    const auto* entry = fx.world.consensus().find_relay(id);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(has_flag(entry->flags, dirauth::Flag::kGuard));
  }
}

TEST(RendezvousTest, IntroPointComesFromDescriptor) {
  RendezvousFixture fx;
  const auto outcome = fx.connect();
  ASSERT_TRUE(outcome.success);
  const auto* entry = fx.world.consensus().find_relay(outcome.intro_point);
  ASSERT_NE(entry, nullptr);
  bool advertised = false;
  for (const auto& fp : fx.service().introduction_points())
    advertised |= fp == entry->fingerprint;
  EXPECT_TRUE(advertised);
}

TEST(RendezvousTest, FailsWithoutDescriptor) {
  RendezvousFixture fx;
  // Advance past the period boundary without letting the service
  // republish: the new descriptor ids are nowhere.
  fx.service().set_online(false);
  fx.world.run_hours(30);
  fx.client.maintain(fx.world.consensus(), fx.world.now());
  const auto outcome = fx.connect();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, RendezvousFailure::kNoDescriptor);
}

TEST(RendezvousTest, FailsWithoutClientGuard) {
  RendezvousFixture fx;
  Client fresh(util::Ipv4(203, 0, 113, 10), 1);  // never maintained
  const auto outcome = connect_to(fresh, fx.world, fx.service_index);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, RendezvousFailure::kNoClientGuard);
}

TEST(RendezvousTest, FailsWithoutServiceGuard) {
  sim::WorldConfig config;
  config.seed = 101;
  config.honest_relays = 200;
  sim::World world(config);
  const auto index = world.add_service();  // guards never maintained
  Client client(util::Ipv4(203, 0, 113, 11), 2);
  client.maintain(world.consensus(), world.now());
  const auto outcome = connect_to(client, world, index);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, RendezvousFailure::kNoServiceGuard);
}

TEST(RendezvousTest, ReconnectsAfterDescriptorRotation) {
  RendezvousFixture fx;
  // A day later the world has stepped (services republish each hour
  // step) — connection must still work.
  fx.world.run_hours(26);
  fx.client.maintain(fx.world.consensus(), fx.world.now());
  fx.service().maintain_guards(fx.world.consensus(), fx.world.rng(),
                               fx.world.now());
  const auto outcome = fx.connect();
  EXPECT_TRUE(outcome.success) << to_string(outcome.failure);
}

TEST(RendezvousTest, ManyConnectionsUseVariedRelays) {
  RendezvousFixture fx;
  std::set<relay::RelayId> rps, intros;
  for (int i = 0; i < 30; ++i) {
    const auto outcome = fx.connect();
    ASSERT_TRUE(outcome.success);
    rps.insert(outcome.rendezvous_point);
    intros.insert(outcome.intro_point);
  }
  EXPECT_GT(rps.size(), 10u);    // RP is freshly random per attempt
  EXPECT_LE(intros.size(), 3u);  // intro points come from the descriptor
  EXPECT_GE(intros.size(), 1u);
}

TEST(RendezvousTest, CookiesAreUnique) {
  RendezvousFixture fx;
  std::set<std::uint64_t> cookies;
  for (int i = 0; i < 20; ++i) {
    const auto outcome = fx.connect();
    ASSERT_TRUE(outcome.success);
    cookies.insert(outcome.cookie);
  }
  EXPECT_EQ(cookies.size(), 20u);
}

TEST(RendezvousTest, FailureNamesComplete) {
  EXPECT_STREQ(to_string(RendezvousFailure::kNone), "none");
  EXPECT_STREQ(to_string(RendezvousFailure::kNoDescriptor), "no-descriptor");
  EXPECT_STREQ(to_string(RendezvousFailure::kIntroPointGone),
               "intro-point-gone");
  EXPECT_STREQ(to_string(RendezvousFailure::kNoRendezvousPoint),
               "no-rendezvous-point");
}

}  // namespace
}  // namespace torsim::hs

namespace torsim::hs {
namespace {

TEST(RendezvousTest, RetriesDeadIntroPoints) {
  RendezvousFixture fx(777);
  // Kill every relay currently advertised as an intro point except one,
  // then rebuild the consensus: the connect must fall through to the
  // survivor.
  const auto intros = fx.service().introduction_points();
  ASSERT_GE(intros.size(), 2u);
  for (std::size_t i = 0; i + 1 < intros.size(); ++i) {
    const auto* entry = fx.world.consensus().find(intros[i]);
    if (entry != nullptr)
      fx.world.registry().get(entry->relay).set_online(false,
                                                       fx.world.now());
  }
  fx.world.rebuild_consensus();
  fx.client.maintain(fx.world.consensus(), fx.world.now());

  int successes = 0;
  for (int i = 0; i < 10; ++i) {
    const auto outcome = fx.connect();
    if (outcome.success) {
      ++successes;
      // The survivor intro point served the introduction.
      const auto* entry =
          fx.world.consensus().find_relay(outcome.intro_point);
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(entry->fingerprint, intros.back());
    }
  }
  EXPECT_GE(successes, 8);  // descriptor fetch may still occasionally miss
}

TEST(RendezvousTest, AllIntroPointsDeadFails) {
  RendezvousFixture fx(778);
  for (const auto& fp : fx.service().introduction_points()) {
    const auto* entry = fx.world.consensus().find(fp);
    if (entry != nullptr)
      fx.world.registry().get(entry->relay).set_online(false,
                                                       fx.world.now());
  }
  fx.world.rebuild_consensus();
  fx.client.maintain(fx.world.consensus(), fx.world.now());
  const auto outcome = fx.connect();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, RendezvousFailure::kIntroPointGone);
}

// ---------------------------------------------------------------------
// failure injection: the protocol under heavy churn
// ---------------------------------------------------------------------

TEST(RendezvousTest, SurvivesHeavyChurn) {
  sim::WorldConfig config;
  config.seed = 779;
  config.honest_relays = 250;
  config.hourly_down_probability = 0.08;  // brutal churn
  config.hourly_up_probability = 0.5;
  sim::World world(config);
  const auto index = world.add_service();
  Client client(util::Ipv4(203, 0, 113, 50), 7);

  int successes = 0, attempts = 0;
  for (int hour = 0; hour < 48; ++hour) {
    world.step_hour();
    world.service(index).maintain_guards(world.consensus(), world.rng(),
                                         world.now());
    client.maintain(world.consensus(), world.now());
    const auto outcome = connect_to(client, world, index);
    ++attempts;
    successes += outcome.success;
  }
  // Churn breaks individual attempts but the protocol self-heals as the
  // service republishes and guards resample.
  EXPECT_GT(successes, attempts / 2);
}

}  // namespace
}  // namespace torsim::hs

namespace torsim::hs {
namespace {

// ---------------------------------------------------------------------
// injected circuit stalls: typed timeout outcomes (satellite of the
// fault-injection engine; the full storm lives in chaos_scenario_test)
// ---------------------------------------------------------------------

struct StallFixture {
  sim::World world;
  std::size_t service_index;
  Client client{util::Ipv4(203, 0, 113, 9), 4242};

  explicit StallFixture(double stall_rate, int retries)
      : world([&] {
          sim::WorldConfig config;
          config.seed = 99;
          config.honest_relays = 200;
          config.faults.circuit_stall_rate = stall_rate;
          config.faults.retry.max_attempts = retries;
          return config;
        }()) {
    service_index = world.add_service();
    world.service(service_index)
        .maintain_guards(world.consensus(), world.rng(), world.now());
    client.maintain(world.consensus(), world.now());
  }

  RendezvousOutcome connect() {
    return connect_to(client, world, service_index);
  }
};

TEST(RendezvousFaultTest, TotalStallExhaustsRpRetries) {
  StallFixture fx(1.0, 3);
  const auto outcome = fx.connect();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.failure, RendezvousFailure::kRendezvousTimeout);
  EXPECT_EQ(outcome.rp_attempts, 3);
  // Every retry was charged its exponential backoff as sim-time.
  EXPECT_EQ(outcome.backoff_spent,
            fx.world.config().faults.retry.total_backoff(3));
  EXPECT_STREQ(to_string(outcome.failure), "rendezvous-timeout");
}

TEST(RendezvousFaultTest, PartialStallSurfacesEveryTimeoutKind) {
  // At an 80% stall rate with 2 tries per circuit, all three stall sites
  // fail often enough that each typed outcome shows up in a storm —
  // and successes still happen (retried-to-success).
  StallFixture fx(0.8, 2);
  int successes = 0;
  std::set<RendezvousFailure> seen;
  for (int i = 0; i < 300; ++i) {
    const auto outcome = fx.connect();
    if (outcome.success) {
      ++successes;
      EXPECT_EQ(outcome.failure, RendezvousFailure::kNone);
    } else {
      seen.insert(outcome.failure);
    }
    EXPECT_LE(outcome.rp_attempts, 2);
  }
  EXPECT_GT(successes, 0);
  EXPECT_TRUE(seen.count(RendezvousFailure::kRendezvousTimeout));
  EXPECT_TRUE(seen.count(RendezvousFailure::kIntroTimeout));
  EXPECT_TRUE(seen.count(RendezvousFailure::kServiceCircuitTimeout));
}

TEST(RendezvousFaultTest, ZeroStallNeverRetries) {
  StallFixture fx(0.0, 3);
  for (int i = 0; i < 20; ++i) {
    const auto outcome = fx.connect();
    ASSERT_TRUE(outcome.success) << to_string(outcome.failure);
    EXPECT_EQ(outcome.rp_attempts, 1);
    EXPECT_EQ(outcome.backoff_spent, 0);
  }
}

// ---------------------------------------------------------------------
// guard resampling under unreachability
// ---------------------------------------------------------------------

TEST(RendezvousFaultTest, GuardsResampleWhenFewerThanTwoReachable) {
  RendezvousFixture fx(881);
  // Knock every current client guard out of the consensus.
  const auto original = fx.client.guards().guards();
  ASSERT_EQ(original.size(), 3u);
  for (const auto& slot : original)
    fx.world.registry().get(slot.relay).set_online(false, fx.world.now());
  fx.world.rebuild_consensus();

  // With zero reachable guards, maintain() must resample a full set
  // (the "< 2 reachable" rule) and connections must work again.
  fx.client.maintain(fx.world.consensus(), fx.world.now());
  const auto& resampled = fx.client.guards().guards();
  ASSERT_EQ(resampled.size(), 3u);
  int still_listed = 0;
  for (const auto& slot : resampled)
    still_listed +=
        fx.world.consensus().find_relay(slot.relay) != nullptr;
  EXPECT_EQ(still_listed, 3);
  fx.service().maintain_guards(fx.world.consensus(), fx.world.rng(),
                               fx.world.now());
  const auto outcome = fx.connect();
  EXPECT_TRUE(outcome.success) << to_string(outcome.failure);
}

TEST(RendezvousFaultTest, OneDeadGuardDoesNotForceResample) {
  RendezvousFixture fx(882);
  const auto original = fx.client.guards().guards();
  ASSERT_EQ(original.size(), 3u);
  // Kill exactly one guard: two remain reachable, so the set is kept.
  fx.world.registry().get(original[0].relay).set_online(false,
                                                        fx.world.now());
  fx.world.rebuild_consensus();
  fx.client.maintain(fx.world.consensus(), fx.world.now());
  const auto& kept = fx.client.guards().guards();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[1].relay, original[1].relay);
  EXPECT_EQ(kept[2].relay, original[2].relay);
  fx.service().maintain_guards(fx.world.consensus(), fx.world.rng(),
                               fx.world.now());
  const auto outcome = fx.connect();
  EXPECT_TRUE(outcome.success) << to_string(outcome.failure);
}

TEST(RendezvousTest, StealthServiceRequiresCookie) {
  sim::WorldConfig config;
  config.seed = 880;
  config.honest_relays = 200;
  sim::World world(config);

  const std::vector<std::uint8_t> cookie = {1, 2, 3, 4};
  const auto index =
      world.add_service(crypto::KeyPair::generate(world.rng()), cookie);
  world.service(index).maintain_guards(world.consensus(), world.rng(),
                                       world.now());

  Client member(util::Ipv4(203, 0, 113, 70), 5);
  member.maintain(world.consensus(), world.now());
  const auto authed = connect_to(member, world, index, cookie);
  EXPECT_TRUE(authed.success) << to_string(authed.failure);

  Client outsider(util::Ipv4(203, 0, 113, 71), 6);
  outsider.maintain(world.consensus(), world.now());
  const auto blind = connect_to(outsider, world, index);
  EXPECT_FALSE(blind.success);
  EXPECT_EQ(blind.failure, RendezvousFailure::kNoDescriptor);
}

}  // namespace
}  // namespace torsim::hs
