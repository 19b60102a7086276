#include <gtest/gtest.h>

#include "dirauth/archive.hpp"
#include "dirauth/authority.hpp"
#include "relay/registry.hpp"

namespace torsim {
namespace {

using dirauth::Authority;
using dirauth::AuthorityPolicy;
using dirauth::Consensus;
using dirauth::ConsensusArchive;
using dirauth::Flag;
using relay::Registry;
using relay::RelayConfig;

constexpr util::UnixTime kT0 = 1359676800;  // 2013-02-01

RelayConfig make_config(const std::string& nick, util::Ipv4 ip,
                        double bw = 100.0) {
  RelayConfig rc;
  rc.nickname = nick;
  rc.address = ip;
  rc.bandwidth_kbps = bw;
  return rc;
}

// ---------------------------------------------------------------------
// Relay
// ---------------------------------------------------------------------

TEST(RelayTest, UptimeAccrual) {
  util::Rng rng(1);
  Registry registry;
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 4)),
                                  rng, kT0);
  relay::Relay& r = registry.get(id);
  EXPECT_FALSE(r.online());
  EXPECT_EQ(r.continuous_uptime(kT0 + 100), 0);
  r.set_online(true, kT0);
  EXPECT_EQ(r.continuous_uptime(kT0 + 3600), 3600);
  r.set_online(false, kT0 + 3600);
  EXPECT_EQ(r.continuous_uptime(kT0 + 7200), 0);
  r.set_online(true, kT0 + 7200);
  EXPECT_EQ(r.continuous_uptime(kT0 + 7300), 100);  // reset after downtime
}

TEST(RelayTest, SetOnlineIdempotent) {
  util::Rng rng(2);
  Registry registry;
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 4)),
                                  rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);
  r.set_online(true, kT0 + 1000);  // should not reset uptime start
  EXPECT_EQ(r.continuous_uptime(kT0 + 2000), 2000);
}

TEST(RelayTest, IdentityRotationRecordsHistory) {
  util::Rng rng(3);
  Registry registry;
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 4)),
                                  rng, kT0);
  relay::Relay& r = registry.get(id);
  const auto fp0 = r.fingerprint();
  r.rotate_identity(rng, kT0 + 100);
  EXPECT_NE(r.fingerprint(), fp0);
  EXPECT_EQ(r.fingerprint_switches(), 1u);
  ASSERT_EQ(r.identity_history().size(), 2u);
  EXPECT_EQ(r.identity_history()[0].fingerprint, fp0);
  EXPECT_EQ(r.identity_history()[1].since, kT0 + 100);
}

TEST(RelayTest, RotationKeepsUptime) {
  util::Rng rng(4);
  Registry registry;
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 4)),
                                  rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);
  r.rotate_identity(rng, kT0 + 5000);
  EXPECT_EQ(r.continuous_uptime(kT0 + 10000), 10000);
}

TEST(RegistryTest, LookupAndAddressIndex) {
  util::Rng rng(5);
  Registry registry;
  const util::Ipv4 shared(9, 9, 9, 9);
  const auto a = registry.create(make_config("a", shared), rng, kT0);
  const auto b = registry.create(make_config("b", shared), rng, kT0);
  const auto c = registry.create(make_config("c", util::Ipv4(8, 8, 8, 8)),
                                 rng, kT0);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.ids_at_address(shared),
            (std::vector<relay::RelayId>{a, b}));
  EXPECT_EQ(registry.ids_at_address(util::Ipv4(7, 7, 7, 7)).size(), 0u);
  EXPECT_THROW(registry.get(99), std::out_of_range);
  registry.get(c).set_online(true, kT0);
  EXPECT_EQ(registry.online_ids(), std::vector<relay::RelayId>{c});
}

// ---------------------------------------------------------------------
// Authority flags
// ---------------------------------------------------------------------

TEST(AuthorityTest, HsdirFlagRequires25Hours) {
  util::Rng rng(6);
  Registry registry;
  Authority authority;
  const auto id = registry.create(
      make_config("r", util::Ipv4(1, 2, 3, 4), 100.0), rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);

  const auto flags_at = [&](util::Seconds uptime) {
    return authority.compute_flags(r, 100.0, kT0 + uptime);
  };
  EXPECT_FALSE(has_flag(flags_at(24 * 3600), Flag::kHSDir));
  EXPECT_FALSE(has_flag(flags_at(25 * 3600 - 1), Flag::kHSDir));
  EXPECT_TRUE(has_flag(flags_at(25 * 3600), Flag::kHSDir));
}

TEST(AuthorityTest, StableAndFastFlags) {
  util::Rng rng(7);
  Registry registry;
  Authority authority;
  const auto id = registry.create(
      make_config("r", util::Ipv4(1, 2, 3, 4), 10.0), rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);
  auto flags = authority.compute_flags(r, 100.0, kT0 + 25 * 3600);
  EXPECT_FALSE(has_flag(flags, Flag::kFast));  // 10 kbps < 20 kbps floor
  EXPECT_TRUE(has_flag(flags, Flag::kStable));
  EXPECT_TRUE(has_flag(flags, Flag::kRunning));
}

TEST(AuthorityTest, GuardNeedsUptimeAndBandwidth) {
  util::Rng rng(8);
  Registry registry;
  Authority authority;
  const auto id = registry.create(
      make_config("r", util::Ipv4(1, 2, 3, 4), 200.0), rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);
  EXPECT_FALSE(has_flag(
      authority.compute_flags(r, 100.0, kT0 + 7 * util::kSecondsPerDay),
      Flag::kGuard));
  EXPECT_TRUE(has_flag(
      authority.compute_flags(r, 100.0, kT0 + 8 * util::kSecondsPerDay),
      Flag::kGuard));
  // Below-median bandwidth: no guard.
  EXPECT_FALSE(has_flag(
      authority.compute_flags(r, 300.0, kT0 + 9 * util::kSecondsPerDay),
      Flag::kGuard));
}

TEST(AuthorityTest, OfflineRelayHasNoFlags) {
  util::Rng rng(9);
  Registry registry;
  Authority authority;
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 4)),
                                  rng, kT0);
  EXPECT_EQ(authority.compute_flags(registry.get(id), 100.0, kT0 + 9999), 0);
}

// ---------------------------------------------------------------------
// Consensus building: the 2-per-IP rule and shadow relays
// ---------------------------------------------------------------------

TEST(AuthorityTest, TwoRelaysPerIpInConsensus) {
  util::Rng rng(10);
  Registry registry;
  Authority authority;
  const util::Ipv4 shared(5, 5, 5, 5);
  for (int i = 0; i < 5; ++i) {
    const auto id = registry.create(
        make_config("r" + std::to_string(i), shared, 100.0 + i), rng, kT0);
    registry.get(id).set_online(true, kT0);
  }
  const Consensus consensus =
      authority.build_consensus(registry, kT0 + 3600);
  EXPECT_EQ(consensus.size(), 2u);
  // The two highest-bandwidth relays won the election.
  for (const auto& entry : consensus.entries())
    EXPECT_GE(entry.bandwidth_kbps, 103.0);
}

TEST(AuthorityTest, ShadowRelayAccruesFlagsWhileHidden) {
  util::Rng rng(11);
  Registry registry;
  Authority authority;
  const util::Ipv4 shared(5, 5, 5, 5);
  // Two strong actives + one weak shadow, all up from t0.
  const auto a = registry.create(make_config("a", shared, 300), rng, kT0);
  const auto b = registry.create(make_config("b", shared, 200), rng, kT0);
  const auto shadow = registry.create(make_config("s", shared, 100), rng, kT0);
  for (auto id : {a, b, shadow}) registry.get(id).set_online(true, kT0);

  const util::UnixTime later = kT0 + 26 * 3600;
  Consensus before = authority.build_consensus(registry, later);
  EXPECT_EQ(before.find_relay(shadow), nullptr);  // hidden

  // Firewall the actives from the authorities (the shadowing move).
  registry.get(a).set_authority_reachable(false);
  registry.get(b).set_authority_reachable(false);
  Consensus after = authority.build_consensus(registry, later);
  const auto* entry = after.find_relay(shadow);
  ASSERT_NE(entry, nullptr);
  // Crucially: the shadow surfaces with HSDir immediately — its uptime
  // accrued while invisible.
  EXPECT_TRUE(has_flag(entry->flags, Flag::kHSDir));
}

TEST(ConsensusTest, EntriesSortedByFingerprint) {
  util::Rng rng(12);
  Registry registry;
  Authority authority;
  for (int i = 0; i < 20; ++i) {
    const auto id = registry.create(
        make_config("r" + std::to_string(i), util::Ipv4::random_public(rng)),
        rng, kT0);
    registry.get(id).set_online(true, kT0);
  }
  const Consensus consensus = authority.build_consensus(registry, kT0 + 60);
  for (std::size_t i = 1; i < consensus.size(); ++i)
    EXPECT_LT(consensus.entries()[i - 1].fingerprint,
              consensus.entries()[i].fingerprint);
}

TEST(ConsensusTest, FindByFingerprintAndRelay) {
  util::Rng rng(13);
  Registry registry;
  Authority authority;
  const auto id = registry.create(make_config("x", util::Ipv4(1, 1, 1, 1)),
                                  rng, kT0);
  registry.get(id).set_online(true, kT0);
  const Consensus consensus = authority.build_consensus(registry, kT0 + 60);
  ASSERT_EQ(consensus.size(), 1u);
  EXPECT_NE(consensus.find(registry.get(id).fingerprint()), nullptr);
  EXPECT_NE(consensus.find_relay(id), nullptr);
  crypto::Fingerprint bogus{};
  EXPECT_EQ(consensus.find(bogus), nullptr);
  EXPECT_EQ(consensus.find_relay(12345), nullptr);
}

TEST(ConsensusTest, ResponsibleHsdirsAreThreeSuccessors) {
  util::Rng rng(14);
  Registry registry;
  Authority authority;
  for (int i = 0; i < 30; ++i) {
    const auto id = registry.create(
        make_config("r" + std::to_string(i), util::Ipv4::random_public(rng)),
        rng, kT0 - 30 * 3600);
    registry.get(id).set_online(true, kT0 - 30 * 3600);  // all HSDir-ripe
  }
  const Consensus consensus = authority.build_consensus(registry, kT0);
  ASSERT_EQ(consensus.hsdir_count(), 30u);

  crypto::DescriptorId id{};
  id[0] = 0x42;
  const auto responsible = consensus.responsible_hsdirs(id);
  ASSERT_EQ(responsible.size(), 3u);
  // Each responsible fingerprint exceeds the id (or wrapped), and they
  // are the immediate successors in ring order.
  const auto& hsdirs = consensus.hsdir_indices();
  std::vector<crypto::Fingerprint> ring;
  for (auto idx : hsdirs) ring.push_back(consensus.entries()[idx].fingerprint);
  std::size_t first = ring.size();
  for (std::size_t i = 0; i < ring.size(); ++i)
    if (ring[i] > id) {
      first = i;
      break;
    }
  first %= ring.size();
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(responsible[k]->fingerprint, ring[(first + k) % ring.size()]);
}

TEST(ConsensusTest, ResponsibleWrapsAroundRing) {
  util::Rng rng(15);
  Registry registry;
  Authority authority;
  for (int i = 0; i < 5; ++i) {
    const auto id = registry.create(
        make_config("r" + std::to_string(i), util::Ipv4::random_public(rng)),
        rng, kT0 - 30 * 3600);
    registry.get(id).set_online(true, kT0 - 30 * 3600);
  }
  const Consensus consensus = authority.build_consensus(registry, kT0);
  crypto::DescriptorId max_id;
  max_id.fill(0xff);
  const auto responsible = consensus.responsible_hsdirs(max_id);
  ASSERT_EQ(responsible.size(), 3u);
  // Wrapped: first responsible is the smallest fingerprint.
  EXPECT_EQ(responsible[0]->fingerprint,
            consensus.entries()[consensus.hsdir_indices()[0]].fingerprint);
}

TEST(ConsensusTest, FewerHsdirsThanReplicaSlots) {
  util::Rng rng(16);
  Registry registry;
  Authority authority;
  const auto id = registry.create(make_config("solo", util::Ipv4(2, 2, 2, 2)),
                                  rng, kT0 - 30 * 3600);
  registry.get(id).set_online(true, kT0 - 30 * 3600);
  const Consensus consensus = authority.build_consensus(registry, kT0);
  crypto::DescriptorId some_id{};
  EXPECT_EQ(consensus.responsible_hsdirs(some_id).size(), 1u);
}

// ---------------------------------------------------------------------
// Archive
// ---------------------------------------------------------------------

TEST(ArchiveTest, LookupByTime) {
  ConsensusArchive archive;
  archive.add(Consensus(100, {}));
  archive.add(Consensus(200, {}));
  archive.add(Consensus(300, {}));
  EXPECT_EQ(archive.consensus_at(50), nullptr);
  EXPECT_EQ(archive.consensus_at(100)->valid_after(), 100);
  EXPECT_EQ(archive.consensus_at(250)->valid_after(), 200);
  EXPECT_EQ(archive.consensus_at(9999)->valid_after(), 300);
}

TEST(ArchiveTest, RejectsNonMonotonicInsert) {
  ConsensusArchive archive;
  archive.add(Consensus(100, {}));
  EXPECT_THROW(archive.add(Consensus(100, {})), std::invalid_argument);
  EXPECT_THROW(archive.add(Consensus(50, {})), std::invalid_argument);
}

TEST(ArchiveTest, Range) {
  ConsensusArchive archive;
  for (util::UnixTime t = 100; t <= 1000; t += 100)
    archive.add(Consensus(t, {}));
  EXPECT_EQ(archive.range(200, 500).size(), 3u);  // 200, 300, 400
  EXPECT_EQ(archive.first_time(), 100);
  EXPECT_EQ(archive.last_time(), 1000);
  ConsensusArchive empty;
  EXPECT_THROW(empty.first_time(), std::logic_error);
}

TEST(ConsensusTest, FlagsToString) {
  dirauth::FlagSet flags = 0;
  flags = with_flag(flags, Flag::kGuard);
  flags = with_flag(flags, Flag::kHSDir);
  EXPECT_EQ(dirauth::flags_to_string(flags), "Guard HSDir");
}

// Consensus generation stamps: DescriptorStore compacts its arena when
// the publishing generation moves on, so a stamp must identify one
// entries() buffer.
dirauth::Consensus make_hsdir_consensus(util::Rng& rng, int n) {
  std::vector<dirauth::ConsensusEntry> entries;
  for (int i = 0; i < n; ++i) {
    dirauth::ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    e.flags = dirauth::with_flag(0, dirauth::Flag::kHSDir);
    entries.push_back(e);
  }
  return {1359676800, std::move(entries)};
}

TEST(ConsensusGenerationTest, DistinctConsensusesGetDistinctStamps) {
  util::Rng rng(506);
  const auto a = make_hsdir_consensus(rng, 8);
  const auto b = make_hsdir_consensus(rng, 8);
  EXPECT_NE(a.generation(), 0u);
  EXPECT_NE(b.generation(), 0u);
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_EQ(dirauth::Consensus().generation(), 0u);
}

TEST(ConsensusGenerationTest, CopyRestampsMovePreserves) {
  util::Rng rng(507);
  auto original = make_hsdir_consensus(rng, 8);
  const std::uint64_t stamp = original.generation();

  // A copy owns a different entries buffer, so it re-stamps.
  const dirauth::Consensus copy(original);
  EXPECT_NE(copy.generation(), stamp);
  EXPECT_NE(copy.generation(), 0u);

  // A move carries the buffer, so pointers into it stay valid: the
  // stamp moves with it and the source decays to the empty consensus.
  const dirauth::Consensus moved(std::move(original));
  EXPECT_EQ(moved.generation(), stamp);
  EXPECT_EQ(original.generation(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(original.size(), 0u);
}

}  // namespace
}  // namespace torsim

namespace torsim {
namespace {

// ---------------------------------------------------------------------
// weighted fractional uptime (Guard gating)
// ---------------------------------------------------------------------

TEST(RelayTest, FractionalUptimeTracksHistory) {
  util::Rng rng(20);
  Registry registry;
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 4)),
                                  rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);
  EXPECT_NEAR(r.fractional_uptime(kT0 + 1000), 1.0, 1e-9);
  r.set_online(false, kT0 + 1000);
  EXPECT_NEAR(r.fractional_uptime(kT0 + 2000), 0.5, 1e-9);
  r.set_online(true, kT0 + 2000);
  EXPECT_NEAR(r.fractional_uptime(kT0 + 4000), 0.75, 1e-9);
}

TEST(RelayTest, FractionalUptimeNeverExceedsOne) {
  util::Rng rng(21);
  Registry registry;
  // Bootstrapped with past uptime (online_since before created).
  const auto id = registry.create(make_config("r", util::Ipv4(1, 2, 3, 5)),
                                  rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0 - 10 * util::kSecondsPerDay);
  EXPECT_LE(r.fractional_uptime(kT0), 1.0);
  EXPECT_GT(r.fractional_uptime(kT0), 0.99);
}

TEST(AuthorityTest, FlappyRelayNeverBecomesGuard) {
  util::Rng rng(22);
  Registry registry;
  Authority authority;
  const auto id = registry.create(
      make_config("flappy", util::Ipv4(1, 2, 3, 6), 500.0), rng, kT0);
  relay::Relay& r = registry.get(id);
  // Nine days of 50% duty cycle (12 h on / 12 h off), then a long
  // continuous stretch that satisfies the raw-uptime rule...
  for (int day = 0; day < 9; ++day) {
    r.set_online(true, kT0 + day * util::kSecondsPerDay);
    r.set_online(false,
                 kT0 + day * util::kSecondsPerDay + 12 * 3600);
  }
  const util::UnixTime resume = kT0 + 9 * util::kSecondsPerDay;
  r.set_online(true, resume);
  const util::UnixTime later = resume + 9 * util::kSecondsPerDay;
  ASSERT_GE(r.continuous_uptime(later), 8 * util::kSecondsPerDay);
  // ...but WFU = (4.5 + 9) / 18 days = 0.75 < 0.90: still no Guard.
  const auto flags = authority.compute_flags(r, 100.0, later);
  EXPECT_FALSE(has_flag(flags, Flag::kGuard));
  EXPECT_TRUE(has_flag(flags, Flag::kHSDir));
}

TEST(AuthorityTest, SteadyRelayBecomesGuard) {
  util::Rng rng(23);
  Registry registry;
  Authority authority;
  const auto id = registry.create(
      make_config("steady", util::Ipv4(1, 2, 3, 7), 500.0), rng, kT0);
  relay::Relay& r = registry.get(id);
  r.set_online(true, kT0);
  const auto flags =
      authority.compute_flags(r, 100.0, kT0 + 9 * util::kSecondsPerDay);
  EXPECT_TRUE(has_flag(flags, Flag::kGuard));
}

}  // namespace
}  // namespace torsim

#include "dirauth/churn.hpp"
#include "sim/world.hpp"

namespace torsim {
namespace {

TEST(ChurnTest, EmptyAndSingleArchives) {
  ConsensusArchive empty;
  const auto none = dirauth::measure_churn(empty);
  EXPECT_EQ(none.consensuses, 0u);

  ConsensusArchive one;
  one.add(Consensus(100, {}));
  const auto single = dirauth::measure_churn(one);
  EXPECT_EQ(single.consensuses, 1u);
  EXPECT_DOUBLE_EQ(single.mean_joins, 0.0);
}

TEST(ChurnTest, StableNetworkHasFullSurvival) {
  util::Rng rng(40);
  Registry registry;
  Authority authority;
  for (int i = 0; i < 30; ++i) {
    const auto id = registry.create(
        make_config("r" + std::to_string(i), util::Ipv4::random_public(rng)),
        rng, kT0 - 30 * 3600);
    registry.get(id).set_online(true, kT0 - 30 * 3600);
  }
  ConsensusArchive archive;
  for (int h = 0; h < 5; ++h)
    archive.add(authority.build_consensus(registry, kT0 + h * 3600));
  const auto report = dirauth::measure_churn(archive);
  EXPECT_DOUBLE_EQ(report.mean_survival, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_joins, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_leaves, 0.0);
  EXPECT_EQ(report.hsdir_series.size(), 5u);
}

TEST(ChurnTest, FingerprintSwitchCountsAsLeavePlusJoin) {
  util::Rng rng(41);
  Registry registry;
  Authority authority;
  const auto id = registry.create(make_config("r", util::Ipv4(4, 4, 4, 4)),
                                  rng, kT0);
  registry.get(id).set_online(true, kT0);
  ConsensusArchive archive;
  archive.add(authority.build_consensus(registry, kT0 + 3600));
  registry.get(id).rotate_identity(rng, kT0 + 4000);
  archive.add(authority.build_consensus(registry, kT0 + 7200));
  const auto report = dirauth::measure_churn(archive);
  EXPECT_DOUBLE_EQ(report.mean_joins, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_leaves, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_survival, 0.0);
}

TEST(ChurnTest, WorldChurnRatesMatchConfig) {
  sim::WorldConfig wc;
  wc.seed = 42;
  wc.honest_relays = 200;
  wc.hourly_down_probability = 0.05;
  wc.hourly_up_probability = 0.5;
  sim::World world(wc);
  world.run_hours(40);
  const auto report = dirauth::measure_churn(world.archive());
  // Survival per hour ~ 1 - down_probability.
  EXPECT_NEAR(report.mean_survival, 0.95, 0.02);
  EXPECT_GT(report.mean_leaves, 2.0);
  EXPECT_GT(report.mean_joins, 2.0);
}

}  // namespace
}  // namespace torsim
