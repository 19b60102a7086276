// Differential gate for the Sec. VII pipeline: the dense-column detector
// with its snapshot-span year passes, and the simulator's patched sorted
// ring, are replayed against the oracles in tests/oracles.hpp (per-server
// map tables, deep-copied year slices, a ring rebuilt and sorted every
// day). Every report field must match exactly, overall and per year,
// and every simulated snapshot must match entry for entry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dirauth/archive.hpp"
#include "oracles.hpp"
#include "trackdet/detector.hpp"
#include "trackdet/history.hpp"
#include "trackdet/history_simulator.hpp"
#include "trackdet/scenario.hpp"
#include "util/rng.hpp"

namespace torsim::trackdet {
namespace {

crypto::PermanentId diff_target() {
  return crypto::permanent_id_from_fingerprint(crypto::sha1("diff-target"));
}

void expect_same_stats(const ServerStats& got, const ServerStats& want) {
  EXPECT_EQ(got.server, want.server);
  EXPECT_EQ(got.periods_observed, want.periods_observed);
  EXPECT_EQ(got.periods_responsible, want.periods_responsible);
  EXPECT_EQ(got.fingerprint_switches, want.fingerprint_switches);
  EXPECT_EQ(got.switches_before_responsible, want.switches_before_responsible);
  EXPECT_EQ(got.responsible_on_first_appearance,
            want.responsible_on_first_appearance);
  EXPECT_EQ(got.max_ratio, want.max_ratio);
  EXPECT_EQ(got.max_consecutive_periods, want.max_consecutive_periods);
}

void expect_same_report(const TrackingReport& got,
                        const TrackingReport& want) {
  EXPECT_EQ(got.snapshots, want.snapshots);
  EXPECT_EQ(got.mean_hsdirs, want.mean_hsdirs);
  EXPECT_EQ(got.suspicion_threshold, want.suspicion_threshold);
  EXPECT_EQ(got.full_takeover_periods, want.full_takeover_periods);
  ASSERT_EQ(got.suspicious.size(), want.suspicious.size());
  for (std::size_t i = 0; i < got.suspicious.size(); ++i) {
    SCOPED_TRACE("suspicious " + std::to_string(i));
    const SuspiciousServer& g = got.suspicious[i];
    const SuspiciousServer& w = want.suspicious[i];
    expect_same_stats(g.stats, w.stats);
    EXPECT_EQ(g.flags.over_three_sigma, w.flags.over_three_sigma);
    EXPECT_EQ(g.flags.switched_before_responsible,
              w.flags.switched_before_responsible);
    EXPECT_EQ(g.flags.immediate_responsibility,
              w.flags.immediate_responsibility);
    EXPECT_EQ(g.flags.positioned, w.flags.positioned);
    EXPECT_EQ(g.flags.consecutive, w.flags.consecutive);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.truth_campaign, w.truth_campaign);
  }
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (std::size_t i = 0; i < got.clusters.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    const CampaignCluster& g = got.clusters[i];
    const CampaignCluster& w = want.clusters[i];
    EXPECT_EQ(g.servers, w.servers);
    EXPECT_EQ(g.shared_prefix, w.shared_prefix);
    EXPECT_EQ(g.first_seen, w.first_seen);
    EXPECT_EQ(g.last_seen, w.last_seen);
    EXPECT_EQ(g.periods_covered, w.periods_covered);
    EXPECT_EQ(g.max_ratio, w.max_ratio);
    EXPECT_EQ(g.full_takeover, w.full_takeover);
  }
}

void expect_same_history(const HsDirHistory& got, const HsDirHistory& want) {
  ASSERT_EQ(got.servers.size(), want.servers.size());
  for (std::size_t i = 0; i < got.servers.size(); ++i) {
    EXPECT_EQ(got.servers[i].id, want.servers[i].id);
    EXPECT_EQ(got.servers[i].name, want.servers[i].name);
    EXPECT_EQ(got.servers[i].address.value(),
              want.servers[i].address.value());
    EXPECT_EQ(got.servers[i].truth_campaign, want.servers[i].truth_campaign);
  }
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  for (std::size_t k = 0; k < got.snapshots.size(); ++k) {
    const Snapshot& g = got.snapshots[k];
    const Snapshot& w = want.snapshots[k];
    EXPECT_EQ(g.time(), w.time()) << "snapshot " << k;
    ASSERT_EQ(g.size(), w.size()) << "snapshot " << k;
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g.entries()[i].fingerprint, w.entries()[i].fingerprint)
          << "snapshot " << k << " entry " << i;
      ASSERT_EQ(g.entries()[i].server, w.entries()[i].server)
          << "snapshot " << k << " entry " << i;
    }
  }
}

class SilkroadDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SilkroadDiffTest, StudyMatchesMapDetectorAndCopiedYears) {
  const SilkroadStudy study = run_silkroad_study(GetParam());
  HistoryConfig config;
  config.seed = GetParam();
  expect_same_history(
      study.history,
      oracle::simulate_sorting_daily(config, silkroad_target(),
                                     silkroad_campaigns()));
  {
    SCOPED_TRACE("overall");
    expect_same_report(study.report, oracle::analyze_with_maps(
                                         study.history, silkroad_target()));
  }
  const std::vector<TrackingReport> yearly =
      oracle::yearly_reports_by_copy(study.history, silkroad_target());
  ASSERT_EQ(study.yearly.size(), yearly.size());
  for (std::size_t y = 0; y < yearly.size(); ++y) {
    SCOPED_TRACE("year " + std::to_string(2011 + y));
    expect_same_report(study.yearly[y], yearly[y]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SilkroadDiffTest,
                         ::testing::Values(7u, 77u, 20130204u));

TEST(TrackdetDiffTest, SpanWindowsMatchCopiedHistories) {
  // Arbitrary windows, empty and one-snapshot ones included.
  HistoryConfig config;
  config.seed = 31;
  config.start = util::make_utc(2013, 4, 1);
  config.end = util::make_utc(2013, 7, 1);
  CampaignSpec spec;
  spec.name = "trawler";
  spec.from = util::make_utc(2013, 5, 21);
  spec.to = util::make_utc(2013, 6, 4);
  spec.servers = 4;
  spec.ring_fraction = 1e-8;
  spec.skip_probability = 4.0 / 14.0;
  const HsDirHistory history =
      HistorySimulator(config).simulate(diff_target(), {spec});
  const TrackingDetector detector;
  util::Rng rng(32);
  const auto n = static_cast<std::int64_t>(history.snapshots.size());
  for (int trial = 0; trial < 12; ++trial) {
    const auto from = static_cast<std::size_t>(rng.uniform_int(0, n));
    const auto to = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(from), n));
    SCOPED_TRACE("window " + std::to_string(from) + ".." + std::to_string(to));
    HsDirHistory slice;
    slice.servers = history.servers;
    slice.snapshots.assign(history.snapshots.begin() + from,
                           history.snapshots.begin() + to);
    expect_same_report(
        detector.analyze(history,
                         std::span<const Snapshot>(history.snapshots)
                             .subspan(from, to - from),
                         diff_target()),
        oracle::analyze_with_maps(slice, diff_target()));
  }
}

TEST(TrackdetDiffTest, HighChurnHistoryMatchesDailySort) {
  HistoryConfig config;
  config.seed = 33;
  config.start = util::make_utc(2013, 3, 1);
  config.end = config.start + 60 * util::kSecondsPerDay;
  config.hsdirs_at_start = 300;
  config.hsdirs_at_end = 420;
  config.daily_death_rate = 0.2;
  config.honest_switch_rate = 0.2;
  CampaignSpec grinder;
  grinder.name = "grinder";
  grinder.from = config.start + 10 * util::kSecondsPerDay;
  grinder.to = config.start + 40 * util::kSecondsPerDay;
  grinder.servers = 3;
  grinder.slots_per_period = 2;
  grinder.ring_fraction = 1e-8;
  grinder.skip_probability = 0.3;
  CampaignSpec sticky;
  sticky.name = "sticky";
  sticky.from = config.start + 5 * util::kSecondsPerDay;
  sticky.to = config.start + 50 * util::kSecondsPerDay;
  sticky.servers = 2;
  sticky.ring_fraction = 1e-6;
  sticky.switch_fingerprints = false;
  CampaignSpec lurker;
  lurker.name = "lurker";
  lurker.from = config.start;
  lurker.to = config.end;
  lurker.servers = 1;
  lurker.skip_probability = 0.8;
  lurker.always_listed = false;
  const std::vector<CampaignSpec> campaigns = {grinder, sticky, lurker};
  const HsDirHistory history =
      HistorySimulator(config).simulate(diff_target(), campaigns);
  expect_same_history(
      history,
      oracle::simulate_sorting_daily(config, diff_target(), campaigns));
  expect_same_report(TrackingDetector().analyze(history, diff_target()),
                     oracle::analyze_with_maps(history, diff_target()));
}

TEST(TrackdetDiffTest, FingerprintTiesKeepTheDailySortOrder) {
  // A zero ring fraction places every slot of one replica at descriptor
  // id + 1, so three servers share a fingerprint each day: the tie order
  // must be the one sorting the creation-order ring gives.
  HistoryConfig config;
  config.seed = 34;
  config.start = util::make_utc(2013, 8, 20);
  config.end = util::make_utc(2013, 9, 10);
  config.hsdirs_at_start = 60;
  config.hsdirs_at_end = 70;
  CampaignSpec tied;
  tied.name = "tied";
  tied.from = util::make_utc(2013, 8, 25);
  tied.to = util::make_utc(2013, 9, 5);
  tied.servers = 6;
  tied.slots_per_period = 6;
  tied.ring_fraction = 0.0;
  const HsDirHistory history =
      HistorySimulator(config).simulate(diff_target(), {tied});
  bool saw_tie = false;
  for (const Snapshot& snap : history.snapshots)
    saw_tie = saw_tie || !fingerprints_strictly_ascending(snap.entries());
  EXPECT_TRUE(saw_tie);
  expect_same_history(
      history, oracle::simulate_sorting_daily(config, diff_target(), {tied}));
  expect_same_report(TrackingDetector().analyze(history, diff_target()),
                     oracle::analyze_with_maps(history, diff_target()));
}

TEST(TrackdetDiffTest, ArchiveServerListedTwiceInOneSnapshot) {
  // history_from_archive maps relays to servers by (address, nickname),
  // so two relays sharing both are one server listed twice per snapshot.
  // Here twin pairs sit right behind the target's descriptor ids on most
  // days, switching keys daily, and join after the first consensus.
  util::Rng rng(35);
  const crypto::PermanentId target = diff_target();
  std::vector<dirauth::ConsensusEntry> honest;
  for (int i = 0; i < 40; ++i) {
    dirauth::ConsensusEntry e;
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    e.nickname = "relay" + std::string(1, static_cast<char>('a' + i % 26)) +
                 std::string(1, static_cast<char>('a' + i / 26));
    e.address = util::Ipv4::random_public(rng);
    e.flags = dirauth::flag_bit(dirauth::Flag::kHSDir);
    honest.push_back(e);
  }
  const util::Ipv4 twin_ip = util::Ipv4::random_public(rng);
  const util::Ipv4 twin2_ip = util::Ipv4::random_public(rng);
  dirauth::ConsensusArchive archive;
  const util::UnixTime start = util::make_utc(2013, 5, 1);
  for (int day = 0; day < 20; ++day) {
    const util::UnixTime t = start + day * util::kSecondsPerDay;
    std::vector<dirauth::ConsensusEntry> entries = honest;
    if (day > 0) {
      const auto ids = crypto::descriptor_ids_for_period(
          target, crypto::time_period(t, target));
      for (int k = 0; k < 4; ++k) {
        dirauth::ConsensusEntry e;
        e.nickname = k < 2 ? "twin" : "twin2";
        e.address = k < 2 ? twin_ip : twin2_ip;
        e.flags = dirauth::flag_bit(dirauth::Flag::kHSDir);
        if (day % 5 == 3) {
          rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
        } else {
          const auto offset = crypto::U160::from_u64(
              static_cast<std::uint64_t>(1 + k + rng.uniform_int(0, 1000)));
          e.fingerprint =
              crypto::U160(ids[static_cast<std::size_t>(k % 2)])
                  .add(offset)
                  .to_digest();
        }
        entries.push_back(e);
      }
    }
    archive.add(dirauth::Consensus(t, std::move(entries)));
  }
  const HsDirHistory history = history_from_archive(archive, 24);
  ASSERT_EQ(history.snapshots.size(), 20u);
  std::size_t twin_entries = 0;
  for (const SnapshotEntry& e : history.snapshots[1].entries())
    if (history.server(e.server).name == "twin") ++twin_entries;
  EXPECT_EQ(twin_entries, 2u);
  const TrackingReport report = TrackingDetector().analyze(history, target);
  expect_same_report(report, oracle::analyze_with_maps(history, target));
  bool twin_cluster = false;
  for (const CampaignCluster& cluster : report.clusters)
    twin_cluster = twin_cluster || cluster.shared_prefix == "twin";
  EXPECT_TRUE(twin_cluster);
}

}  // namespace
}  // namespace torsim::trackdet
