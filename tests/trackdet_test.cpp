#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/world.hpp"
#include "stats/descriptive.hpp"
#include "trackdet/detector.hpp"
#include "trackdet/history.hpp"
#include "trackdet/history_simulator.hpp"
#include "trackdet/scenario.hpp"

namespace torsim::trackdet {
namespace {

crypto::PermanentId test_target() {
  return crypto::permanent_id_from_fingerprint(crypto::sha1("test-target"));
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

TEST(SnapshotTest, EntriesSortedAndResponsibleSuccessors) {
  util::Rng rng(1);
  std::vector<SnapshotEntry> entries;
  for (std::uint32_t i = 0; i < 20; ++i) {
    SnapshotEntry e;
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    e.server = i;
    entries.push_back(e);
  }
  Snapshot snap(0, entries);
  for (std::size_t i = 1; i < snap.entries().size(); ++i)
    EXPECT_LT(snap.entries()[i - 1].fingerprint,
              snap.entries()[i].fingerprint);

  crypto::DescriptorId id{};
  id[0] = 0x77;
  const auto responsible = snap.responsible(id);
  ASSERT_EQ(responsible.size(), 3u);
  // First responsible is the first entry strictly after the id.
  for (const auto& e : snap.entries()) {
    if (e.fingerprint > id) {
      EXPECT_EQ(responsible[0]->fingerprint, e.fingerprint);
      break;
    }
  }
}

TEST(SnapshotTest, ResponsibleWrapsAndHandlesSmallRings) {
  std::vector<SnapshotEntry> entries(2);
  entries[0].fingerprint.fill(0x10);
  entries[0].server = 0;
  entries[1].fingerprint.fill(0x20);
  entries[1].server = 1;
  Snapshot snap(0, entries);
  crypto::DescriptorId high;
  high.fill(0xf0);
  const auto responsible = snap.responsible(high);
  ASSERT_EQ(responsible.size(), 2u);
  EXPECT_EQ(responsible[0]->server, 0u);  // wrapped to the smallest
  Snapshot empty(0, {});
  EXPECT_TRUE(empty.responsible(high).empty());
}

TEST(SnapshotTest, AverageGap) {
  std::vector<SnapshotEntry> entries(4);
  for (int i = 0; i < 4; ++i) entries[static_cast<std::size_t>(i)].server = 0;
  Snapshot snap(0, entries);
  EXPECT_DOUBLE_EQ(snap.average_gap(), std::ldexp(1.0, 160) / 4.0);
}

// ---------------------------------------------------------------------
// HistorySimulator
// ---------------------------------------------------------------------

TEST(HistorySimulatorTest, NetworkGrowsAcrossArchive) {
  HistoryConfig config;
  config.seed = 2;
  config.start = util::make_utc(2012, 1, 1);
  config.end = util::make_utc(2012, 7, 1);
  config.hsdirs_at_start = 300;
  config.hsdirs_at_end = 600;
  const auto history = HistorySimulator(config).simulate(test_target(), {});
  ASSERT_FALSE(history.snapshots.empty());
  EXPECT_NEAR(static_cast<double>(history.snapshots.front().size()), 300, 10);
  EXPECT_NEAR(static_cast<double>(history.snapshots.back().size()), 600, 15);
}

TEST(HistorySimulatorTest, OneSnapshotPerDay) {
  HistoryConfig config;
  config.seed = 3;
  config.start = util::make_utc(2012, 1, 1);
  config.end = util::make_utc(2012, 2, 1);
  const auto history = HistorySimulator(config).simulate(test_target(), {});
  EXPECT_EQ(history.snapshots.size(), 31u);
  for (std::size_t i = 1; i < history.snapshots.size(); ++i)
    EXPECT_EQ(history.snapshots[i].time() - history.snapshots[i - 1].time(),
              util::kSecondsPerDay);
}

TEST(HistorySimulatorTest, CampaignServersTaggedAndPositioned) {
  HistoryConfig config;
  config.seed = 4;
  config.start = util::make_utc(2013, 5, 1);
  config.end = util::make_utc(2013, 7, 1);
  CampaignSpec spec;
  spec.name = "evil";
  spec.from = util::make_utc(2013, 5, 21);
  spec.to = util::make_utc(2013, 6, 4);
  spec.servers = 4;
  spec.slots_per_period = 1;
  spec.ring_fraction = 1e-8;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  int campaign_servers = 0;
  for (const auto& server : history.servers)
    if (server.truth_campaign == "evil") ++campaign_servers;
  EXPECT_EQ(campaign_servers, 4);

  // During the campaign window, a campaign fingerprint sits within the
  // ground arc of one of the target's descriptor ids.
  int positioned_days = 0;
  for (const auto& snap : history.snapshots) {
    if (snap.time() < spec.from || snap.time() >= spec.to) continue;
    const auto period = crypto::time_period(snap.time(), test_target());
    for (std::uint8_t replica = 0; replica < 2; ++replica) {
      const auto id = crypto::descriptor_id(test_target(), period, replica);
      for (const auto* e : snap.responsible(id)) {
        if (history.server(e->server).truth_campaign == "evil") {
          ++positioned_days;
          const double ratio =
              snap.average_gap() / crypto::ring_distance(id, e->fingerprint);
          EXPECT_GT(ratio, 10000.0);
        }
      }
    }
  }
  EXPECT_GE(positioned_days, 10);
}

TEST(HistorySimulatorTest, SkipProbabilitySkipsPeriods) {
  HistoryConfig config;
  config.seed = 5;
  config.start = util::make_utc(2013, 5, 1);
  config.end = util::make_utc(2013, 6, 10);
  CampaignSpec spec;
  spec.name = "flaky";
  spec.from = util::make_utc(2013, 5, 1);
  spec.to = util::make_utc(2013, 6, 10);
  spec.servers = 2;
  spec.skip_probability = 0.5;
  spec.ring_fraction = 1e-8;
  spec.always_listed = false;  // count ring presence == positioning days
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});
  int active_days = 0;
  for (const auto& snap : history.snapshots) {
    for (const auto& e : snap.entries())
      if (history.server(e.server).truth_campaign == "flaky") {
        ++active_days;
        break;
      }
  }
  EXPECT_GT(active_days, 5);
  EXPECT_LT(active_days, 35);  // ~half of 40 days skipped
}

// ---------------------------------------------------------------------
// TrackingDetector
// ---------------------------------------------------------------------

HsDirHistory clean_history(std::uint64_t seed, int months = 12) {
  HistoryConfig config;
  config.seed = seed;
  config.start = util::make_utc(2012, 1, 1);
  config.end = util::make_utc(2012, 1 + months > 12 ? 12 : 1 + months,
                              months >= 12 ? 31 : 1);
  return HistorySimulator(config).simulate(test_target(), {});
}

TEST(TrackingDetectorTest, CleanYearHasNoStrongSuspects) {
  const auto history = clean_history(6);
  TrackingDetector detector(DetectorConfig{.ratio_threshold = 100.0,
                                           .min_flags = 2,
                                           .min_switches_before_responsible = 2});
  const auto report = detector.analyze(history, test_target());
  // With two rule hits required, honest churn should produce at most a
  // stray hit or two, never a name-sharing cluster with high ratio.
  for (const auto& s : report.suspicious) {
    EXPECT_TRUE(s.truth_campaign.empty());
    EXPECT_LT(s.stats.max_ratio, 10000.0);
  }
  EXPECT_EQ(report.full_takeover_periods, 0);
}

TEST(TrackingDetectorTest, DetectsInjectedCampaign) {
  HistoryConfig config;
  config.seed = 7;
  config.start = util::make_utc(2013, 1, 1);
  config.end = util::make_utc(2013, 12, 31);
  CampaignSpec spec;
  spec.name = "trawler";
  spec.from = util::make_utc(2013, 5, 21);
  spec.to = util::make_utc(2013, 6, 4);
  spec.servers = 4;
  spec.ring_fraction = 1e-8;
  spec.skip_probability = 4.0 / 14.0;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  TrackingDetector detector;
  const auto report = detector.analyze(history, test_target());
  // All four campaign servers flagged...
  std::set<std::string> flagged_campaigns;
  int campaign_hits = 0;
  for (const auto& s : report.suspicious)
    if (s.truth_campaign == "trawler") {
      ++campaign_hits;
      EXPECT_TRUE(s.flags.positioned) << s.name;
      EXPECT_GT(s.stats.max_ratio, 10000.0);
    }
  EXPECT_GE(campaign_hits, 3);
  // ...and clustered by their shared name stem.
  bool cluster_found = false;
  for (const auto& cluster : report.clusters)
    if (cluster.shared_prefix == "trawler") {
      cluster_found = true;
      EXPECT_GE(cluster.servers.size(), 3u);
      EXPECT_GE(cluster.periods_covered, 5);
    }
  EXPECT_TRUE(cluster_found);
}

TEST(TrackingDetectorTest, SuspiciousOrderIsTotalAndReplayable) {
  // Regression for a latent order dependence: the suspicious list used
  // to tie-break in per-server hash-map order. The comparator now ends
  // in the server id, so the report order is a total order — equal
  // (flag-count, periods-responsible) entries must come out in
  // ascending server order, and two analyze() calls must agree exactly.
  HistoryConfig config;
  config.seed = 7;
  config.start = util::make_utc(2013, 1, 1);
  config.end = util::make_utc(2013, 12, 31);
  CampaignSpec spec;
  spec.name = "trawler";
  spec.from = util::make_utc(2013, 5, 21);
  spec.to = util::make_utc(2013, 6, 4);
  spec.servers = 4;
  spec.ring_fraction = 1e-8;
  spec.skip_probability = 4.0 / 14.0;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  TrackingDetector detector;
  const auto report = detector.analyze(history, test_target());
  ASSERT_GT(report.suspicious.size(), 1u);
  for (std::size_t i = 1; i < report.suspicious.size(); ++i) {
    const auto& prev = report.suspicious[i - 1];
    const auto& cur = report.suspicious[i];
    if (prev.flags.count() == cur.flags.count() &&
        prev.stats.periods_responsible == cur.stats.periods_responsible) {
      EXPECT_LT(prev.stats.server, cur.stats.server)
          << "tied entries not in server-id order at index " << i;
    }
  }
  const auto again = detector.analyze(history, test_target());
  ASSERT_EQ(again.suspicious.size(), report.suspicious.size());
  for (std::size_t i = 0; i < report.suspicious.size(); ++i)
    EXPECT_EQ(again.suspicious[i].stats.server,
              report.suspicious[i].stats.server);
  ASSERT_EQ(again.clusters.size(), report.clusters.size());
  for (std::size_t i = 0; i < report.clusters.size(); ++i)
    EXPECT_EQ(again.clusters[i].shared_prefix,
              report.clusters[i].shared_prefix);
}

TEST(TrackingDetectorTest, DetectsFullTakeover) {
  HistoryConfig config;
  config.seed = 8;
  config.start = util::make_utc(2013, 8, 1);
  config.end = util::make_utc(2013, 10, 1);
  CampaignSpec spec;
  spec.name = "seizure";
  spec.from = util::make_utc(2013, 8, 31);
  spec.to = util::make_utc(2013, 9, 1);
  spec.servers = 6;
  spec.slots_per_period = 6;
  spec.ring_fraction = 1e-7;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  TrackingDetector detector;
  const auto report = detector.analyze(history, test_target());
  EXPECT_GE(report.full_takeover_periods, 1);
  bool cluster_found = false;
  for (const auto& cluster : report.clusters)
    if (cluster.shared_prefix == "seizure") {
      cluster_found = true;
      EXPECT_TRUE(cluster.full_takeover);
    }
  EXPECT_TRUE(cluster_found);
}

TEST(TrackingDetectorTest, BinomialThresholdScalesWithHistory) {
  const auto history = clean_history(9, 6);
  TrackingDetector detector;
  const auto report = detector.analyze(history, test_target());
  EXPECT_GT(report.suspicion_threshold, 0.0);
  EXPECT_GT(report.mean_hsdirs, 100.0);
  EXPECT_EQ(report.snapshots,
            static_cast<std::int64_t>(history.snapshots.size()));
}

TEST(TrackingDetectorTest, EmptyHistory) {
  TrackingDetector detector;
  const auto report = detector.analyze(HsDirHistory{}, test_target());
  EXPECT_EQ(report.snapshots, 0);
  EXPECT_TRUE(report.suspicious.empty());
}

TEST(TrackingDetectorTest, RingOfAtMostSixHsDirsClampsTheBinomialP) {
  // p = 6 / N would exceed 1 here; it is clamped to 1, so the binomial
  // threshold (mu + 3 sigma) is the snapshot count.
  HistoryConfig config;
  config.seed = 23;
  config.start = util::make_utc(2012, 3, 1);
  config.end = util::make_utc(2012, 4, 1);
  config.hsdirs_at_start = 4;
  config.hsdirs_at_end = 4;
  const auto history = HistorySimulator(config).simulate(test_target(), {});
  const auto report = TrackingDetector().analyze(history, test_target());
  EXPECT_EQ(report.snapshots,
            static_cast<std::int64_t>(history.snapshots.size()));
  EXPECT_DOUBLE_EQ(report.mean_hsdirs, 4.0);
  EXPECT_DOUBLE_EQ(report.suspicion_threshold,
                   static_cast<double>(report.snapshots));
}

TEST(TrackingDetectorTest, UnknownServerIdThrows) {
  HsDirHistory history;
  history.servers.emplace_back();
  std::vector<SnapshotEntry> entries(2);
  entries[0].fingerprint.fill(0x10);
  entries[1].fingerprint.fill(0x20);
  entries[1].server = 1;  // no such server
  history.snapshots.emplace_back(util::make_utc(2012, 3, 1), entries);
  EXPECT_THROW(TrackingDetector().analyze(history, test_target()),
               std::out_of_range);
}

TEST(TrackingDetectorTest, AllEmptySnapshots) {
  HsDirHistory history;
  for (int day = 0; day < 5; ++day)
    history.snapshots.emplace_back(
        util::make_utc(2012, 3, 1) + day * util::kSecondsPerDay,
        std::vector<SnapshotEntry>{});
  const auto report = TrackingDetector().analyze(history, test_target());
  EXPECT_EQ(report.snapshots, 5);
  EXPECT_EQ(report.mean_hsdirs, 0.0);
  EXPECT_EQ(report.suspicion_threshold, 5.0);
  EXPECT_TRUE(report.suspicious.empty());
  EXPECT_TRUE(report.clusters.empty());
  EXPECT_EQ(report.full_takeover_periods, 0);
}

// ---------------------------------------------------------------------
// Silk Road study (the paper's Sec. VII case, end to end)
// ---------------------------------------------------------------------

// EXPERIMENTS.md's ring ablation: in an honest 1,300-relay ring the
// first responsible HSDir sits at a distance ratio (average gap over
// its distance to a random descriptor id) of median 1.52 and p95 20.89 —
// far below the detector's > 100 for ground keys.
TEST(DistanceRatioTest, HonestRingMedianAndP95) {
  const int ring = 1300;
  const double average_gap = std::ldexp(1.0, 160) / ring;
  util::Rng rng(71);
  std::vector<double> ratios;
  for (int trial = 0; trial < 1000; ++trial) {
    crypto::DescriptorId target;
    rng.fill_bytes(target.data(), target.size());
    double closest = std::ldexp(1.0, 160);
    for (int i = 0; i < ring; ++i) {
      crypto::Sha1Digest fingerprint;
      rng.fill_bytes(fingerprint.data(), fingerprint.size());
      closest = std::min(closest, crypto::ring_distance(target, fingerprint));
    }
    ratios.push_back(average_gap / closest);
  }
  EXPECT_NEAR(stats::median(ratios), 1.52, 0.005);
  EXPECT_NEAR(stats::percentile(ratios, 95), 20.89, 0.005);
}

TEST(SilkroadStudyTest, ReproducesThreeTrackingEpisodes) {
  const auto study = run_silkroad_study(77);
  // Campaign clusters by ground truth.
  std::set<std::string> flagged;
  for (const auto& s : study.report.suspicious)
    if (!s.truth_campaign.empty()) flagged.insert(s.truth_campaign);
  EXPECT_TRUE(flagged.count("uniluxprobe"));  // the authors' own relays
  EXPECT_TRUE(flagged.count("trawlnode"));    // May 2013 campaign
  EXPECT_TRUE(flagged.count("augseizure"));   // 31 Aug full takeover
  // The takeover of all 6 slots happened at least once.
  EXPECT_GE(study.report.full_takeover_periods, 1);
}

TEST(SilkroadStudyTest, YearOneHasNoTrackingCampaign) {
  // The paper: "no clear indication of tracking" in year one — but one
  // strange server obtained the HSDir flag exactly when Silk Road would
  // choose it. Our detector may flag that lurker individually, yet no
  // year-one *campaign cluster* (>= 2 name-sharing servers) exists.
  const auto study = run_silkroad_study(78);
  ASSERT_EQ(study.yearly.size(), 3u);
  for (const auto& s : study.yearly[0].suspicious)
    EXPECT_TRUE(s.truth_campaign.empty() || s.truth_campaign == "oddserver")
        << s.name;
  for (const auto& cluster : study.yearly[0].clusters) {
    for (const auto server : cluster.servers)
      EXPECT_TRUE(study.history.server(server).truth_campaign.empty() ||
                  study.history.server(server).truth_campaign == "oddserver");
  }
  EXPECT_EQ(study.yearly[0].full_takeover_periods, 0);
}

TEST(SilkroadStudyTest, MayCampaignHasExtremeRatios) {
  const auto study = run_silkroad_study(79);
  double may_ratio = 0.0, own_ratio = 0.0;
  for (const auto& s : study.report.suspicious) {
    if (s.truth_campaign == "trawlnode")
      may_ratio = std::max(may_ratio, s.stats.max_ratio);
    if (s.truth_campaign == "uniluxprobe")
      own_ratio = std::max(own_ratio, s.stats.max_ratio);
  }
  // Paper: the May set was "the only responsible HSDirs that cross a
  // ratio of 10k"; the authors' own relays crossed 100.
  EXPECT_GT(may_ratio, 10000.0);
  EXPECT_GT(own_ratio, 100.0);
  EXPECT_GT(may_ratio, own_ratio);
}

TEST(SilkroadStudyTest, CampaignServersSwitchFingerprints) {
  const auto study = run_silkroad_study(80);
  // At least one server of the May campaign shows observable fingerprint
  // switching (a member seized only one period has nothing to compare).
  int switching = 0;
  for (const auto& s : study.report.suspicious) {
    if (s.truth_campaign == "trawlnode" &&
        (s.flags.switched_before_responsible ||
         s.stats.fingerprint_switches > 0))
      ++switching;
  }
  EXPECT_GE(switching, 1);
}

// ---------------------------------------------------------------------
// history_from_archive adapter (full World integration)
// ---------------------------------------------------------------------

TEST(HistoryFromArchiveTest, AdaptsWorldArchive) {
  sim::WorldConfig wc;
  wc.seed = 81;
  wc.honest_relays = 100;
  sim::World world(wc);
  world.run_hours(72);
  const auto history = history_from_archive(world.archive(), 24);
  EXPECT_GE(history.snapshots.size(), 3u);
  EXPECT_GT(history.servers.size(), 50u);
  // Every snapshot entry references a valid server.
  for (const auto& snap : history.snapshots)
    for (const auto& e : snap.entries())
      EXPECT_LT(e.server, history.servers.size());
}

TEST(HistoryFromArchiveTest, DetectorRunsOnWorldHistory) {
  sim::WorldConfig wc;
  wc.seed = 82;
  wc.honest_relays = 100;
  sim::World world(wc);
  const auto index = world.add_service();
  world.run_hours(48);
  const auto history = history_from_archive(world.archive(), 24);
  TrackingDetector detector;
  const auto report = detector.analyze(
      history, world.service(index).permanent_id());
  EXPECT_GT(report.snapshots, 0);
  // Nobody is tracking this service in an honest world: no relay sits at
  // a ground-key distance from the descriptor id. (The binomial rule
  // *can* fire on a 3-snapshot history — mu+3sigma is below 3 — which is
  // exactly the paper's caveat about short windows.)
  for (const auto& s : report.suspicious)
    EXPECT_LT(s.stats.max_ratio, 10000.0);
}

}  // namespace
}  // namespace torsim::trackdet

namespace torsim::trackdet {
namespace {

// ---------------------------------------------------------------------
// lurker campaigns (the paper's year-one "strange server")
// ---------------------------------------------------------------------

TEST(HistorySimulatorTest, LurkerOnlyAppearsWhenResponsible) {
  HistoryConfig config;
  config.seed = 20;
  config.start = util::make_utc(2011, 3, 1);
  config.end = util::make_utc(2011, 6, 1);
  CampaignSpec spec;
  spec.name = "strange";
  spec.from = util::make_utc(2011, 3, 10);
  spec.to = util::make_utc(2011, 5, 20);
  spec.servers = 1;
  spec.skip_probability = 0.95;  // surfaces only a handful of times
  spec.ring_fraction = 1e-7;
  spec.always_listed = false;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  // The lurker is in the ring on only a few days, and on every one of
  // those days it is responsible for the target.
  int listed_days = 0, responsible_days = 0;
  for (const auto& snap : history.snapshots) {
    bool listed = false;
    for (const auto& e : snap.entries())
      listed |= history.server(e.server).truth_campaign == "strange";
    if (!listed) continue;
    ++listed_days;
    const auto period = crypto::time_period(snap.time(), test_target());
    for (std::uint8_t replica = 0; replica < 2; ++replica) {
      const auto id = crypto::descriptor_id(test_target(), period, replica);
      for (const auto* e : snap.responsible(id))
        if (history.server(e->server).truth_campaign == "strange") {
          ++responsible_days;
          break;
        }
    }
  }
  EXPECT_GT(listed_days, 0);
  EXPECT_LT(listed_days, 15);
  EXPECT_GE(responsible_days, listed_days);  // responsible whenever listed
}

TEST(HistorySimulatorTest, AlwaysListedCampaignStaysInRingOnSkipDays) {
  HistoryConfig config;
  config.seed = 21;
  config.start = util::make_utc(2013, 5, 1);
  config.end = util::make_utc(2013, 6, 10);
  CampaignSpec spec;
  spec.name = "persistent";
  spec.from = util::make_utc(2013, 5, 5);
  spec.to = util::make_utc(2013, 6, 5);
  spec.servers = 3;
  spec.skip_probability = 0.5;
  spec.ring_fraction = 1e-8;
  spec.always_listed = true;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  int listed_days = 0;
  bool first_active_seen = false;
  for (const auto& snap : history.snapshots) {
    if (snap.time() < spec.from || snap.time() >= spec.to) continue;
    int present = 0;
    for (const auto& e : snap.entries())
      if (history.server(e.server).truth_campaign == "persistent") ++present;
    if (present > 0) {
      first_active_seen = true;
      ++listed_days;
    }
    // After the first active day, the fleet stays listed even on skips.
    if (first_active_seen) {
      EXPECT_GT(present, 0);
    }
  }
  EXPECT_GT(listed_days, 20);
}

TEST(TrackingDetectorTest, LurkerFlaggedByImmediateResponsibility) {
  HistoryConfig config;
  config.seed = 22;
  config.start = util::make_utc(2011, 3, 1);
  config.end = util::make_utc(2011, 9, 1);
  CampaignSpec spec;
  spec.name = "strange";
  spec.from = util::make_utc(2011, 3, 10);
  spec.to = util::make_utc(2011, 8, 20);
  spec.servers = 1;
  spec.skip_probability = 0.93;
  spec.ring_fraction = 1e-7;
  spec.always_listed = false;
  const auto history =
      HistorySimulator(config).simulate(test_target(), {spec});

  TrackingDetector detector;
  const auto report = detector.analyze(history, test_target());
  bool lurker_flagged = false;
  for (const auto& s : report.suspicious)
    if (s.truth_campaign == "strange") {
      lurker_flagged = true;
      // It gets the HSDir flag exactly when the target would choose it.
      EXPECT_TRUE(s.flags.immediate_responsibility || s.flags.positioned);
    }
  EXPECT_TRUE(lurker_flagged);
}

}  // namespace
}  // namespace torsim::trackdet
