#include "trackdet/scenario.hpp"

#include <algorithm>
#include <span>

namespace torsim::trackdet {

crypto::PermanentId silkroad_target() {
  // Derived deterministically from the label; only the ring positions of
  // the derived descriptor IDs matter.
  const auto digest = crypto::sha1("silkroadvb5piz3r-standin");
  return crypto::permanent_id_from_fingerprint(digest);
}

std::vector<CampaignSpec> silkroad_campaigns() {
  std::vector<CampaignSpec> campaigns;

  // Year one's oddity: a server that lacks the HSDir flag most of the
  // time but obtains it on the few occasions Silk Road would choose it
  // ("One server shows a strange behaviour ... in 3 occasions"). The
  // paper did not count it as confirmed tracking — neither does the
  // detector's clustering (a single server forms no name cluster) — but
  // the immediate-responsibility rule surfaces it.
  CampaignSpec odd;
  odd.name = "oddserver";
  odd.from = util::make_utc(2011, 4, 1);
  odd.to = util::make_utc(2011, 11, 1);
  odd.servers = 1;
  odd.slots_per_period = 1;
  odd.ring_fraction = 1e-6;
  odd.skip_probability = 0.985;  // ~3 appearances over 7 months
  odd.always_listed = false;
  campaigns.push_back(odd);

  // The authors' own relays: Nov–Dec 2012, repeated fingerprint
  // switches, ratio > 100.
  CampaignSpec own;
  own.name = "uniluxprobe";
  own.from = util::make_utc(2012, 11, 5);
  own.to = util::make_utc(2012, 12, 20);
  own.servers = 2;
  own.slots_per_period = 1;
  own.ring_fraction = 5e-6;  // ratio ~ 1/(1300 * 5e-6) ~ 150
  own.skip_probability = 0.15;
  campaigns.push_back(own);

  // 21 May – 3 Jun 2013: name-sharing set, 1 of 6 slots, skipped 4 of
  // 14 periods, the only set crossing ratio 10k.
  CampaignSpec may;
  may.name = "trawlnode";
  may.from = util::make_utc(2013, 5, 21);
  may.to = util::make_utc(2013, 6, 4);
  may.servers = 4;
  may.slots_per_period = 1;
  may.ring_fraction = 5e-9;  // ratio ~ 150k >> 10k
  may.skip_probability = 4.0 / 14.0;
  campaigns.push_back(may);

  // 31 Aug 2013: 6 relays from 3 IPs, all 6 responsible slots, one
  // period.
  CampaignSpec aug;
  aug.name = "augseizure";
  aug.from = util::make_utc(2013, 8, 31);
  aug.to = util::make_utc(2013, 9, 1);
  aug.servers = 6;
  aug.slots_per_period = 6;
  aug.ring_fraction = 1e-7;
  campaigns.push_back(aug);

  return campaigns;
}

SilkroadStudy run_silkroad_study(std::uint64_t seed) {
  SilkroadStudy study;
  HistoryConfig config;
  config.seed = seed;
  HistorySimulator simulator(config);
  study.history = simulator.simulate(silkroad_target(), silkroad_campaigns());

  TrackingDetector detector;
  study.report = detector.analyze(study.history, silkroad_target());

  // Year-by-year passes (the HSDir population more than doubled over the
  // window, so the paper split the binomial analysis per year). Snapshots
  // ascend in time, so each year is a contiguous run of them.
  const std::span<const Snapshot> snapshots(study.history.snapshots);
  const auto first_at_or_after = [&](util::UnixTime t) {
    return std::partition_point(
        snapshots.begin(), snapshots.end(),
        [t](const Snapshot& snap) { return snap.time() < t; });
  };
  for (int year = 2011; year <= 2013; ++year) {
    const auto from = first_at_or_after(util::make_utc(year, 1, 1));
    const auto to = first_at_or_after(util::make_utc(year + 1, 1, 1));
    study.yearly.push_back(detector.analyze(
        study.history, std::span<const Snapshot>(from, to),
        silkroad_target()));
  }
  return study;
}

}  // namespace torsim::trackdet
