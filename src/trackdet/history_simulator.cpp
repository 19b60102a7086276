#include "trackdet/history_simulator.hpp"

#include <algorithm>
#include <cmath>

namespace torsim::trackdet {
namespace {

crypto::Fingerprint random_fingerprint(util::Rng& rng) {
  crypto::Fingerprint fp;
  rng.fill_bytes(fp.data(), fp.size());
  return fp;
}

// Fabricates a fingerprint at ring distance in (0, ring_fraction * 2^160]
// after `anchor`. The live attack grinds RSA keys to achieve this (see
// attack::grind_key_after); at 10^8-try tightness that is a compute job,
// not a simulation step, so the history generator places the fingerprint
// directly — only the ring position matters to the detector.
crypto::Fingerprint positioned_fingerprint(const crypto::Sha1Digest& anchor,
                                           double ring_fraction, int rank,
                                           util::Rng& rng) {
  const double ring = std::ldexp(1.0, 160);
  // Slot `rank` lands in ((rank) .. (rank+1)] * ring_fraction so several
  // campaign relays order deterministically behind the anchor.
  const double lo = ring_fraction * ring * static_cast<double>(rank);
  const double hi = ring_fraction * ring * static_cast<double>(rank + 1);
  const double delta = rng.uniform(lo, hi) + 1.0;
  const crypto::U160 offset = crypto::U160::from_double(delta);
  return crypto::U160(anchor).add(offset).to_digest();
}

struct HonestServer {
  std::uint32_t id;
  crypto::Fingerprint fingerprint;
};

bool by_fingerprint(const SnapshotEntry& a, const SnapshotEntry& b) {
  return a.fingerprint < b.fingerprint;
}

}  // namespace

HistorySimulator::HistorySimulator(HistoryConfig config) : config_(config) {
  if (config_.start == 0) config_.start = util::make_utc(2011, 2, 1);
  if (config_.end == 0) config_.end = util::make_utc(2013, 11, 1);
}

HsDirHistory HistorySimulator::simulate(
    const crypto::PermanentId& target,
    const std::vector<CampaignSpec>& campaigns) const {
  util::Rng rng(config_.seed);
  HsDirHistory history;

  const auto new_server = [&](const std::string& name,
                              const std::string& campaign,
                              util::Ipv4 address) -> std::uint32_t {
    ServerInfo info;
    info.id = static_cast<std::uint32_t>(history.servers.size());
    info.name = name;
    info.address = address;
    info.truth_campaign = campaign;
    history.servers.push_back(info);
    return info.id;
  };

  // Honest fleet, in creation order (the RNG draws walk it in that
  // order), and the same servers' ring entries sorted by fingerprint,
  // patched day by day as servers die, join and switch keys.
  std::vector<HonestServer> honest;
  std::vector<SnapshotEntry> ring;
  const auto spawn_honest = [&] {
    // Honest operators pick diverse nicknames; a shared stem would fake
    // the name-cluster signal the detector groups campaigns by.
    std::string name;
    const int len = static_cast<int>(rng.uniform_int(6, 10));
    for (int i = 0; i < len; ++i)
      name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    const std::uint32_t id =
        new_server(name, "", util::Ipv4::random_public(rng));
    honest.push_back({id, random_fingerprint(rng)});
  };
  for (int i = 0; i < config_.hsdirs_at_start; ++i) spawn_honest();
  for (const HonestServer& server : honest)
    ring.push_back({server.fingerprint, server.id});
  std::sort(ring.begin(), ring.end(), by_fingerprint);
  std::vector<char> leaving;         // by server id: leaves `ring` today
  std::vector<SnapshotEntry> added;  // entries joining it today
  std::vector<SnapshotEntry> merged;  // reused merge buffer
  std::vector<SnapshotEntry> campaign_entries;

  // Campaign server tables (allocated lazily on first active day, so the
  // "appeared and was immediately responsible" signal is present).
  std::vector<std::vector<std::uint32_t>> campaign_servers(campaigns.size());
  std::vector<std::vector<crypto::Fingerprint>> campaign_fixed_fps(
      campaigns.size());
  std::vector<std::vector<crypto::Fingerprint>> campaign_idle_fps(
      campaigns.size());

  const std::int64_t total_days =
      (config_.end - config_.start) / util::kSecondsPerDay;

  for (std::int64_t day = 0; day < total_days; ++day) {
    const util::UnixTime t = config_.start + day * util::kSecondsPerDay;

    // Honest churn: deaths, growth to the interpolated target, key
    // switches.
    added.clear();
    leaving.resize(history.servers.size());
    bool any_leaving = false;
    honest.erase(std::remove_if(honest.begin(), honest.end(),
                                [&](const HonestServer& server) {
                                  const bool dies = rng.bernoulli(
                                      config_.daily_death_rate);
                                  if (dies) leaving[server.id] = 1;
                                  any_leaving = any_leaving || dies;
                                  return dies;
                                }),
                 honest.end());
    const std::size_t survivors = honest.size();
    const double progress =
        total_days > 1 ? static_cast<double>(day) /
                             static_cast<double>(total_days - 1)
                       : 0.0;
    const int target_count = static_cast<int>(
        std::lround(config_.hsdirs_at_start +
                    progress * (config_.hsdirs_at_end -
                                config_.hsdirs_at_start)));
    while (static_cast<int>(honest.size()) < target_count) spawn_honest();
    for (std::size_t i = 0; i < honest.size(); ++i) {
      if (!rng.bernoulli(config_.honest_switch_rate)) continue;
      honest[i].fingerprint = random_fingerprint(rng);
      if (i < survivors) {
        leaving[honest[i].id] = 1;
        any_leaving = true;
        added.push_back({honest[i].fingerprint, honest[i].id});
      }
    }
    for (std::size_t i = survivors; i < honest.size(); ++i)
      added.push_back({honest[i].fingerprint, honest[i].id});
    if (any_leaving) {
      std::erase_if(ring, [&](const SnapshotEntry& e) {
        if (!leaving[e.server]) return false;
        leaving[e.server] = 0;
        return true;
      });
    }
    if (!added.empty()) {
      std::sort(added.begin(), added.end(), by_fingerprint);
      merged.resize(ring.size() + added.size());
      std::merge(ring.begin(), ring.end(), added.begin(), added.end(),
                 merged.begin(), by_fingerprint);
      ring.swap(merged);
    }

    // Campaigns.
    campaign_entries.clear();
    const std::uint32_t period = crypto::time_period(t, target);
    for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
      const CampaignSpec& spec = campaigns[ci];
      if (t < spec.from || t >= spec.to) continue;
      const bool skipped = rng.bernoulli(spec.skip_probability);
      auto& servers = campaign_servers[ci];
      if (skipped && (servers.empty() || !spec.always_listed)) continue;
      if (skipped) {
        // Idle day for an always-listed campaign: the servers stay in
        // the ring at non-positioned fingerprints.
        auto& idle = campaign_idle_fps[ci];
        while (idle.size() < servers.size())
          idle.push_back(random_fingerprint(rng));
        for (std::size_t si = 0; si < servers.size(); ++si)
          campaign_entries.push_back({idle[si], servers[si]});
        continue;
      }
      if (servers.empty()) {
        // 2 servers per IP for multi-server campaigns (the 31 Aug set
        // came from 3 IPs).
        util::Ipv4 shared_ip = util::Ipv4::random_public(rng);
        for (int si = 0; si < spec.servers; ++si) {
          if (si % 2 == 0 && si > 0)
            shared_ip = util::Ipv4::random_public(rng);
          servers.push_back(new_server(
              spec.name + std::to_string(si), spec.name, shared_ip));
        }
      }
      // Fabricate one positioned fingerprint per seized slot. A
      // non-switching campaign grinds once (anchored to its first active
      // period) and keeps that identity — it scores a hit only while the
      // descriptor ID stays put, which is how the paper distinguishes a
      // one-period fluke from sustained tracking.
      auto& fixed = campaign_fixed_fps[ci];
      const auto desc_ids = crypto::descriptor_ids_for_period(target, period);
      for (int slot = 0; slot < spec.slots_per_period; ++slot) {
        const auto replica = static_cast<std::uint8_t>(slot % 2);
        const int rank = slot / 2;
        const auto& desc_id = desc_ids[replica];
        const std::uint32_t server =
            servers[static_cast<std::size_t>(
                (day + slot) % static_cast<std::int64_t>(servers.size()))];
        crypto::Fingerprint fp;
        if (spec.switch_fingerprints) {
          fp = positioned_fingerprint(desc_id, spec.ring_fraction, rank, rng);
        } else {
          if (static_cast<int>(fixed.size()) <= slot)
            fixed.push_back(positioned_fingerprint(
                desc_id, spec.ring_fraction, rank, rng));
          fp = fixed[static_cast<std::size_t>(slot)];
        }
        campaign_entries.push_back({fp, server});
      }
    }

    // The day's ring: the honest ring with the (few) campaign entries
    // merged in. Snapshot sorts only input that is not strictly
    // ascending; on a fingerprint tie it gets the creation-order list,
    // so equal keys land exactly where sorting that list puts them.
    std::vector<SnapshotEntry> day_campaign = campaign_entries;
    std::sort(day_campaign.begin(), day_campaign.end(), by_fingerprint);
    std::vector<SnapshotEntry> entries(ring.size() + day_campaign.size());
    std::merge(ring.begin(), ring.end(), day_campaign.begin(),
               day_campaign.end(), entries.begin(), by_fingerprint);
    if (!fingerprints_strictly_ascending(entries)) {
      entries.clear();
      for (const HonestServer& server : honest)
        entries.push_back({server.fingerprint, server.id});
      entries.insert(entries.end(), campaign_entries.begin(),
                     campaign_entries.end());
    }
    history.snapshots.emplace_back(t, std::move(entries));
  }
  return history;
}

}  // namespace torsim::trackdet
