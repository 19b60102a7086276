#include "trackdet/detector.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "stats/binomial.hpp"

namespace torsim::trackdet {
namespace {

/// Strips trailing digits — campaign fleets are typically "nameN".
std::string name_stem(const std::string& name) {
  std::size_t end = name.size();
  while (end > 0 && name[end - 1] >= '0' && name[end - 1] <= '9') --end;
  return name.substr(0, end);
}

}  // namespace

TrackingDetector::TrackingDetector(DetectorConfig config)
    : config_(config) {}

TrackingReport TrackingDetector::analyze(
    const HsDirHistory& history, const crypto::PermanentId& target) const {
  return analyze(history, history.snapshots, target);
}

TrackingReport TrackingDetector::analyze(
    const HsDirHistory& history, std::span<const Snapshot> snapshots,
    const crypto::PermanentId& target) const {
  TrackingReport report;
  report.snapshots = static_cast<std::int64_t>(snapshots.size());
  if (snapshots.empty()) return report;

  // Per-server columns indexed by server id (ids are dense:
  // history.servers[id].id == id).
  const std::size_t server_count = history.servers.size();
  constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();
  std::vector<ServerStats> stats(server_count);
  for (std::size_t id = 0; id < server_count; ++id)
    stats[id].server = static_cast<std::uint32_t>(id);
  std::vector<crypto::Fingerprint> last_fp(server_count);
  // Index (into `snapshots`) of the snapshot first listing the server.
  std::vector<std::uint32_t> first_listed(server_count, kNever);
  std::vector<char> switched_this_period(server_count, 0);
  std::vector<std::int64_t> consecutive_run(server_count, 0);
  // Per-period responsibility membership (all 6 slots, duplicates kept),
  // for clustering and the full-takeover rule: period k's servers are
  // resp_servers[resp_begin[k], resp_begin[k + 1]).
  std::vector<std::uint32_t> resp_servers;
  std::vector<std::size_t> resp_begin = {0};
  resp_servers.reserve(snapshots.size() * 2 * crypto::kHsDirsPerReplica);
  resp_begin.reserve(snapshots.size() + 1);
  std::vector<std::uint32_t> responsible_now;
  std::vector<std::uint32_t> responsible_before;

  double hsdir_sum = 0.0;
  for (std::uint32_t k = 0; k < snapshots.size(); ++k) {
    const Snapshot& snap = snapshots[k];
    hsdir_sum += static_cast<double>(snap.size());
    const std::uint32_t period = crypto::time_period(snap.time(), target);

    // Track per-server appearance / fingerprint changes. A server can
    // be listed twice in one snapshot; its later entry compares against
    // the earlier one.
    for (const SnapshotEntry& e : snap.entries()) {
      if (e.server >= server_count)
        throw std::out_of_range("TrackingDetector: unknown server id");
      ServerStats& s = stats[e.server];
      ++s.periods_observed;
      const bool switched = first_listed[e.server] != kNever &&
                            !(last_fp[e.server] == e.fingerprint);
      if (switched) ++s.fingerprint_switches;
      switched_this_period[e.server] = switched;
      last_fp[e.server] = e.fingerprint;
      if (first_listed[e.server] == kNever) first_listed[e.server] = k;
    }

    // Responsible HSDirs for both replicas this period.
    responsible_now.clear();
    const auto desc_ids = crypto::descriptor_ids_for_period(target, period);
    for (std::uint8_t replica = 0; replica < crypto::kNumReplicas;
         ++replica) {
      const auto& desc_id = desc_ids[replica];
      for (const SnapshotEntry* e : snap.responsible(desc_id)) {
        resp_servers.push_back(e->server);
        responsible_now.push_back(e->server);
        ServerStats& s = stats[e->server];
        ++s.periods_responsible;
        if (switched_this_period[e->server])
          ++s.switches_before_responsible;
        // "Responsible right when it first appeared" — meaningless on the
        // window's opening snapshot, where *everything* is new.
        if (k > 0 && first_listed[e->server] == k)
          s.responsible_on_first_appearance = true;
        const double distance =
            crypto::ring_distance(desc_id, e->fingerprint);
        if (distance > 0.0) {
          const double ratio = snap.average_gap() / distance;
          s.max_ratio = std::max(s.max_ratio, ratio);
        }
      }
    }
    resp_begin.push_back(resp_servers.size());

    // Consecutive-period runs: a run is live only for servers that were
    // responsible last period, so only those can end here.
    std::sort(responsible_now.begin(), responsible_now.end());
    responsible_now.erase(
        std::unique(responsible_now.begin(), responsible_now.end()),
        responsible_now.end());
    for (std::uint32_t server : responsible_before)
      if (!std::binary_search(responsible_now.begin(), responsible_now.end(),
                              server))
        consecutive_run[server] = 0;
    for (std::uint32_t server : responsible_now) {
      const std::int64_t run = ++consecutive_run[server];
      ServerStats& s = stats[server];
      s.max_consecutive_periods = std::max(s.max_consecutive_periods, run);
    }
    std::swap(responsible_before, responsible_now);
  }

  report.mean_hsdirs = hsdir_sum / static_cast<double>(report.snapshots);
  // p = 6 / N is a relay's chance of holding one of the six responsible
  // slots; on a ring of six or fewer HSDirs (or none) it is 1.
  const double p = report.mean_hsdirs > 0.0
                       ? std::min(1.0, 6.0 / report.mean_hsdirs)
                       : 1.0;
  report.suspicion_threshold =
      stats::binomial_three_sigma_threshold(report.snapshots, p);

  // Apply the rules, in ascending server id.
  for (const ServerStats& s : stats) {
    if (s.periods_responsible == 0) continue;
    SuspicionFlags flags;
    flags.over_three_sigma = static_cast<double>(s.periods_responsible) >
                             report.suspicion_threshold;
    flags.switched_before_responsible =
        s.switches_before_responsible >=
        config_.min_switches_before_responsible;
    flags.immediate_responsibility = s.responsible_on_first_appearance;
    flags.positioned = s.max_ratio > config_.ratio_threshold;
    flags.consecutive = s.max_consecutive_periods >= 2;
    if (flags.count() < config_.min_flags) continue;
    SuspiciousServer out;
    out.stats = s;
    out.flags = flags;
    out.name = history.server(s.server).name;
    out.truth_campaign = history.server(s.server).truth_campaign;
    report.suspicious.push_back(std::move(out));
  }
  std::sort(report.suspicious.begin(), report.suspicious.end(),
            [](const SuspiciousServer& a, const SuspiciousServer& b) {
              if (a.flags.count() != b.flags.count())
                return a.flags.count() > b.flags.count();
              if (a.stats.periods_responsible != b.stats.periods_responsible)
                return a.stats.periods_responsible >
                       b.stats.periods_responsible;
              return a.stats.server < b.stats.server;  // total order
            });

  // Cluster suspicious servers by shared name stems.
  std::map<std::string, CampaignCluster> clusters;
  std::vector<CampaignCluster*> cluster_of(server_count, nullptr);
  for (const SuspiciousServer& s : report.suspicious) {
    const std::string stem = name_stem(s.name);
    CampaignCluster& cluster = clusters[stem];
    cluster.shared_prefix = stem;
    cluster.servers.push_back(s.stats.server);
    cluster.max_ratio = std::max(cluster.max_ratio, s.stats.max_ratio);
    cluster_of[s.stats.server] = &cluster;
  }
  // Fill cluster time spans / coverage from the responsibility log.
  // cluster_slots: suspicious slots per cluster in one period (<= 6).
  std::vector<std::pair<CampaignCluster*, int>> cluster_slots;
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    const std::span<const std::uint32_t> servers(
        resp_servers.data() + resp_begin[k], resp_begin[k + 1] - resp_begin[k]);
    cluster_slots.clear();
    std::size_t suspicious_slots = 0;
    for (std::uint32_t server : servers) {
      CampaignCluster* cluster = cluster_of[server];
      if (cluster == nullptr) continue;
      ++suspicious_slots;
      const auto it = std::find_if(
          cluster_slots.begin(), cluster_slots.end(),
          [&](const auto& slot) { return slot.first == cluster; });
      if (it == cluster_slots.end())
        cluster_slots.emplace_back(cluster, 1);
      else
        ++it->second;
    }
    if (servers.size() >= 6 && suspicious_slots == servers.size())
      ++report.full_takeover_periods;
    const util::UnixTime time = snapshots[k].time();
    for (auto& [cluster, slots] : cluster_slots) {
      if (cluster->first_seen == 0) cluster->first_seen = time;
      cluster->last_seen = time;
      ++cluster->periods_covered;
      if (slots >= 6) cluster->full_takeover = true;
    }
  }
  // Clusters are the paper's evidence unit for *coordinated* campaigns:
  // only name stems shared by at least two suspicious servers qualify
  // (lone suspects remain in `suspicious`).
  for (auto& [stem, cluster] : clusters)
    if (cluster.servers.size() >= 2) report.clusters.push_back(cluster);
  std::sort(report.clusters.begin(), report.clusters.end(),
            [](const CampaignCluster& a, const CampaignCluster& b) {
              if (a.periods_covered != b.periods_covered)
                return a.periods_covered > b.periods_covered;
              return a.shared_prefix < b.shared_prefix;  // total order
            });
  return report;
}

}  // namespace torsim::trackdet
