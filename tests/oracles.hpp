// Reference oracles for the differential suite.
//
// Plain, obviously-correct versions of the production fast paths,
// written only against public interfaces. The differential tests replay
// randomized inputs through both and require byte-identical results:
//   * responsible_hsdirs_scan — the pre-index HSDir ring walk: binary
//     search over Consensus::hsdir_indices(), dereferencing the full
//     entry per probe (vs the eytzinger RingIndex).
//   * descriptor_ids_for_period_scalar — scalar SHA-1 with the
//     INT4(period) || cookie midstate forked per replica (vs the
//     lane-batched kernel behind crypto::descriptor_ids_for_period).
//   * analyze_with_maps / yearly_reports_by_copy — the Sec. VII tracking
//     detector over per-server std::map / unordered_map tables, with
//     each year analyzed as a deep-copied history (vs the dense columns
//     and snapshot spans of trackdet::TrackingDetector).
//   * simulate_sorting_daily — the HSDir history simulator that rebuilds
//     each day's ring in creation order and sorts it (vs the fingerprint-
//     sorted ring HistorySimulator patches day by day).
//   * paper_chain — the paper's scan → crawl → classify → resolve →
//     botnet chain with torbench/harness/pipeline.cpp's literal configs
//     and seeds (vs src/pipeline, which derives them from one Config).
//   * grind_onion_prefix_scalar / grind_key_after_scalar — the key
//     grinders as one KeyPair::generate, one scalar SHA-1 and (for the
//     prefix) one onion string per try (vs crypto::grind_key, which
//     hashes kSha1Lanes candidates at a time and rewinds the Rng).
//   * DescriptorStoreOracle — the HSDir descriptor store as a std::map
//     of owned Descriptors (vs hsdir::DescriptorStore's sorted records
//     with keys in a shared KeyTable and an early-exit expiry).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "attack/grinding.hpp"
#include "content/pipeline.hpp"
#include "crypto/digest.hpp"
#include "crypto/grind.hpp"
#include "crypto/keypair.hpp"
#include "crypto/sha1.hpp"
#include "dirauth/consensus.hpp"
#include "hsdir/store.hpp"
#include "popularity/botnet_inference.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "population/population.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "stats/binomial.hpp"
#include "trackdet/detector.hpp"
#include "trackdet/history_simulator.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace torsim::oracle {

/// The kHsDirsPerReplica HSDirs whose fingerprints follow
/// `descriptor_id` clockwise on the ring (wrapping), in ring order.
inline std::vector<const dirauth::ConsensusEntry*> responsible_hsdirs_scan(
    const dirauth::Consensus& consensus,
    const crypto::DescriptorId& descriptor_id) {
  const std::vector<dirauth::ConsensusEntry>& entries = consensus.entries();
  const std::vector<std::size_t>& ring = consensus.hsdir_indices();
  std::vector<const dirauth::ConsensusEntry*> out;
  if (ring.empty()) return out;
  // First HSDir whose fingerprint is strictly greater than the id; may
  // equal ring.size(), which wraps to rank 0.
  std::size_t lo = 0, hi = ring.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (entries[ring[mid]].fingerprint > descriptor_id)
      hi = mid;
    else
      lo = mid + 1;
  }
  const std::size_t n = ring.size();
  const std::size_t take =
      std::min<std::size_t>(crypto::kHsDirsPerReplica, n);
  for (std::size_t k = 0; k < take; ++k)
    out.push_back(&entries[ring[(lo + k) % n]]);
  return out;
}

/// Both replicas' descriptor ids for one (service, period):
/// secret = SHA1(INT4(period) || cookie || BYTE(replica)),
/// id = SHA1(permanent-id || secret).
inline std::array<crypto::DescriptorId, crypto::kNumReplicas>
descriptor_ids_for_period_scalar(const crypto::PermanentId& id,
                                 std::uint32_t period,
                                 std::span<const std::uint8_t> cookie = {}) {
  crypto::Sha1 midstate;
  const std::array<std::uint8_t, 4> period_bytes = {
      static_cast<std::uint8_t>(period >> 24),
      static_cast<std::uint8_t>(period >> 16),
      static_cast<std::uint8_t>(period >> 8),
      static_cast<std::uint8_t>(period)};
  midstate.update(std::span<const std::uint8_t>(period_bytes));
  midstate.update(cookie);
  std::array<crypto::DescriptorId, crypto::kNumReplicas> out{};
  for (int replica = 0; replica < crypto::kNumReplicas; ++replica) {
    crypto::Sha1 secret_hasher = midstate;
    const std::array<std::uint8_t, 1> replica_byte = {
        static_cast<std::uint8_t>(replica)};
    secret_hasher.update(std::span<const std::uint8_t>(replica_byte));
    const crypto::Sha1Digest secret = secret_hasher.finalize();
    crypto::Sha1 combine;
    combine.update(std::span<const std::uint8_t>(id));
    combine.update(std::span<const std::uint8_t>(secret));
    out[static_cast<std::size_t>(replica)] = combine.finalize();
  }
  return out;
}

/// One HSDir's descriptor store: the last store() of an id wins; a
/// descriptor is visible at `now` while now - published is at most
/// kDescriptorLifetime and now >= visible_after; expire() drops
/// descriptors published more than kDescriptorLifetime before `now`;
/// with logging on, every fetch() appends one record, hit or miss.
class DescriptorStoreOracle {
 public:
  void store(const hsdir::Descriptor& d) { held_[d.descriptor_id] = d; }

  std::optional<hsdir::Descriptor> fetch(const crypto::DescriptorId& id,
                                         util::UnixTime now) {
    const bool found = contains(id, now);
    if (logging_) fetch_log_.push_back({id, now, found});
    if (!found) return std::nullopt;
    return held_.at(id);
  }

  bool contains(const crypto::DescriptorId& id, util::UnixTime now) const {
    const auto it = held_.find(id);
    return it != held_.end() &&
           now - it->second.published <= hsdir::kDescriptorLifetime &&
           now >= it->second.visible_after;
  }

  void expire(util::UnixTime now) {
    std::erase_if(held_, [&](const auto& entry) {
      return now - entry.second.published > hsdir::kDescriptorLifetime;
    });
  }

  void enable_logging(bool enabled) { logging_ = enabled; }

  /// Every held descriptor, in id order.
  const std::map<crypto::DescriptorId, hsdir::Descriptor>& held() const {
    return held_;
  }
  const std::vector<hsdir::FetchRecord>& fetch_log() const {
    return fetch_log_;
  }

 private:
  std::map<crypto::DescriptorId, hsdir::Descriptor> held_;
  std::vector<hsdir::FetchRecord> fetch_log_;
  bool logging_ = false;
};

/// The onion-prefix grinder before the lanes: a fresh KeyPair and its
/// base32 onion address per try.
inline std::optional<crypto::GrindResult> grind_onion_prefix_scalar(
    std::string_view prefix, util::Rng& rng, std::uint64_t max_attempts) {
  for (std::uint64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    crypto::KeyPair key = crypto::KeyPair::generate(rng);
    const auto onion = crypto::onion_address(
        crypto::permanent_id_from_fingerprint(crypto::sha1(
            std::span<const std::uint8_t>(key.public_bytes()))));
    if (util::starts_with(onion, prefix))
      return crypto::GrindResult{std::move(key), attempt};
  }
  return std::nullopt;
}

/// The ring-arc grinder before the lanes: a fresh KeyPair per try until
/// its fingerprint lands in (target, target + fraction of the ring].
inline std::optional<attack::GrindResult> grind_key_after_scalar(
    const crypto::Sha1Digest& target, double max_ring_fraction,
    util::Rng& rng, std::uint64_t max_attempts) {
  const double ring_size = std::ldexp(1.0, 160);
  const double max_distance = max_ring_fraction * ring_size;
  const crypto::U160 target_value(target);
  for (std::uint64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    crypto::KeyPair key = crypto::KeyPair::generate(rng);
    const crypto::U160 fp(
        crypto::sha1(std::span<const std::uint8_t>(key.public_bytes())));
    if (fp == target_value) continue;  // need strictly after
    const double distance =
        fp.ring_distance_from(target_value).to_double();
    if (distance <= max_distance)
      return attack::GrindResult{std::move(key), attempt, distance};
  }
  return std::nullopt;
}

namespace detail {

/// Strips trailing digits — campaign fleets are typically "nameN".
inline std::string name_stem(const std::string& name) {
  std::size_t end = name.size();
  while (end > 0 && name[end - 1] >= '0' && name[end - 1] <= '9') --end;
  return name.substr(0, end);
}

}  // namespace detail

/// The tracking detector with ordered / hashed per-server tables, probed
/// per snapshot entry, and a seen-before pass after every snapshot.
inline trackdet::TrackingReport analyze_with_maps(
    const trackdet::HsDirHistory& history, const crypto::PermanentId& target,
    const trackdet::DetectorConfig& config = {}) {
  using namespace trackdet;
  TrackingReport report;
  report.snapshots = static_cast<std::int64_t>(history.snapshots.size());
  if (history.snapshots.empty()) return report;

  std::map<std::uint32_t, ServerStats> stats;
  std::unordered_map<std::uint32_t, crypto::Fingerprint> last_fp;
  std::unordered_map<std::uint32_t, bool> switched_this_period;
  std::unordered_map<std::uint32_t, bool> seen_before;
  std::map<std::uint32_t, std::int64_t> consecutive_run;
  struct PeriodResponsibility {
    util::UnixTime time;
    std::vector<std::uint32_t> servers;  // all 6 slots (duplicates kept)
  };
  std::vector<PeriodResponsibility> period_resp;

  double hsdir_sum = 0.0;
  bool first_snapshot = true;
  for (const Snapshot& snap : history.snapshots) {
    hsdir_sum += static_cast<double>(snap.size());
    const std::uint32_t period = crypto::time_period(snap.time(), target);
    for (const SnapshotEntry& e : snap.entries()) {
      ServerStats& s = stats[e.server];
      s.server = e.server;
      ++s.periods_observed;
      auto it = last_fp.find(e.server);
      const bool switched =
          it != last_fp.end() && !(it->second == e.fingerprint);
      if (switched) ++s.fingerprint_switches;
      switched_this_period[e.server] = switched;
      last_fp[e.server] = e.fingerprint;
    }
    PeriodResponsibility pr;
    pr.time = snap.time();
    std::vector<std::uint32_t> responsible_now;
    const auto desc_ids = crypto::descriptor_ids_for_period(target, period);
    for (std::uint8_t replica = 0; replica < crypto::kNumReplicas;
         ++replica) {
      const auto& desc_id = desc_ids[replica];
      for (const SnapshotEntry* e : snap.responsible(desc_id)) {
        pr.servers.push_back(e->server);
        responsible_now.push_back(e->server);
        ServerStats& s = stats[e->server];
        ++s.periods_responsible;
        if (switched_this_period[e->server])
          ++s.switches_before_responsible;
        if (!first_snapshot && !seen_before[e->server])
          s.responsible_on_first_appearance = true;
        const double distance =
            crypto::ring_distance(desc_id, e->fingerprint);
        if (distance > 0.0) {
          const double ratio = snap.average_gap() / distance;
          s.max_ratio = std::max(s.max_ratio, ratio);
        }
      }
    }
    period_resp.push_back(std::move(pr));
    std::sort(responsible_now.begin(), responsible_now.end());
    responsible_now.erase(
        std::unique(responsible_now.begin(), responsible_now.end()),
        responsible_now.end());
    for (auto& [server, run] : consecutive_run)
      if (!std::binary_search(responsible_now.begin(), responsible_now.end(),
                              server))
        run = 0;
    for (std::uint32_t server : responsible_now) {
      std::int64_t& run = consecutive_run[server];
      ++run;
      ServerStats& s = stats[server];
      s.max_consecutive_periods = std::max(s.max_consecutive_periods, run);
    }
    for (const SnapshotEntry& e : snap.entries()) seen_before[e.server] = true;
    first_snapshot = false;
  }

  report.mean_hsdirs = hsdir_sum / static_cast<double>(report.snapshots);
  // The production detector's clamp: p = 6 / N is at most 1.
  const double p = report.mean_hsdirs > 0.0
                       ? std::min(1.0, 6.0 / report.mean_hsdirs)
                       : 1.0;
  report.suspicion_threshold =
      stats::binomial_three_sigma_threshold(report.snapshots, p);

  for (auto& [server, s] : stats) {
    if (s.periods_responsible == 0) continue;
    SuspicionFlags flags;
    flags.over_three_sigma = static_cast<double>(s.periods_responsible) >
                             report.suspicion_threshold;
    flags.switched_before_responsible =
        s.switches_before_responsible >=
        config.min_switches_before_responsible;
    flags.immediate_responsibility = s.responsible_on_first_appearance;
    flags.positioned = s.max_ratio > config.ratio_threshold;
    flags.consecutive = s.max_consecutive_periods >= 2;
    if (flags.count() < config.min_flags) continue;
    SuspiciousServer out;
    out.stats = s;
    out.flags = flags;
    out.name = history.server(server).name;
    out.truth_campaign = history.server(server).truth_campaign;
    report.suspicious.push_back(std::move(out));
  }
  std::sort(report.suspicious.begin(), report.suspicious.end(),
            [](const SuspiciousServer& a, const SuspiciousServer& b) {
              if (a.flags.count() != b.flags.count())
                return a.flags.count() > b.flags.count();
              if (a.stats.periods_responsible != b.stats.periods_responsible)
                return a.stats.periods_responsible >
                       b.stats.periods_responsible;
              return a.stats.server < b.stats.server;
            });

  std::map<std::string, CampaignCluster> clusters;
  std::unordered_map<std::uint32_t, const SuspiciousServer*> suspicious_by_id;
  for (const SuspiciousServer& s : report.suspicious)
    suspicious_by_id[s.stats.server] = &s;
  for (const SuspiciousServer& s : report.suspicious) {
    const std::string stem = detail::name_stem(s.name);
    CampaignCluster& cluster = clusters[stem];
    cluster.shared_prefix = stem;
    cluster.servers.push_back(s.stats.server);
    cluster.max_ratio = std::max(cluster.max_ratio, s.stats.max_ratio);
  }
  for (const auto& pr : period_resp) {
    std::map<std::string, int> cluster_slots;
    for (std::uint32_t server : pr.servers) {
      const auto it = suspicious_by_id.find(server);
      if (it == suspicious_by_id.end()) continue;
      ++cluster_slots[detail::name_stem(it->second->name)];
    }
    int suspicious_slots = 0;
    for (std::uint32_t server : pr.servers)
      if (suspicious_by_id.count(server)) ++suspicious_slots;
    if (pr.servers.size() >= 6 &&
        suspicious_slots == static_cast<int>(pr.servers.size()))
      ++report.full_takeover_periods;
    for (auto& [stem, slots] : cluster_slots) {
      CampaignCluster& cluster = clusters[stem];
      if (cluster.first_seen == 0) cluster.first_seen = pr.time;
      cluster.last_seen = pr.time;
      ++cluster.periods_covered;
      if (slots >= 6) cluster.full_takeover = true;
    }
  }
  for (auto& [stem, cluster] : clusters)
    if (cluster.servers.size() >= 2) report.clusters.push_back(cluster);
  std::sort(report.clusters.begin(), report.clusters.end(),
            [](const CampaignCluster& a, const CampaignCluster& b) {
              if (a.periods_covered != b.periods_covered)
                return a.periods_covered > b.periods_covered;
              return a.shared_prefix < b.shared_prefix;
            });
  return report;
}

/// The Sec. VII year-by-year passes (2011-2013) over deep-copied
/// histories, one per calendar year.
inline std::vector<trackdet::TrackingReport> yearly_reports_by_copy(
    const trackdet::HsDirHistory& history,
    const crypto::PermanentId& target) {
  std::vector<trackdet::TrackingReport> yearly;
  for (int year = 2011; year <= 2013; ++year) {
    trackdet::HsDirHistory slice;
    slice.servers = history.servers;
    const util::UnixTime from = util::make_utc(year, 1, 1);
    const util::UnixTime to = util::make_utc(year + 1, 1, 1);
    for (const trackdet::Snapshot& snap : history.snapshots)
      if (snap.time() >= from && snap.time() < to)
        slice.snapshots.push_back(snap);
    yearly.push_back(analyze_with_maps(slice, target));
  }
  return yearly;
}

/// HistorySimulator::simulate as it rebuilt each day's ring: honest
/// entries in creation order, then the campaign entries, handed to the
/// Snapshot constructor to sort.
inline trackdet::HsDirHistory simulate_sorting_daily(
    trackdet::HistoryConfig config, const crypto::PermanentId& target,
    const std::vector<trackdet::CampaignSpec>& campaigns) {
  using namespace trackdet;
  if (config.start == 0) config.start = util::make_utc(2011, 2, 1);
  if (config.end == 0) config.end = util::make_utc(2013, 11, 1);
  const auto random_fingerprint = [](util::Rng& r) {
    crypto::Fingerprint fp;
    r.fill_bytes(fp.data(), fp.size());
    return fp;
  };
  const auto positioned_fingerprint = [](const crypto::Sha1Digest& anchor,
                                         double ring_fraction, int rank,
                                         util::Rng& r) {
    const double ring = std::ldexp(1.0, 160);
    const double lo = ring_fraction * ring * static_cast<double>(rank);
    const double hi = ring_fraction * ring * static_cast<double>(rank + 1);
    const double delta = r.uniform(lo, hi) + 1.0;
    return crypto::U160(anchor)
        .add(crypto::U160::from_double(delta))
        .to_digest();
  };
  struct HonestServer {
    std::uint32_t id;
    crypto::Fingerprint fingerprint;
  };

  util::Rng rng(config.seed);
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
  std::vector<HonestServer> honest;
  const auto spawn_honest = [&] {
    std::string name;
    const int len = static_cast<int>(rng.uniform_int(6, 10));
    for (int i = 0; i < len; ++i)
      name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    const std::uint32_t id =
        new_server(name, "", util::Ipv4::random_public(rng));
    honest.push_back({id, random_fingerprint(rng)});
  };
  for (int i = 0; i < config.hsdirs_at_start; ++i) spawn_honest();

  std::vector<std::vector<std::uint32_t>> campaign_servers(campaigns.size());
  std::vector<std::vector<crypto::Fingerprint>> campaign_fixed_fps(
      campaigns.size());
  std::vector<std::vector<crypto::Fingerprint>> campaign_idle_fps(
      campaigns.size());
  const std::int64_t total_days =
      (config.end - config.start) / util::kSecondsPerDay;
  for (std::int64_t day = 0; day < total_days; ++day) {
    const util::UnixTime t = config.start + day * util::kSecondsPerDay;
    honest.erase(std::remove_if(honest.begin(), honest.end(),
                                [&](const HonestServer&) {
                                  return rng.bernoulli(
                                      config.daily_death_rate);
                                }),
                 honest.end());
    const double progress =
        total_days > 1 ? static_cast<double>(day) /
                             static_cast<double>(total_days - 1)
                       : 0.0;
    const int target_count = static_cast<int>(
        std::lround(config.hsdirs_at_start +
                    progress * (config.hsdirs_at_end -
                                config.hsdirs_at_start)));
    while (static_cast<int>(honest.size()) < target_count) spawn_honest();
    for (HonestServer& server : honest)
      if (rng.bernoulli(config.honest_switch_rate))
        server.fingerprint = random_fingerprint(rng);

    std::vector<SnapshotEntry> entries;
    for (const HonestServer& server : honest)
      entries.push_back({server.fingerprint, server.id});
    const std::uint32_t period = crypto::time_period(t, target);
    for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
      const CampaignSpec& spec = campaigns[ci];
      if (t < spec.from || t >= spec.to) continue;
      const bool skipped = rng.bernoulli(spec.skip_probability);
      auto& servers = campaign_servers[ci];
      if (skipped && (servers.empty() || !spec.always_listed)) continue;
      if (skipped) {
        auto& idle = campaign_idle_fps[ci];
        while (idle.size() < servers.size())
          idle.push_back(random_fingerprint(rng));
        for (std::size_t si = 0; si < servers.size(); ++si)
          entries.push_back({idle[si], servers[si]});
        continue;
      }
      if (servers.empty()) {
        util::Ipv4 shared_ip = util::Ipv4::random_public(rng);
        for (int si = 0; si < spec.servers; ++si) {
          if (si % 2 == 0 && si > 0)
            shared_ip = util::Ipv4::random_public(rng);
          servers.push_back(new_server(
              spec.name + std::to_string(si), spec.name, shared_ip));
        }
      }
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
        entries.push_back({fp, server});
      }
    }
    history.snapshots.emplace_back(t, std::move(entries));
  }
  return history;
}

/// Every stage output of one paper_chain run.
struct PaperChain {
  scan::ScanReport scan;
  scan::CertReport cert;
  scan::CrawlReport crawl;
  content::PipelineResult content;
  popularity::ResolutionReport ranking;
  popularity::BotnetInferenceReport botnet;
};

inline population::Population paper_population(std::uint64_t seed,
                                               double scale) {
  population::PopulationConfig config;
  config.seed = seed;
  config.scale = scale;
  return population::Population::generate(config);
}

/// One pass of torbench's paper-pipeline workload over `pop`, which
/// paper_population(seed, ...) generated.
inline PaperChain paper_chain(const population::Population& pop,
                              std::uint64_t seed, int threads) {
  PaperChain out;
  out.scan = scan::PortScanner(scan::ScanConfig{.seed = seed + 1,
                                                .threads = threads})
                 .scan(pop);
  out.cert = scan::analyse_certificates(pop, out.scan);
  out.crawl = scan::Crawler(scan::CrawlConfig{.seed = seed + 4})
                  .crawl(pop, out.scan);
  util::Rng rng(seed + 2);
  const auto classifier = content::TopicClassifier::make_default(rng);
  out.content = content::ContentPipeline(classifier,
                                         content::LanguageDetector::instance(),
                                         {.threads = threads})
                    .run(out.crawl.pages);
  const auto stream =
      popularity::RequestGenerator({.seed = seed + 3}).generate(pop);
  popularity::DescriptorResolver resolver({.threads = threads});
  resolver.build_dictionary(pop);
  out.ranking = resolver.resolve(stream, pop);
  out.botnet = popularity::infer_botnet_infrastructure(out.ranking, pop);
  return out;
}

}  // namespace torsim::oracle
