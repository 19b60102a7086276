// Sec. VII: statistical detection of hidden-service tracking from
// consensus history. Five rules, straight from the paper:
//
//  1. Binomial test — a relay responsible for the target in more time
//     periods than mu + 3*sigma (p = 6 / N_hsdir) is suspicious.
//  2. A fingerprint switch shortly before becoming responsible.
//  3. Becoming responsible immediately after first appearing (the
//     25-hour minimum to earn the HSDir flag).
//  4. Distance ratio — avg_dist / distance(descriptor-id, fingerprint);
//     honest relays average ~1, positioned relays score 100 to 10,000+.
//  5. Responsibility in consecutive time periods.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trackdet/history.hpp"

namespace torsim::trackdet {

struct DetectorConfig {
  /// Ratio threshold for the "positioned fingerprint" rule; the paper
  /// highlights >100 (their own relays) and >10k (the May campaign).
  double ratio_threshold = 100.0;
  /// How many rule hits make a server suspicious overall.
  int min_flags = 1;
  /// Switch-before-responsible occurrences needed ("several times").
  int min_switches_before_responsible = 2;
};

/// Aggregated per-server observations against one target.
struct ServerStats {
  std::uint32_t server = 0;
  std::int64_t periods_observed = 0;      ///< snapshots server was in ring
  std::int64_t periods_responsible = 0;
  std::int64_t fingerprint_switches = 0;  ///< lifetime switches seen
  std::int64_t switches_before_responsible = 0;
  bool responsible_on_first_appearance = false;
  double max_ratio = 0.0;
  std::int64_t max_consecutive_periods = 0;
};

struct SuspicionFlags {
  bool over_three_sigma = false;
  bool switched_before_responsible = false;
  bool immediate_responsibility = false;
  bool positioned = false;          ///< ratio rule
  bool consecutive = false;         ///< >= 2 consecutive periods

  int count() const {
    return static_cast<int>(over_three_sigma) +
           static_cast<int>(switched_before_responsible) +
           static_cast<int>(immediate_responsibility) +
           static_cast<int>(positioned) + static_cast<int>(consecutive);
  }
};

struct SuspiciousServer {
  ServerStats stats;
  SuspicionFlags flags;
  std::string name;
  std::string truth_campaign;  ///< ground truth for validation only
};

/// A cluster of suspicious servers that overlap in time and share a
/// name prefix — the paper's evidence unit ("a set of servers that share
/// the same name ... take over 1 out of 6 HSDirs").
struct CampaignCluster {
  std::vector<std::uint32_t> servers;
  std::string shared_prefix;
  util::UnixTime first_seen = 0;
  util::UnixTime last_seen = 0;
  std::int64_t periods_covered = 0;
  double max_ratio = 0.0;
  bool full_takeover = false;  ///< held all 6 slots in one period
};

struct TrackingReport {
  std::int64_t snapshots = 0;
  double mean_hsdirs = 0.0;
  double suspicion_threshold = 0.0;  ///< mu + 3 sigma
  std::vector<SuspiciousServer> suspicious;
  std::vector<CampaignCluster> clusters;
  /// Periods in which every one of the 6 responsible HSDirs was
  /// suspicious (the pre-takedown full takeover).
  std::int64_t full_takeover_periods = 0;
};

class TrackingDetector {
 public:
  explicit TrackingDetector(DetectorConfig config = {});

  TrackingReport analyze(const HsDirHistory& history,
                         const crypto::PermanentId& target) const;

  /// Analyzes a window of `history`: `snapshots` is a contiguous run of
  /// `history.snapshots` (a calendar year, say), read in place. The
  /// report is the one a history holding only those snapshots (and the
  /// same server table) would give. Every entry's server id must index
  /// `history.servers` (std::out_of_range otherwise).
  TrackingReport analyze(const HsDirHistory& history,
                         std::span<const Snapshot> snapshots,
                         const crypto::PermanentId& target) const;

 private:
  DetectorConfig config_;
};

}  // namespace torsim::trackdet
