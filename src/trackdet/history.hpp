// Compact HSDir-ring history: one snapshot per day (per descriptor time
// period), as mined from three years of consensus archives. This is the
// input representation for the Sec. VII tracking detector; it is
// deliberately lighter than the full dirauth::Consensus so multi-year
// histories stay cheap.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "dirauth/archive.hpp"
#include "util/ipv4.hpp"
#include "util/time.hpp"

namespace torsim::trackdet {

/// A physical server (what an analyst can group by: IP + nickname).
/// Fingerprints are per-snapshot, since servers switch keys.
struct ServerInfo {
  std::uint32_t id = 0;
  std::string name;
  util::Ipv4 address;
  /// Ground-truth campaign tag ("" = honest). Never consulted by the
  /// detector — only by tests/benches validating detector output.
  std::string truth_campaign;
};

/// One relay with HSDir flag in one snapshot.
struct SnapshotEntry {
  crypto::Fingerprint fingerprint{};
  std::uint32_t server = 0;
};

/// True when each entry's fingerprint is greater than the one before
/// it (no ties): such a list has exactly one sorted order.
bool fingerprints_strictly_ascending(std::span<const SnapshotEntry> entries);

/// The HSDir ring on one day.
class Snapshot {
 public:
  /// Sorts `entries` by fingerprint, unless they are strictly ascending
  /// already.
  Snapshot(util::UnixTime time, std::vector<SnapshotEntry> entries);

  util::UnixTime time() const { return time_; }
  const std::vector<SnapshotEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// The 3 entries following `id` clockwise (the responsible HSDirs of
  /// one replica).
  std::vector<const SnapshotEntry*> responsible(
      const crypto::DescriptorId& id) const;

  /// Average gap between consecutive fingerprints on this ring (the
  /// "avg_dist" of the paper's ratio rule).
  double average_gap() const;

 private:
  util::UnixTime time_;
  std::vector<SnapshotEntry> entries_;  // sorted by fingerprint
};

/// Multi-year history of daily snapshots plus the server table.
struct HsDirHistory {
  std::vector<ServerInfo> servers;
  std::vector<Snapshot> snapshots;  // ascending time

  const ServerInfo& server(std::uint32_t id) const { return servers[id]; }
};

/// Builds a compact history from a full consensus archive (for
/// end-to-end runs through sim::World). Consensus entries map to
/// servers by (address, nickname); snapshots are sampled every
/// `sample_hours`.
HsDirHistory history_from_archive(const dirauth::ConsensusArchive& archive,
                                  int sample_hours = 24);

}  // namespace torsim::trackdet
