#include "trackdet/history.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace torsim::trackdet {

namespace {

bool by_fingerprint(const SnapshotEntry& a, const SnapshotEntry& b) {
  return a.fingerprint < b.fingerprint;
}

}  // namespace

bool fingerprints_strictly_ascending(std::span<const SnapshotEntry> entries) {
  return std::adjacent_find(entries.begin(), entries.end(),
                            [](const SnapshotEntry& a, const SnapshotEntry& b) {
                              return !by_fingerprint(a, b);
                            }) == entries.end();
}

Snapshot::Snapshot(util::UnixTime time, std::vector<SnapshotEntry> entries)
    : time_(time), entries_(std::move(entries)) {
  if (!fingerprints_strictly_ascending(entries_))
    std::sort(entries_.begin(), entries_.end(), by_fingerprint);
}

std::vector<const SnapshotEntry*> Snapshot::responsible(
    const crypto::DescriptorId& id) const {
  std::vector<const SnapshotEntry*> out;
  if (entries_.empty()) return out;
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), id,
      [](const crypto::DescriptorId& lhs, const SnapshotEntry& e) {
        return lhs < e.fingerprint;
      });
  const std::size_t start =
      static_cast<std::size_t>(it - entries_.begin()) % entries_.size();
  const std::size_t take =
      std::min<std::size_t>(crypto::kHsDirsPerReplica, entries_.size());
  for (std::size_t k = 0; k < take; ++k)
    out.push_back(&entries_[(start + k) % entries_.size()]);
  return out;
}

double Snapshot::average_gap() const {
  if (entries_.empty()) return 0.0;
  // Gaps over the whole ring sum to 2^160 regardless of positions.
  return std::ldexp(1.0, 160) / static_cast<double>(entries_.size());
}

HsDirHistory history_from_archive(const dirauth::ConsensusArchive& archive,
                                  int sample_hours) {
  HsDirHistory history;
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> server_ids;

  util::UnixTime next_sample =
      archive.empty() ? 0 : archive.first_time();
  for (std::size_t i = 0; i < archive.size(); ++i) {
    const dirauth::Consensus& c = archive.at(i);
    if (c.valid_after() < next_sample) continue;
    next_sample = c.valid_after() +
                  static_cast<util::Seconds>(sample_hours) *
                      util::kSecondsPerHour;

    std::vector<SnapshotEntry> entries;
    for (std::size_t idx : c.hsdir_indices()) {
      const dirauth::ConsensusEntry& e = c.entries()[idx];
      const auto key = std::make_pair(e.address.value(), e.nickname);
      auto it = server_ids.find(key);
      if (it == server_ids.end()) {
        ServerInfo info;
        info.id = static_cast<std::uint32_t>(history.servers.size());
        info.name = e.nickname;
        info.address = e.address;
        server_ids.emplace(key, info.id);
        it = server_ids.find(key);
        history.servers.push_back(std::move(info));
      }
      entries.push_back({e.fingerprint, it->second});
    }
    history.snapshots.emplace_back(c.valid_after(), std::move(entries));
  }
  return history;
}

}  // namespace torsim::trackdet
