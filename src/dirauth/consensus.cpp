#include "dirauth/consensus.hpp"

#include <algorithm>
#include <utility>

namespace torsim::dirauth {

Consensus::Consensus(util::UnixTime valid_after,
                     std::vector<ConsensusEntry> entries)
    : valid_after_(valid_after), entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ConsensusEntry& a, const ConsensusEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (has_flag(entries_[i].flags, Flag::kHSDir)) hsdir_indices_.push_back(i);
    if (has_flag(entries_[i].flags, Flag::kFast)) fast_indices_.push_back(i);
  }
  build_ring_index();
}

void Consensus::build_ring_index() {
  std::vector<crypto::Fingerprint> ring;
  std::vector<std::uint32_t> handles;
  ring.reserve(hsdir_indices_.size());
  handles.reserve(hsdir_indices_.size());
  for (const std::size_t idx : hsdir_indices_) {
    ring.push_back(entries_[idx].fingerprint);
    handles.push_back(static_cast<std::uint32_t>(idx));
  }
  ring_index_ = RingIndex(std::move(ring), std::move(handles));
}

const ConsensusEntry* Consensus::find(
    const crypto::Fingerprint& fingerprint) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), fingerprint,
      [](const ConsensusEntry& e, const crypto::Fingerprint& fp) {
        return e.fingerprint < fp;
      });
  if (it == entries_.end() || it->fingerprint != fingerprint) return nullptr;
  return &*it;
}

const ConsensusEntry* Consensus::find_relay(relay::RelayId id) const {
  for (const ConsensusEntry& e : entries_)
    if (e.relay == id) return &e;
  return nullptr;
}

std::size_t Consensus::responsible_hsdirs_into(
    const crypto::DescriptorId& descriptor_id, const ConsensusEntry** out,
    std::size_t capacity) const {
  const std::size_t n = hsdir_indices_.size();
  if (n == 0 || capacity == 0) return 0;
  const std::size_t take = std::min(
      capacity, std::min<std::size_t>(crypto::kHsDirsPerReplica, n));
  const std::size_t start = ring_index_.first_after(descriptor_id);
  for (std::size_t k = 0; k < take; ++k) {
    std::size_t rank = start + k;  // wraps at most once: take <= n
    if (rank >= n) rank -= n;
    out[k] = &entries_[ring_index_.entry_index(rank)];
  }
  return take;
}

std::vector<const ConsensusEntry*> Consensus::responsible_hsdirs(
    const crypto::DescriptorId& descriptor_id) const {
  const ConsensusEntry* buf[crypto::kHsDirsPerReplica];
  const std::size_t got =
      responsible_hsdirs_into(descriptor_id, buf, crypto::kHsDirsPerReplica);
  return std::vector<const ConsensusEntry*>(buf, buf + got);
}

std::vector<const ConsensusEntry*> Consensus::with_flag(Flag flag) const {
  std::vector<const ConsensusEntry*> out;
  for (const ConsensusEntry& e : entries_)
    if (has_flag(e.flags, flag)) out.push_back(&e);
  return out;
}

}  // namespace torsim::dirauth
