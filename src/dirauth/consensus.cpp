#include "dirauth/consensus.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/parallel.hpp"

namespace torsim::dirauth {

namespace {

// Monotone identity stamps for ring caches. The counter is process-wide
// and ordering-dependent, which is fine: generations are compared for
// equality only and never appear in any output.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Consensus::Consensus(util::UnixTime valid_after,
                     std::vector<ConsensusEntry> entries)
    : valid_after_(valid_after),
      entries_(std::move(entries)),
      generation_(next_generation()) {
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

Consensus::Consensus(const Consensus& other)
    : valid_after_(other.valid_after_),
      entries_(other.entries_),
      hsdir_indices_(other.hsdir_indices_),
      fast_indices_(other.fast_indices_),
      ring_index_(other.ring_index_),
      generation_(other.entries_.empty() ? 0 : next_generation()) {}

Consensus& Consensus::operator=(const Consensus& other) {
  if (this == &other) return *this;
  valid_after_ = other.valid_after_;
  entries_ = other.entries_;
  hsdir_indices_ = other.hsdir_indices_;
  fast_indices_ = other.fast_indices_;
  ring_index_ = other.ring_index_;
  generation_ = entries_.empty() ? 0 : next_generation();
  return *this;
}

Consensus::Consensus(Consensus&& other) noexcept
    : valid_after_(other.valid_after_),
      entries_(std::move(other.entries_)),
      hsdir_indices_(std::move(other.hsdir_indices_)),
      fast_indices_(std::move(other.fast_indices_)),
      ring_index_(std::move(other.ring_index_)),
      generation_(std::exchange(other.generation_, 0)) {
  other.valid_after_ = 0;
  other.entries_.clear();
  other.hsdir_indices_.clear();
  other.fast_indices_.clear();
  other.ring_index_ = RingIndex{};
}

Consensus& Consensus::operator=(Consensus&& other) noexcept {
  if (this == &other) return *this;
  valid_after_ = other.valid_after_;
  entries_ = std::move(other.entries_);
  hsdir_indices_ = std::move(other.hsdir_indices_);
  fast_indices_ = std::move(other.fast_indices_);
  ring_index_ = std::move(other.ring_index_);
  generation_ = std::exchange(other.generation_, 0);
  other.valid_after_ = 0;
  other.entries_.clear();
  other.hsdir_indices_.clear();
  other.fast_indices_.clear();
  other.ring_index_ = RingIndex{};
  return *this;
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

std::vector<const ConsensusEntry*> Consensus::responsible_hsdirs_scan(
    const crypto::DescriptorId& descriptor_id) const {
  std::vector<const ConsensusEntry*> out;
  if (hsdir_indices_.empty()) return out;
  // First HSDir whose fingerprint is strictly greater than the id,
  // wrapping around the ring; then the next kHsDirsPerReplica - 1.
  const auto greater = [&](std::size_t idx) {
    return entries_[idx].fingerprint > descriptor_id;
  };
  std::size_t start = hsdir_indices_.size();
  // hsdir_indices_ is in ascending fingerprint order; binary search the
  // first index whose entry fingerprint exceeds descriptor_id.
  std::size_t lo = 0, hi = hsdir_indices_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (greater(hsdir_indices_[mid]))
      hi = mid;
    else
      lo = mid + 1;
  }
  start = lo;  // may equal size() -> wrap to 0
  const std::size_t n = hsdir_indices_.size();
  const std::size_t take =
      std::min<std::size_t>(crypto::kHsDirsPerReplica, n);
  for (std::size_t k = 0; k < take; ++k) {
    const std::size_t idx = hsdir_indices_[(start + k) % n];
    out.push_back(&entries_[idx]);
  }
  return out;
}

std::size_t Consensus::responsible_hsdirs_into(
    const crypto::DescriptorId& descriptor_id, const ConsensusEntry** out,
    std::size_t capacity) const {
  const std::size_t n = hsdir_indices_.size();
  if (n == 0 || capacity == 0) return 0;
  const std::size_t take = std::min(
      capacity, std::min<std::size_t>(crypto::kHsDirsPerReplica, n));
  if (!ring_index_enabled()) {
    // Cold path: same probe sequence as the scan oracle (full-entry
    // dereferences, no index arrays touched).
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (entries_[hsdir_indices_[mid]].fingerprint > descriptor_id)
        hi = mid;
      else
        lo = mid + 1;
    }
    for (std::size_t k = 0; k < take; ++k)
      out[k] = &entries_[hsdir_indices_[(lo + k) % n]];
    return take;
  }
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

std::vector<std::vector<const ConsensusEntry*>>
Consensus::responsible_hsdirs_batch(
    const std::vector<crypto::DescriptorId>& ids, int threads) const {
  const std::size_t m = ids.size();
  if (m == 0 || !ring_index_enabled() || ring_index_.empty()) {
    return util::parallel_map(m, threads, [&](std::size_t i) {
      return responsible_hsdirs(ids[i]);
    });
  }
  // Indexed batch: resolve the whole query set in sorted order with one
  // merge walk over the ring per fixed-size chunk, then commit results
  // in caller order. Chunk boundaries depend only on m, so the ranks
  // (and the output) are identical for every thread count.
  std::vector<std::uint32_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (ids[a] != ids[b]) return ids[a] < ids[b];
              return a < b;  // stable for duplicate query ids
            });
  std::vector<std::uint32_t> ranks(m);
  constexpr std::size_t kQueryChunk = 1024;
  const std::size_t chunks = (m + kQueryChunk - 1) / kQueryChunk;
  util::parallel_for(chunks, threads, [&](std::size_t c) {
    const std::size_t begin = c * kQueryChunk;
    const std::size_t len = std::min(kQueryChunk, m - begin);
    ring_index_.first_after_sorted(ids, order.data() + begin, len,
                                   ranks.data());
  });
  const std::size_t n = ring_index_.size();
  const std::size_t take =
      std::min<std::size_t>(crypto::kHsDirsPerReplica, n);
  return util::parallel_map(m, threads, [&](std::size_t i) {
    std::vector<const ConsensusEntry*> out;
    out.reserve(take);
    for (std::size_t k = 0; k < take; ++k)
      out.push_back(&entries_[ring_index_.entry_index((ranks[i] + k) % n)]);
    return out;
  });
}

std::vector<const ConsensusEntry*> Consensus::with_flag(Flag flag) const {
  std::vector<const ConsensusEntry*> out;
  for (const ConsensusEntry& e : entries_)
    if (has_flag(e.flags, flag)) out.push_back(&e);
  return out;
}

}  // namespace torsim::dirauth
