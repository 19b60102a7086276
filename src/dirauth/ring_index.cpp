#include "dirauth/ring_index.hpp"

#include <bit>
#include <utility>

namespace torsim::dirauth {

RingIndex::RingIndex(std::vector<crypto::Fingerprint> ring_fingerprints,
                     std::vector<std::uint32_t> entry_indices)
    : sorted_(std::move(ring_fingerprints)),
      entry_index_(std::move(entry_indices)) {
  const std::size_t n = sorted_.size();
  eytz_.resize(n + 1);       // node 0 unused: children of k are 2k, 2k+1
  eytz_rank_.resize(n + 1);
  // In-order fill: an in-order walk of the implicit tree visits nodes
  // in ascending key order, so handing out sorted_[rank] as the walk
  // advances places every key at its eytzinger node.
  std::size_t rank = 0;
  const auto fill = [&](auto&& self, std::size_t k) -> void {
    if (k > n) return;
    self(self, 2 * k);
    eytz_[k] = crypto::prefix64(sorted_[rank]);
    eytz_rank_[k] = static_cast<std::uint32_t>(rank);
    ++rank;
    self(self, 2 * k + 1);
  };
  fill(fill, 1);
}

// detlint: hot
std::size_t RingIndex::first_after(const crypto::Sha1Digest& id) const {
  const std::size_t n = sorted_.size();
  if (n == 0) return 0;
  const std::uint64_t p = crypto::prefix64(id);
  // Branch-free descent for the prefix upper bound: go right while the
  // node key is <= p. The answer is the last node where the descent
  // went left; cancelling the trailing right-turns (low 1-bits) of the
  // virtual-leaf position recovers it. k == 0 means every key was
  // <= p: no successor among the prefixes, wrap. The descendants four
  // levels down sit contiguously at 16k..16k+15, so one prefetch hides
  // most of the dependent-load latency.
  std::size_t k = 1;
  while (k <= n) {
    if (k * 16 <= n) __builtin_prefetch(&eytz_[k * 16]);
    k = 2 * k + (eytz_[k] <= p ? 1 : 0);
  }
  k >>= static_cast<unsigned>(std::countr_one(k) + 1);
  std::size_t r = (k == 0) ? n : eytz_rank_[k];
  // r is the first rank whose 8-byte prefix exceeds p. The true
  // successor can only sit inside the contiguous run of equal-prefix
  // keys just below r; resolve those ties against the full 20-byte
  // fingerprints (vanishingly rare for random fingerprints, but exact
  // for duplicates and adversarial keys).
  while (r > 0 && crypto::prefix64(sorted_[r - 1]) == p &&
         id < sorted_[r - 1])
    --r;
  return r;
}

}  // namespace torsim::dirauth
