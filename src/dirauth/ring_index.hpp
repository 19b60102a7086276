// Cache-friendly eytzinger-layout index over the HSDir ring.
//
// Every publish, fetch, harvest round, and tracking-detector sweep
// resolves descriptor IDs to their 3 responsible HSDirs: "first ring
// fingerprint strictly greater than the id, wrapping, then the next
// two". The pre-index implementation binary-searched `hsdir_indices_`
// and dereferenced a full ConsensusEntry (nickname string, address,
// flags — several cache lines of cold payload) on every probe. This
// index packs just the 20-byte ring fingerprints into an
// eytzinger-layout array (node k's children at 2k/2k+1, the layout a
// breadth-first heap uses): the first few levels of every descent share
// a handful of hot cache lines, the descent itself is a branch-free
// `k = 2k + (key <= id)` loop, and a parallel rank table maps the
// landing node back to its ring position.
//
// The index is built once per consensus construction and is immutable
// afterwards. tests/ring_index_diff_test.cpp replays randomized
// populations against the sorted-scan oracle in tests/oracles.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/keypair.hpp"

namespace torsim::dirauth {

class RingIndex {
 public:
  RingIndex() = default;

  /// Builds from the ring: `ring_fingerprints` must be ascending (the
  /// consensus fingerprint order, duplicates allowed);
  /// `entry_indices[rank]` is the caller-side handle (a
  /// Consensus::entries() index) of the HSDir at that ring rank.
  RingIndex(std::vector<crypto::Fingerprint> ring_fingerprints,
            std::vector<std::uint32_t> entry_indices);

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// Ring rank of the first HSDir whose fingerprint is strictly greater
  /// than `id`. Returns size() when every fingerprint is <= id — the
  /// wraparound case; callers index with `rank % size()`.
  std::size_t first_after(const crypto::Sha1Digest& id) const;

  /// Caller-side handle of the HSDir at `rank` (entries() index).
  std::uint32_t entry_index(std::size_t rank) const {
    return entry_index_[rank];
  }

  /// Ring fingerprint at `rank` (ascending order).
  const crypto::Fingerprint& fingerprint(std::size_t rank) const {
    return sorted_[rank];
  }

 private:
  std::vector<crypto::Fingerprint> sorted_;    // ring (ascending) order
  std::vector<std::uint32_t> entry_index_;     // rank -> caller handle
  // The eytzinger nodes hold only the big-endian first 8 bytes of each
  // fingerprint: the whole descent array for a full-scale ring stays
  // L1-resident (1300 keys ~ 10 KB vs 26 KB) and every comparison is a
  // single integer op. Prefix ties are resolved against the full keys
  // in sorted_ after the descent (see first_after).
  std::vector<std::uint64_t> eytz_;            // 1-based eytzinger layout
  std::vector<std::uint32_t> eytz_rank_;       // eytzinger node -> rank
};

}  // namespace torsim::dirauth
