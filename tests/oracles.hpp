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
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/sha1.hpp"
#include "dirauth/consensus.hpp"

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

}  // namespace torsim::oracle
