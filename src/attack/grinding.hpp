// Identity-key grinding: regenerating keypairs until the fingerprint
// lands in a chosen arc of the 160-bit HSDir ring. This is how real
// trackers positioned relays immediately after Silk Road's descriptor
// IDs (the Sec. VII detector's "distance ratio" rule keys on exactly
// the unnaturally small distances this produces). The key loop itself
// is crypto::grind_key (crypto/grind.hpp); this file only supplies the
// ring-arc test.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/digest.hpp"
#include "crypto/keypair.hpp"
#include "util/rng.hpp"

namespace torsim::attack {

/// Result of a grinding run.
struct GrindResult {
  crypto::KeyPair key;
  std::uint64_t attempts = 0;
  /// Ring distance from the target id to the ground fingerprint.
  double distance = 0.0;
};

/// Grinds until the fingerprint falls within (target, target + max_distance]
/// clockwise on the ring, or until `max_attempts` keys were tried.
/// `max_distance` is expressed as a fraction of the full ring (e.g. 1e-4
/// of the ring beats essentially every honest relay).
std::optional<GrindResult> grind_key_after(
    const crypto::Sha1Digest& target, double max_ring_fraction,
    util::Rng& rng, std::uint64_t max_attempts = 2'000'000);

}  // namespace torsim::attack
