// Key grinding: drawing surrogate keypairs until the fingerprint passes
// a test. Attackers ground RSA keys to land relays just after Silk
// Road's descriptor IDs on the HSDir ring (attack::grind_key_after) and
// to mint look-alike "silkroa..." onions (the population's phishing
// copies). Both draw the same keys in the same order as repeated
// KeyPair::generate calls; the only difference is that candidates are
// hashed kSha1Lanes at a time through the lock-step kernel
// (crypto/sha1_batch.hpp) instead of one scalar SHA-1 each.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/keypair.hpp"
#include "crypto/sha1_batch.hpp"
#include "util/rng.hpp"

namespace torsim::crypto {

/// A ground key and the number of keys drawn to find it (>= 1).
struct GrindResult {
  KeyPair key;
  std::uint64_t attempts = 0;
};

/// Draws keys from `rng` exactly as successive KeyPair::generate calls
/// would, until `accept(fingerprint)` holds or `max_attempts` keys were
/// drawn. On success `rng` is left just after the accepted key's draws,
/// as if the keys after it in its batch had never been drawn; on
/// exhaustion it is `max_attempts` keys further on. `accept` must be a
/// pure function of the fingerprint.
template <typename Accept>
std::optional<GrindResult> grind_key(util::Rng& rng,
                                     std::uint64_t max_attempts,
                                     Accept&& accept) {
  const Sha1Midstate empty;
  std::uint8_t keys[kSha1Lanes][kPublicKeyBytes] = {};
  std::array<util::Rng, kSha1Lanes> after;
  std::span<const std::uint8_t> messages[kSha1Lanes];
  Sha1Digest fingerprints[kSha1Lanes] = {};
  for (std::uint64_t drawn = 0; drawn < max_attempts;) {
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::uint64_t>(kSha1Lanes, max_attempts - drawn));
    for (std::size_t l = 0; l < lanes; ++l) {
      rng.fill_bytes(keys[l], kPublicKeyBytes);
      after[l] = rng;
      messages[l] = std::span<const std::uint8_t>(keys[l], kPublicKeyBytes);
    }
    sha1_finish_lanes(empty,
                      std::span<const std::span<const std::uint8_t>>(
                          messages, lanes),
                      std::span<Sha1Digest>(fingerprints, lanes));
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!accept(fingerprints[l])) continue;
      rng = after[l];
      return GrindResult{
          KeyPair::from_public_bytes(std::vector<std::uint8_t>(
              keys[l], keys[l] + kPublicKeyBytes)),
          drawn + l + 1};
    }
    drawn += lanes;
  }
  return std::nullopt;
}

/// Grinds a key whose onion address starts with `prefix`. The test
/// reads the top 5 * prefix.size() bits of the fingerprint and builds
/// no strings. Cost grows 32^len; practical for <= 4 characters.
/// Throws std::invalid_argument when no onion address can match: a
/// character outside the lowercase base32 alphabet [a-z2-7], or more
/// than 16 characters.
std::optional<GrindResult> grind_onion_prefix(
    std::string_view prefix, util::Rng& rng,
    std::uint64_t max_attempts = 50'000'000);

}  // namespace torsim::crypto
