#include "attack/grinding.hpp"

#include <cmath>

#include "crypto/grind.hpp"

namespace torsim::attack {

std::optional<GrindResult> grind_key_after(const crypto::Sha1Digest& target,
                                           double max_ring_fraction,
                                           util::Rng& rng,
                                           std::uint64_t max_attempts) {
  const double ring_size = std::ldexp(1.0, 160);
  const double max_distance = max_ring_fraction * ring_size;
  const crypto::U160 target_value(target);
  const auto distance_to = [&](const crypto::U160& fp) {
    return fp.ring_distance_from(target_value).to_double();
  };
  auto ground = crypto::grind_key(
      rng, max_attempts, [&](const crypto::Sha1Digest& fingerprint) {
        const crypto::U160 fp(fingerprint);
        if (fp == target_value) return false;  // need strictly after
        return distance_to(fp) <= max_distance;
      });
  if (!ground) return std::nullopt;
  const double distance =
      distance_to(crypto::U160(ground->key.fingerprint()));
  return GrindResult{std::move(ground->key), ground->attempts, distance};
}

}  // namespace torsim::attack
