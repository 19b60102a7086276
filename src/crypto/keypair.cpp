#include "crypto/keypair.hpp"

#include <stdexcept>

#include "crypto/sha1_batch.hpp"
#include "util/encoding.hpp"

namespace torsim::crypto {

KeyPair::KeyPair(std::vector<std::uint8_t> bytes)
    : public_bytes_(std::move(bytes)),
      fingerprint_(sha1_finish_lanes(
          Sha1Midstate{}, std::span<const std::uint8_t>(public_bytes_))) {}

KeyPair KeyPair::generate(util::Rng& rng) {
  std::vector<std::uint8_t> bytes(kPublicKeyBytes);
  rng.fill_bytes(bytes.data(), bytes.size());
  return KeyPair(std::move(bytes));
}

KeyPair KeyPair::from_public_bytes(std::vector<std::uint8_t> bytes) {
  if (bytes.empty())
    throw std::invalid_argument("KeyPair::from_public_bytes: empty key");
  return KeyPair(std::move(bytes));
}

std::string KeyPair::fingerprint_hex() const {
  return util::hex_encode(std::span<const std::uint8_t>(fingerprint_));
}

}  // namespace torsim::crypto
