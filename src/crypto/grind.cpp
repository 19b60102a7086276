#include "crypto/grind.hpp"

#include <stdexcept>
#include <string>

#include "crypto/digest.hpp"

namespace torsim::crypto {

namespace {

// Value of one lowercase base32 character (RFC 4648 alphabet), or -1.
int base32_value(char c) {
  if (c >= 'a' && c <= 'z') return c - 'a';
  if (c >= '2' && c <= '7') return 26 + (c - '2');
  return -1;
}

}  // namespace

std::optional<GrindResult> grind_onion_prefix(std::string_view prefix,
                                              util::Rng& rng,
                                              std::uint64_t max_attempts) {
  constexpr std::size_t kOnionChars = 16;
  if (prefix.size() > kOnionChars)
    throw std::invalid_argument(
        "grind_onion_prefix: prefix longer than an onion address");
  // The onion address is base32(fingerprint[0:10]), five bits a
  // character from the most significant bit, so the prefix is a fixed
  // bit pattern over the fingerprint's leading bytes.
  PermanentId want{};
  PermanentId mask{};
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const int value = base32_value(prefix[i]);
    if (value < 0)
      throw std::invalid_argument(
          "grind_onion_prefix: '" + std::string(1, prefix[i]) +
          "' is not in the onion alphabet [a-z2-7]");
    for (int bit = 0; bit < 5; ++bit) {
      const std::size_t pos = i * 5 + static_cast<std::size_t>(bit);
      const auto byte_bit = static_cast<std::uint8_t>(0x80u >> (pos % 8));
      mask[pos / 8] |= byte_bit;
      if ((value >> (4 - bit)) & 1) want[pos / 8] |= byte_bit;
    }
  }
  const std::size_t bytes = (prefix.size() * 5 + 7) / 8;
  return grind_key(rng, max_attempts, [&](const Sha1Digest& fingerprint) {
    for (std::size_t i = 0; i < bytes; ++i)
      if ((fingerprint[i] & mask[i]) != want[i]) return false;
    return true;
  });
}

}  // namespace torsim::crypto
