#include "crypto/digest.hpp"

#include <cmath>
#include <stdexcept>

#include "crypto/sha1_batch.hpp"
#include "util/encoding.hpp"
#include "util/strings.hpp"

namespace torsim::crypto {

PermanentId permanent_id_from_fingerprint(const Sha1Digest& fingerprint) {
  PermanentId id;
  std::copy(fingerprint.begin(), fingerprint.begin() + id.size(), id.begin());
  return id;
}

std::string onion_address(const PermanentId& id) {
  return util::base32_encode(std::span<const std::uint8_t>(id));
}

std::string onion_address_from_public_key(
    std::span<const std::uint8_t> public_key) {
  if (public_key.empty())
    throw std::invalid_argument("onion_address_from_public_key: empty key");
  return onion_address(permanent_id_from_fingerprint(sha1(public_key)));
}

std::string onion_address_full(const PermanentId& id) {
  return onion_address(id) + ".onion";
}

PermanentId parse_onion_address(std::string_view address) {
  // Addresses are matched case-insensitively end to end: the base32
  // decoder accepts both cases, so the ".onion" suffix must too —
  // "ABC...XYZ.ONION" and "abc...xyz.onion" are the same service.
  if (address.size() >= 6 &&
      util::to_lower(address.substr(address.size() - 6)) == ".onion")
    address.remove_suffix(6);
  if (address.size() != 16)
    throw std::invalid_argument("parse_onion_address: need 16 base32 chars");
  const auto bytes = util::base32_decode(address);
  if (bytes.size() != 10)
    throw std::invalid_argument("parse_onion_address: bad decode length");
  PermanentId id;
  std::copy(bytes.begin(), bytes.end(), id.begin());
  return id;
}

std::uint32_t time_period(util::UnixTime t, const PermanentId& id) {
  if (t < 0) throw std::invalid_argument("time_period: negative time");
  // rend-spec v2: (time + id-byte-0 * 86400 / 256) / 86400.
  const std::uint64_t offset =
      static_cast<std::uint64_t>(id[0]) * 86400ULL / 256ULL;
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(t) + offset) / 86400ULL);
}

namespace {

// Ids derived by descriptor_id and descriptor_ids_for_period, read by
// the torbench harness (see derivation_cache_stats).
util::CacheCounters& derivation_counters() {
  static util::CacheCounters counters;
  return counters;
}

// Midstate over INT4(period) || cookie — everything of secret-id-part
// except the trailing replica byte. Copy the returned hasher to fork it
// per replica.
Sha1 secret_midstate(std::uint32_t period,
                     std::span<const std::uint8_t> cookie) {
  Sha1 hasher;
  const std::array<std::uint8_t, 4> period_bytes = {
      static_cast<std::uint8_t>(period >> 24),
      static_cast<std::uint8_t>(period >> 16),
      static_cast<std::uint8_t>(period >> 8),
      static_cast<std::uint8_t>(period)};
  hasher.update(std::span<const std::uint8_t>(period_bytes));
  hasher.update(cookie);
  return hasher;
}

Sha1Digest finish_secret(Sha1 midstate, std::uint8_t replica) {
  const std::array<std::uint8_t, 1> replica_byte = {replica};
  midstate.update(std::span<const std::uint8_t>(replica_byte));
  return midstate.finalize();
}

DescriptorId combine_descriptor_id(const PermanentId& id,
                                   const Sha1Digest& secret) {
  Sha1 hasher;
  hasher.update(std::span<const std::uint8_t>(id));
  hasher.update(std::span<const std::uint8_t>(secret));
  return hasher.finalize();
}

// Lane-parallel derivation core: the secret-id-part of every
// (period, replica) pair is hashed through the batched kernel in one
// pass, then the combine digests are forked off a shared permanent-id
// midstate. Writes periods.size() * kNumReplicas ids, period-major /
// replica-minor — the exact bytes (and order) of one scalar derivation
// per (period, replica).
void derive_ids_lanes(const PermanentId& id,
                      std::span<const std::uint32_t> periods,
                      std::span<const std::uint8_t> cookie,
                      DescriptorId* out) {
  const std::size_t replicas = static_cast<std::size_t>(kNumReplicas);
  const std::size_t count = periods.size() * replicas;
  const std::size_t msg_len = 4 + cookie.size() + 1;
  std::vector<std::uint8_t> flat(count * msg_len);
  std::vector<std::span<const std::uint8_t>> messages(count);
  for (std::size_t p = 0; p < periods.size(); ++p) {
    const std::uint32_t period = periods[p];
    for (std::size_t r = 0; r < replicas; ++r) {
      std::uint8_t* dst = flat.data() + (p * replicas + r) * msg_len;
      dst[0] = static_cast<std::uint8_t>(period >> 24);
      dst[1] = static_cast<std::uint8_t>(period >> 16);
      dst[2] = static_cast<std::uint8_t>(period >> 8);
      dst[3] = static_cast<std::uint8_t>(period);
      std::copy(cookie.begin(), cookie.end(), dst + 4);
      dst[4 + cookie.size()] = static_cast<std::uint8_t>(r);
      messages[p * replicas + r] =
          std::span<const std::uint8_t>(dst, msg_len);
    }
  }
  std::vector<Sha1Digest> secrets(count);
  sha1_batch(messages, secrets);

  Sha1Midstate prefix;
  prefix.absorb(std::span<const std::uint8_t>(id));
  std::vector<std::span<const std::uint8_t>> suffixes(count);
  for (std::size_t m = 0; m < count; ++m)
    suffixes[m] = std::span<const std::uint8_t>(secrets[m]);
  sha1_finish_lanes(prefix, suffixes, std::span<Sha1Digest>(out, count));
}

}  // namespace

Sha1Digest secret_id_part(std::uint32_t period, std::uint8_t replica,
                          std::span<const std::uint8_t> cookie) {
  return finish_secret(secret_midstate(period, cookie), replica);
}

DescriptorId descriptor_id(const PermanentId& id, std::uint32_t period,
                           std::uint8_t replica,
                           std::span<const std::uint8_t> cookie) {
  derivation_counters().miss();
  return combine_descriptor_id(id, secret_id_part(period, replica, cookie));
}

std::array<DescriptorId, kNumReplicas> descriptor_ids_for_period(
    const PermanentId& id, std::uint32_t period,
    std::span<const std::uint8_t> cookie) {
  derivation_counters().miss(kNumReplicas);
  std::array<DescriptorId, kNumReplicas> out{};
  const std::uint32_t periods[1] = {period};
  derive_ids_lanes(id, std::span<const std::uint32_t>(periods, 1), cookie,
                   out.data());
  return out;
}

std::vector<DescriptorId> descriptor_ids_for_periods(
    const PermanentId& id, std::span<const std::uint32_t> periods,
    std::span<const std::uint8_t> cookie) {
  const std::size_t replicas = static_cast<std::size_t>(kNumReplicas);
  std::vector<DescriptorId> out(periods.size() * replicas);
  if (periods.empty()) return out;
  derive_ids_lanes(id, periods, cookie, out.data());
  return out;
}

util::CacheStats derivation_cache_stats() {
  return derivation_counters().snapshot();
}

void reset_derivation_cache_stats() { derivation_counters().reset(); }

util::Seconds seconds_until_rotation(util::UnixTime t, const PermanentId& id) {
  const std::uint64_t offset =
      static_cast<std::uint64_t>(id[0]) * 86400ULL / 256ULL;
  const std::uint64_t shifted = static_cast<std::uint64_t>(t) + offset;
  return static_cast<util::Seconds>(86400ULL - shifted % 86400ULL);
}

U160::U160(const Sha1Digest& digest) : limbs_{} {
  // digest is big-endian; limbs_[0] is least significant.
  for (int i = 0; i < 20; ++i) {
    const int bit_offset = (19 - i) * 8;
    limbs_[bit_offset / 64] |= static_cast<std::uint64_t>(digest[i])
                               << (bit_offset % 64);
  }
}

Sha1Digest U160::to_digest() const {
  Sha1Digest digest{};
  for (int i = 0; i < 20; ++i) {
    const int bit_offset = (19 - i) * 8;
    digest[i] = static_cast<std::uint8_t>(limbs_[bit_offset / 64] >>
                                          (bit_offset % 64));
  }
  return digest;
}

std::strong_ordering U160::operator<=>(const U160& other) const {
  for (int i = 2; i >= 0; --i) {
    if (limbs_[i] != other.limbs_[i])
      return limbs_[i] < other.limbs_[i] ? std::strong_ordering::less
                                         : std::strong_ordering::greater;
  }
  return std::strong_ordering::equal;
}

U160 U160::ring_distance_from(const U160& other) const {
  // this - other mod 2^160, borrow-chain subtraction.
  U160 result;
  std::uint64_t borrow = 0;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t lhs = limbs_[i];
    const std::uint64_t rhs = other.limbs_[i];
    const std::uint64_t sub1 = lhs - rhs;
    const std::uint64_t borrow1 = lhs < rhs ? 1u : 0u;
    const std::uint64_t sub2 = sub1 - borrow;
    const std::uint64_t borrow2 = sub1 < borrow ? 1u : 0u;
    result.limbs_[i] = sub2;
    borrow = borrow1 + borrow2;
  }
  // Reduce mod 2^160: keep only 32 bits of the top limb.
  result.limbs_[2] &= 0xffffffffULL;
  return result;
}

double U160::to_double() const {
  return static_cast<double>(limbs_[0]) +
         std::ldexp(static_cast<double>(limbs_[1]), 64) +
         std::ldexp(static_cast<double>(limbs_[2]), 128);
}

U160 U160::add(const U160& other) const {
  U160 result;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 3; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(limbs_[i]) + other.limbs_[i] + carry;
    result.limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  result.limbs_[2] &= 0xffffffffULL;
  return result;
}

U160 U160::from_u64(std::uint64_t value) {
  U160 result;
  result.limbs_[0] = value;
  return result;
}

U160 U160::from_double(double value) {
  if (value < 0.0 || value >= std::ldexp(1.0, 160))
    throw std::invalid_argument("U160::from_double: out of range");
  U160 result;
  double remaining = value;
  const double two64 = std::ldexp(1.0, 64);
  const double hi = std::floor(remaining / std::ldexp(1.0, 128));
  remaining -= hi * std::ldexp(1.0, 128);
  const double mid = std::floor(remaining / two64);
  remaining -= mid * two64;
  result.limbs_[2] = static_cast<std::uint64_t>(hi) & 0xffffffffULL;
  result.limbs_[1] = static_cast<std::uint64_t>(mid);
  result.limbs_[0] = static_cast<std::uint64_t>(remaining);
  return result;
}

double ring_distance(const Sha1Digest& from, const Sha1Digest& to) {
  return U160(to).ring_distance_from(U160(from)).to_double();
}

}  // namespace torsim::crypto
