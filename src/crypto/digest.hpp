// Tor rend-spec v2 identifier arithmetic.
//
// Implements, exactly as the 2013 Tor source did:
//   onion address   = base32(permanent-id),  permanent-id = SHA1(pubkey)[0:10]
//   time-period     = (unix-time + perm-id[0] * 86400 / 256) / 86400
//   secret-id-part  = SHA1( INT4(time-period) || BYTE(replica) )
//   descriptor-id   = SHA1( permanent-id || secret-id-part )
// plus the 160-bit ring order used to pick responsible HSDirs and the
// distance/ratio metrics the tracking-detection analysis (Sec. VII)
// computes over fingerprints.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"
#include "util/memo.hpp"
#include "util/time.hpp"

namespace torsim::crypto {

/// The 10-byte permanent identifier of a hidden service.
using PermanentId = std::array<std::uint8_t, 10>;

/// A v2 descriptor identifier (a point on the 160-bit ring).
using DescriptorId = Sha1Digest;

/// The big-endian first 8 bytes of a digest (one load and a byte
/// swap): digests with different prefixes order as their prefixes do.
inline std::uint64_t prefix64(const Sha1Digest& digest) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) value = (value << 8) | digest[i];
  return value;
}

/// Number of descriptor replicas a v2 hidden service publishes.
inline constexpr int kNumReplicas = 2;

/// Number of consecutive HSDirs responsible per replica.
inline constexpr int kHsDirsPerReplica = 3;

/// Extracts the permanent id (first 10 bytes of the key fingerprint).
PermanentId permanent_id_from_fingerprint(const Sha1Digest& fingerprint);

/// Renders the 16-character .onion address (without the ".onion" suffix).
std::string onion_address(const PermanentId& id);

/// Onion address of the service whose serialized public key is
/// `public_key`: base32(SHA1(key)[0:10]). Reads the bytes in place, so
/// a caller holding key bytes (a descriptor, an hsdir key table) needs no
/// KeyPair copy. Throws std::invalid_argument on an empty key, as
/// KeyPair::from_public_bytes does.
std::string onion_address_from_public_key(
    std::span<const std::uint8_t> public_key);

/// Full address with ".onion" appended.
std::string onion_address_full(const PermanentId& id);

/// Parses a 16-char base32 onion address (with or without ".onion").
/// Matching is case-insensitive throughout — base32 body and suffix
/// alike — so encode(decode(addr)) canonicalizes to lowercase.
/// Throws std::invalid_argument on malformed input.
PermanentId parse_onion_address(std::string_view address);

/// rend-spec v2 time period for this service at time `t`.
std::uint32_t time_period(util::UnixTime t, const PermanentId& id);

/// secret-id-part = SHA1(INT4(period) || descriptor-cookie || BYTE(replica)).
/// The cookie is empty for public services; authenticated ("stealth")
/// services mix in a secret shared with authorized clients, which makes
/// their descriptor IDs underivable from the onion address alone — such
/// requests stay unresolvable to a measuring HSDir (one contributor to
/// the paper's 80% unresolved request IDs).
Sha1Digest secret_id_part(std::uint32_t period, std::uint8_t replica,
                          std::span<const std::uint8_t> cookie = {});

/// descriptor-id = SHA1(permanent-id || secret-id-part).
DescriptorId descriptor_id(const PermanentId& id, std::uint32_t period,
                           std::uint8_t replica,
                           std::span<const std::uint8_t> cookie = {});

/// Both replicas' descriptor IDs for one (service, period), in replica
/// order, through the multi-lane batched SHA-1 (crypto/sha1_batch.hpp):
/// the secret-id-parts of both replicas are finished off one
/// INT4(period) || cookie midstate, then the combine digests are forked
/// off a shared permanent-id midstate — the same bytes as kNumReplicas
/// independent descriptor_id calls (the differential suite checks this
/// against the scalar oracle in tests/oracles.hpp at randomized
/// schedules).
std::array<DescriptorId, kNumReplicas> descriptor_ids_for_period(
    const PermanentId& id, std::uint32_t period,
    std::span<const std::uint8_t> cookie = {});

/// Secret table: the secret-id-parts of the `count` consecutive periods
/// first_period, first_period + 1, ..., period-major / replica-minor
/// (result[p * kNumReplicas + r] is secret_id_part(first_period + p, r,
/// cookie)). A secret depends only on (period, replica, cookie), so one
/// table serves every public service whose periods fall in the range.
std::vector<Sha1Digest> secret_id_parts(
    std::uint32_t first_period, std::size_t count,
    std::span<const std::uint8_t> cookie = {});

/// Whole-block derivation from precomputed secrets: out[i] =
/// SHA1(permanent-id || secrets[i]), the descriptor id for whichever
/// (period, replica) secrets[i] belongs to. Pass a run of a
/// secret_id_parts table to get descriptor_ids_for_period's bytes for
/// consecutive periods, period-major / replica-minor. Only the combine
/// digests are hashed here — kSha1Lanes at a time off one permanent-id
/// midstate — so a caller deriving many services over one period range
/// hashes each secret once per table, not once per service. Used by the
/// resolver's dictionary builder. `out` must hold secrets.size() ids
/// (std::invalid_argument otherwise). Counts secrets.size() derivations
/// in derivation_cache_stats.
void descriptor_ids_for_periods(const PermanentId& id,
                                std::span<const Sha1Digest> secrets,
                                std::span<DescriptorId> out);

/// Ids derived by descriptor_id, descriptor_ids_for_period and
/// descriptor_ids_for_periods since the last reset, recorded as misses
/// (hits are always 0: there is no cache). Perf telemetry read by the torbench harness under its old
/// cache name; it stays until a sanctioned benchmark change.
util::CacheStats derivation_cache_stats();
void reset_derivation_cache_stats();

/// Seconds until this service's descriptor IDs next rotate.
util::Seconds seconds_until_rotation(util::UnixTime t, const PermanentId& id);

/// 160-bit unsigned integer view of a digest, with the modular ring
/// arithmetic the HSDir ring and Sec. VII distance metrics need.
class U160 {
 public:
  U160() : limbs_{} {}
  explicit U160(const Sha1Digest& digest);

  /// Big-endian byte rendering (inverse of the digest constructor).
  Sha1Digest to_digest() const;

  std::strong_ordering operator<=>(const U160& other) const;
  bool operator==(const U160& other) const { return limbs_ == other.limbs_; }

  /// (this - other) mod 2^160: clockwise ring distance from other to this.
  U160 ring_distance_from(const U160& other) const;

  /// Conversion to double (loses precision; fine for ratio statistics).
  double to_double() const;

  /// this + other mod 2^160.
  U160 add(const U160& other) const;

  /// Construction from a small integer.
  static U160 from_u64(std::uint64_t value);

  /// Construction from a non-negative double < 2^160 (used to convert
  /// ring-fraction distances back into ring offsets; exact only to
  /// double precision, which is all the distance statistics need).
  static U160 from_double(double value);

 private:
  // limbs_[0] is least significant.
  std::array<std::uint64_t, 3> limbs_;  // 64+64+32 bits used
};

/// Clockwise distance on the ring from `from` to `to` as a double.
double ring_distance(const Sha1Digest& from, const Sha1Digest& to);

}  // namespace torsim::crypto
