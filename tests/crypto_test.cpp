#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/grind.hpp"
#include "crypto/keypair.hpp"
#include "crypto/sha1.hpp"
#include "util/encoding.hpp"
#include "util/strings.hpp"

namespace torsim::crypto {
namespace {

// ---------------------------------------------------------------------
// SHA-1 against FIPS 180-4 / RFC 3174 vectors
// ---------------------------------------------------------------------

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(sha1_hex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(sha1_hex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(
      sha1_hex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, QuickBrownFox) {
  EXPECT_EQ(sha1_hex(sha1("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, FourBlockMessage) {
  // FIPS 180-4 / RFC 6234 896-bit two-through-four-block vector.
  EXPECT_EQ(sha1_hex(sha1(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "a49b2446a02c645bf419f995b67091253a04a259");
}

TEST(Sha1Test, RepeatedEightByteBlocks) {
  // RFC 3174 test case 4: "01234567" repeated 80 times (640 bytes).
  std::string msg;
  for (int i = 0; i < 80; ++i) msg += "01234567";
  EXPECT_EQ(sha1_hex(sha1(msg)),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

TEST(Sha1Test, MillionAs) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(sha1_hex(hasher.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog etc";
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha1 hasher;
    hasher.update(std::string_view(msg).substr(0, cut));
    hasher.update(std::string_view(msg).substr(cut));
    EXPECT_EQ(hasher.finalize(), sha1(msg)) << "cut=" << cut;
  }
}

TEST(Sha1Test, BlockBoundaryLengths) {
  // 55/56/57, 63/64/65 bytes exercise the padding edge cases.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha1 incremental;
    for (char c : msg) incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finalize(), sha1(msg)) << "len=" << len;
  }
}

TEST(Sha1Test, ResetAllowsReuse) {
  Sha1 hasher;
  hasher.update("garbage");
  (void)hasher.finalize();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(sha1_hex(hasher.finalize()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, UseAfterFinalizeThrows) {
  Sha1 hasher;
  hasher.update("abc");
  (void)hasher.finalize();
  EXPECT_THROW(hasher.update("x"), std::logic_error);
  EXPECT_THROW(hasher.finalize(), std::logic_error);
}

// ---------------------------------------------------------------------
// Base32 round-trip properties (the onion-address codec)
// ---------------------------------------------------------------------

TEST(Base32PropertyTest, RoundTripRandomBytes) {
  util::Rng rng(20130404);
  for (int round = 0; round < 500; ++round) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> data(len);
    if (len > 0) rng.fill_bytes(data.data(), len);
    const std::string encoded = util::base32_encode(data);
    EXPECT_EQ(encoded.size(), (len * 8 + 4) / 5) << "len=" << len;
    for (char c : encoded)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '2' && c <= '7'))
          << encoded;
    EXPECT_EQ(util::base32_decode(encoded), data) << "len=" << len;
  }
}

TEST(Base32PropertyTest, UppercaseDecodesToSameBytes) {
  util::Rng rng(20130405);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::uint8_t> data(10);  // onion-address payload size
    rng.fill_bytes(data.data(), data.size());
    std::string upper = util::base32_encode(data);
    for (char& c : upper)
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    EXPECT_EQ(util::base32_decode(upper), data);
  }
}

// ---------------------------------------------------------------------
// KeyPair
// ---------------------------------------------------------------------

TEST(KeyPairTest, DeterministicFromSeed) {
  util::Rng a(99), b(99);
  EXPECT_EQ(KeyPair::generate(a).fingerprint(),
            KeyPair::generate(b).fingerprint());
}

TEST(KeyPairTest, DistinctKeysDistinctFingerprints) {
  util::Rng rng(100);
  const auto k1 = KeyPair::generate(rng);
  const auto k2 = KeyPair::generate(rng);
  EXPECT_NE(k1.fingerprint(), k2.fingerprint());
}

TEST(KeyPairTest, FingerprintIsSha1OfPublicBytes) {
  util::Rng rng(101);
  const auto key = KeyPair::generate(rng);
  EXPECT_EQ(key.fingerprint(),
            sha1(std::span<const std::uint8_t>(key.public_bytes())));
  EXPECT_EQ(key.public_bytes().size(), kPublicKeyBytes);
}

TEST(KeyPairTest, FromPublicBytesRoundTrip) {
  util::Rng rng(102);
  const auto key = KeyPair::generate(rng);
  const auto rebuilt = KeyPair::from_public_bytes(key.public_bytes());
  EXPECT_EQ(rebuilt.fingerprint(), key.fingerprint());
  EXPECT_THROW(KeyPair::from_public_bytes({}), std::invalid_argument);
}

TEST(KeyPairTest, FingerprintHexIs40Chars) {
  util::Rng rng(103);
  EXPECT_EQ(KeyPair::generate(rng).fingerprint_hex().size(), 40u);
}

// ---------------------------------------------------------------------
// Key grinding (the scalar-loop differential is grind_diff_test.cpp)
// ---------------------------------------------------------------------

TEST(GrindTest, OnionPrefixGrinding) {
  util::Rng rng(7);
  const auto result = grind_onion_prefix("ab", rng, 1000000);
  ASSERT_TRUE(result.has_value());
  const auto onion = onion_address(
      permanent_id_from_fingerprint(result->key.fingerprint()));
  EXPECT_TRUE(util::starts_with(onion, "ab")) << onion;
}

TEST(GrindTest, PrefixNoOnionCanStartWithThrows) {
  // onion_address is 16 lowercase base32 characters, [a-z2-7]. Each of
  // these prefixes can never match; grinding one used to burn the whole
  // 50M-key default budget before returning nullopt.
  const std::string impossible[] = {
      "A", "0", "1", "8", "9", "Sil", "si.", "sil ",
      "silkroadsilkroad7",  // 17 characters
      std::string(40, 'a')};
  for (const std::string& prefix : impossible) {
    util::Rng rng(8);
    util::Rng untouched = rng;
    EXPECT_THROW(grind_onion_prefix(prefix, rng), std::invalid_argument)
        << "'" << prefix << "'";
    EXPECT_EQ(rng.next(), untouched.next()) << "drew keys for " << prefix;
  }
}

TEST(GrindTest, SixteenCharacterPrefixIsValid) {
  // The longest prefix an address can have is the address itself: it
  // grinds (and here exhausts its budget) instead of throwing.
  util::Rng rng(9);
  util::Rng expected = rng;
  EXPECT_FALSE(grind_onion_prefix("zz234567abcdefgh", rng, 9).has_value());
  for (int i = 0; i < 9; ++i) KeyPair::generate(expected);
  EXPECT_EQ(rng.next(), expected.next());
}

// ---------------------------------------------------------------------
// Onion addresses & descriptor IDs (rend-spec v2)
// ---------------------------------------------------------------------

TEST(DigestTest, OnionAddressShape) {
  util::Rng rng(104);
  const auto key = KeyPair::generate(rng);
  const auto id = permanent_id_from_fingerprint(key.fingerprint());
  const std::string onion = onion_address(id);
  EXPECT_EQ(onion.size(), 16u);
  for (char c : onion)
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '2' && c <= '7')) << onion;
  EXPECT_EQ(onion_address_full(id), onion + ".onion");
}

TEST(DigestTest, ParseOnionRoundTrip) {
  util::Rng rng(105);
  const auto key = KeyPair::generate(rng);
  const auto id = permanent_id_from_fingerprint(key.fingerprint());
  EXPECT_EQ(parse_onion_address(onion_address(id)), id);
  EXPECT_EQ(parse_onion_address(onion_address_full(id)), id);
}

TEST(DigestTest, ParseOnionRejectsBadInput) {
  EXPECT_THROW(parse_onion_address("tooshort"), std::invalid_argument);
  EXPECT_THROW(parse_onion_address("0123456789abcdef"),  // '0' not base32
               std::invalid_argument);
}

TEST(DigestTest, ParseOnionIsCaseInsensitiveAndCanonicalizes) {
  // Onion addresses are case-insensitive on the wire (base32 per
  // RFC 4648); the parser must accept any casing — including a
  // mixed-case ".OnIoN" suffix — and encoding must canonicalize to
  // lowercase, so encode(decode(x)) round-trips for every casing of x.
  util::Rng rng(109);
  for (int i = 0; i < 50; ++i) {
    PermanentId id;
    rng.fill_bytes(id.data(), id.size());
    const std::string lower = onion_address(id);
    std::string upper = lower;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(parse_onion_address(upper), id);
    EXPECT_EQ(parse_onion_address(upper + ".ONION"), id);
    EXPECT_EQ(parse_onion_address(lower + ".OnIoN"), id);
    // Alternate the casing character by character.
    std::string mixed = lower;
    for (std::size_t k = 0; k < mixed.size(); k += 2)
      mixed[k] = static_cast<char>(std::toupper(mixed[k]));
    EXPECT_EQ(onion_address(parse_onion_address(mixed)), lower);
  }
}

TEST(DigestTest, KnownOnionFromTable2) {
  // Decoding a real Table II address and re-encoding must round-trip
  // (sanity for the base32 alphabet against real-world onions).
  const auto id = parse_onion_address("silkroadvb5piz3r.onion");
  EXPECT_EQ(onion_address(id), "silkroadvb5piz3r");
}

TEST(DigestTest, TimePeriodMatchesSpecFormula) {
  PermanentId id{};
  id[0] = 0;  // no offset
  EXPECT_EQ(time_period(86400 * 100 + 5, id), 100u);
  id[0] = 255;
  // offset = 255*86400/256 = 86062 -> pushes over the boundary
  EXPECT_EQ(time_period(86400 * 100 + 400, id), 101u);
}

TEST(DigestTest, TimePeriodBoundaries) {
  // The spec formula is period = (t + id[0]*86400/256) / 86400 with
  // integer arithmetic throughout.
  PermanentId id{};

  // Maximum offset: id[0] == 255 gives 255*86400/256 == 86062 (integer
  // division truncates the .5), so the period rolls over 338 seconds
  // after midnight: 338 + 86062 == 86400 exactly.
  id[0] = 255;
  EXPECT_EQ(time_period(0, id), 0u);
  EXPECT_EQ(time_period(337, id), 0u);
  EXPECT_EQ(time_period(338, id), 1u);

  // Zero offset: the rollover is midnight itself.
  id[0] = 0;
  EXPECT_EQ(time_period(0, id), 0u);
  EXPECT_EQ(time_period(86399, id), 0u);
  EXPECT_EQ(time_period(86400, id), 1u);

  EXPECT_THROW(time_period(-1, id), std::invalid_argument);
}

TEST(DigestTest, TimePeriodRotatesDaily) {
  util::Rng rng(106);
  const auto key = KeyPair::generate(rng);
  const auto id = permanent_id_from_fingerprint(key.fingerprint());
  const util::UnixTime t = util::make_utc(2013, 2, 4);
  EXPECT_EQ(time_period(t, id) + 1, time_period(t + util::kSecondsPerDay, id));
}

TEST(DigestTest, SecondsUntilRotationConsistent) {
  util::Rng rng(107);
  for (int i = 0; i < 20; ++i) {
    const auto key = KeyPair::generate(rng);
    const auto id = permanent_id_from_fingerprint(key.fingerprint());
    const util::UnixTime t = util::make_utc(2013, 2, 4, 13, 22, 7);
    const auto remaining = seconds_until_rotation(t, id);
    EXPECT_GT(remaining, 0);
    EXPECT_LE(remaining, util::kSecondsPerDay);
    EXPECT_EQ(time_period(t, id), time_period(t + remaining - 1, id));
    EXPECT_EQ(time_period(t, id) + 1, time_period(t + remaining, id));
  }
}

TEST(DigestTest, DescriptorIdDependsOnAllInputs) {
  util::Rng rng(108);
  const auto key = KeyPair::generate(rng);
  const auto id = permanent_id_from_fingerprint(key.fingerprint());
  const auto d0 = descriptor_id(id, 15000, 0);
  EXPECT_EQ(d0, descriptor_id(id, 15000, 0));  // deterministic
  EXPECT_NE(d0, descriptor_id(id, 15000, 1));  // replica matters
  EXPECT_NE(d0, descriptor_id(id, 15001, 0));  // period matters
  const auto other = KeyPair::generate(rng);
  EXPECT_NE(d0, descriptor_id(
                    permanent_id_from_fingerprint(other.fingerprint()), 15000,
                    0));  // identity matters
}

TEST(DigestTest, DescriptorIdMatchesManualSpecComputation) {
  util::Rng rng(109);
  const auto key = KeyPair::generate(rng);
  const auto id = permanent_id_from_fingerprint(key.fingerprint());
  const std::uint32_t period = 15741;
  const std::uint8_t replica = 1;
  // Manual: SHA1(id || SHA1(INT4(period) || replica)).
  std::vector<std::uint8_t> inner = {
      static_cast<std::uint8_t>(period >> 24),
      static_cast<std::uint8_t>(period >> 16),
      static_cast<std::uint8_t>(period >> 8),
      static_cast<std::uint8_t>(period), replica};
  const auto secret = sha1(std::span<const std::uint8_t>(inner));
  std::vector<std::uint8_t> outer(id.begin(), id.end());
  outer.insert(outer.end(), secret.begin(), secret.end());
  EXPECT_EQ(descriptor_id(id, period, replica),
            sha1(std::span<const std::uint8_t>(outer)));
}

TEST(DigestTest, MidstatePathMatchesPerReplicaDerivation) {
  // descriptor_ids_for_period (lane kernel, shared midstate) must give
  // each replica exactly what the per-replica descriptor_id computes,
  // for public and cookie-bearing services alike.
  util::Rng rng(502);
  const std::vector<std::uint8_t> cookie = {0xde, 0xad, 0xbe, 0xef};
  for (int i = 0; i < 50; ++i) {
    PermanentId pid;
    rng.fill_bytes(pid.data(), pid.size());
    const auto period =
        static_cast<std::uint32_t>(rng.uniform_int(15000, 16000));
    const auto ids = descriptor_ids_for_period(pid, period);
    const auto auth_ids = descriptor_ids_for_period(pid, period, cookie);
    for (std::uint8_t replica = 0; replica < kNumReplicas; ++replica) {
      EXPECT_EQ(ids[replica], descriptor_id(pid, period, replica));
      EXPECT_EQ(auth_ids[replica],
                descriptor_id(pid, period, replica, cookie));
    }
  }
}

TEST(DigestTest, CookieDerivationMatchesSpecAndDiffersFromPublic) {
  // secret-id-part = SHA1(INT4(period) || cookie || BYTE(replica)): a
  // stealth service's ids cannot be derived from its onion alone.
  util::Rng rng(505);
  PermanentId pid;
  rng.fill_bytes(pid.data(), pid.size());
  const std::vector<std::uint8_t> cookie = {1, 2, 3};
  const std::uint32_t period = 15740;
  const std::vector<std::uint8_t> inner = {
      static_cast<std::uint8_t>(period >> 24),
      static_cast<std::uint8_t>(period >> 16),
      static_cast<std::uint8_t>(period >> 8),
      static_cast<std::uint8_t>(period), 1, 2, 3, 0};
  const auto secret = sha1(std::span<const std::uint8_t>(inner));
  EXPECT_EQ(secret_id_part(period, 0, cookie), secret);
  std::vector<std::uint8_t> outer(pid.begin(), pid.end());
  outer.insert(outer.end(), secret.begin(), secret.end());
  const DescriptorId stealth = descriptor_id(pid, period, 0, cookie);
  EXPECT_EQ(stealth, sha1(std::span<const std::uint8_t>(outer)));
  EXPECT_NE(stealth, descriptor_id(pid, period, 0));
}

TEST(DerivationStatsTest, CountsDerivedIdsAsMisses) {
  // The harness-facing telemetry: every id descriptor_id or
  // descriptor_ids_for_period derives is one miss; nothing ever hits.
  reset_derivation_cache_stats();
  PermanentId pid{};
  descriptor_id(pid, 15740, 0);
  descriptor_id(pid, 15740, 0);
  descriptor_ids_for_period(pid, 15740);
  const util::CacheStats stats = derivation_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u + kNumReplicas);
  EXPECT_EQ(stats.lookups(), 2u + kNumReplicas);
  reset_derivation_cache_stats();
  EXPECT_EQ(derivation_cache_stats().lookups(), 0u);
}

TEST(DerivationStatsTest, BatchedCallCountsEverySecret) {
  // descriptor_ids_for_periods derives one id per secret, so a call over
  // n secrets adds exactly n; a call it rejects adds nothing.
  PermanentId pid{};
  pid[0] = 0x42;
  const std::vector<Sha1Digest> secrets = secret_id_parts(15740, 7);
  std::vector<DescriptorId> out(secrets.size());
  reset_derivation_cache_stats();
  descriptor_ids_for_periods(pid, secrets, out);
  EXPECT_EQ(derivation_cache_stats().lookups(), secrets.size());
  descriptor_ids_for_periods(pid, std::span(secrets).first(3),
                             std::span(out).first(3));
  EXPECT_EQ(derivation_cache_stats().lookups(), secrets.size() + 3);
  EXPECT_THROW(descriptor_ids_for_periods(pid, secrets,
                                          std::span(out).first(2)),
               std::invalid_argument);
  EXPECT_EQ(derivation_cache_stats().lookups(), secrets.size() + 3);
  EXPECT_EQ(derivation_cache_stats().hits, 0u);
  reset_derivation_cache_stats();
}

// ---------------------------------------------------------------------
// U160 ring arithmetic
// ---------------------------------------------------------------------

Sha1Digest digest_from_hex(std::string_view hex) {
  const auto bytes = util::hex_decode(hex);
  Sha1Digest d{};
  std::copy(bytes.begin(), bytes.end(), d.begin());
  return d;
}

TEST(U160Test, OrderingMatchesBigEndianBytes) {
  const auto lo = digest_from_hex("0000000000000000000000000000000000000001");
  const auto hi = digest_from_hex("8000000000000000000000000000000000000000");
  EXPECT_LT(U160(lo), U160(hi));
  EXPECT_GT(U160(hi), U160(lo));
  EXPECT_EQ(U160(lo), U160(lo));
}

TEST(U160Test, DigestRoundTrip) {
  util::Rng rng(110);
  for (int i = 0; i < 50; ++i) {
    Sha1Digest d;
    rng.fill_bytes(d.data(), d.size());
    EXPECT_EQ(U160(d).to_digest(), d);
  }
}

TEST(U160Test, RingDistanceSimple) {
  const auto a = digest_from_hex("0000000000000000000000000000000000000005");
  const auto b = digest_from_hex("000000000000000000000000000000000000000a");
  EXPECT_DOUBLE_EQ(ring_distance(a, b), 5.0);
}

TEST(U160Test, RingDistanceWrapsAround) {
  const auto a = digest_from_hex("ffffffffffffffffffffffffffffffffffffffff");
  const auto b = digest_from_hex("0000000000000000000000000000000000000004");
  EXPECT_DOUBLE_EQ(ring_distance(a, b), 5.0);  // wraps through zero
}

TEST(U160Test, DistancesAreComplementary) {
  util::Rng rng(111);
  const double ring = std::ldexp(1.0, 160);
  for (int i = 0; i < 20; ++i) {
    Sha1Digest a, b;
    rng.fill_bytes(a.data(), a.size());
    rng.fill_bytes(b.data(), b.size());
    if (a == b) continue;
    const double ab = ring_distance(a, b);
    const double ba = ring_distance(b, a);
    EXPECT_NEAR((ab + ba) / ring, 1.0, 1e-9);
  }
}

TEST(U160Test, AddInverseOfDistance) {
  util::Rng rng(112);
  for (int i = 0; i < 20; ++i) {
    Sha1Digest a, b;
    rng.fill_bytes(a.data(), a.size());
    rng.fill_bytes(b.data(), b.size());
    const U160 ua(a), ub(b);
    const U160 diff = ub.ring_distance_from(ua);
    EXPECT_EQ(ua.add(diff), ub);
  }
}

TEST(U160Test, FromU64) {
  EXPECT_DOUBLE_EQ(U160::from_u64(12345).to_double(), 12345.0);
  EXPECT_LT(U160::from_u64(1), U160::from_u64(2));
}

}  // namespace
}  // namespace torsim::crypto
