// Differential suite for the multi-lane batched SHA-1
// (crypto/sha1_batch.hpp): every lane result must match the scalar
// crypto::Sha1 byte-for-byte. The scalar implementation is the oracle —
// it is untouched by the batch rewrite and validated against the FIPS /
// RFC vectors in crypto_test.cpp — so agreement here certifies the
// independent lane kernel end to end (padding, length encoding,
// midstate forking, lane compaction at mixed message lengths).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha1_batch.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace torsim::crypto {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  if (n > 0) rng.fill_bytes(out.data(), n);
  return out;
}

Sha1Digest scalar_sha1(const Bytes& prefix, const Bytes& suffix) {
  Sha1 hasher;
  hasher.update(std::span<const std::uint8_t>(prefix));
  hasher.update(std::span<const std::uint8_t>(suffix));
  return hasher.finalize();
}

std::vector<std::span<const std::uint8_t>> as_spans(
    const std::vector<Bytes>& messages) {
  std::vector<std::span<const std::uint8_t>> spans;
  spans.reserve(messages.size());
  for (const Bytes& m : messages) spans.emplace_back(m);
  return spans;
}

// The padding-sensitive lengths: 0 (empty), 55/56 (last byte that fits
// the length in block one / first that overflows into block two), 63/64/
// 65 (block boundary), 119/120 (the same boundary one block later).
const std::size_t kBoundaryLengths[] = {0, 55, 56, 63, 64, 65, 119, 120};

TEST(Sha1BatchTest, BlockBoundaryLengthsMatchScalar) {
  util::Rng rng(401);
  for (const std::size_t len : kBoundaryLengths) {
    const Bytes message = random_bytes(rng, len);
    const std::span<const std::uint8_t> span(message);
    std::vector<std::span<const std::uint8_t>> messages = {span};
    Sha1Digest out{};
    sha1_batch(messages, std::span<Sha1Digest>(&out, 1));
    EXPECT_EQ(out, scalar_sha1(message, {})) << "length " << len;
  }
}

TEST(Sha1BatchTest, MixedBoundaryLengthsInOneBatch) {
  // All eight boundary lengths ride one batch, exercising lane
  // compaction: short lanes drop out while long lanes keep compressing.
  util::Rng rng(402);
  std::vector<Bytes> messages;
  for (const std::size_t len : kBoundaryLengths)
    messages.push_back(random_bytes(rng, len));
  const std::vector<Sha1Digest> got = sha1_batch(as_spans(messages));
  ASSERT_EQ(got.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i)
    EXPECT_EQ(got[i], scalar_sha1(messages[i], {})) << "message " << i;
}

TEST(Sha1BatchTest, MidstateBoundaryPrefixes) {
  // The absorbed prefix can leave any number of buffered bytes; the
  // finish pass must splice buffered + suffix + padding correctly at
  // every offset class.
  util::Rng rng(403);
  for (const std::size_t prefix_len :
       {std::size_t{0}, std::size_t{1}, std::size_t{10}, std::size_t{55},
        std::size_t{56}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{127}, std::size_t{128}}) {
    const Bytes prefix = random_bytes(rng, prefix_len);
    Sha1Midstate midstate;
    midstate.absorb(std::span<const std::uint8_t>(prefix));
    EXPECT_EQ(midstate.absorbed_bytes(), prefix_len);

    std::vector<Bytes> suffixes;
    for (const std::size_t len : kBoundaryLengths)
      suffixes.push_back(random_bytes(rng, len));
    std::vector<Sha1Digest> got(suffixes.size());
    sha1_finish_lanes(midstate, as_spans(suffixes), got);
    for (std::size_t i = 0; i < suffixes.size(); ++i)
      EXPECT_EQ(got[i], scalar_sha1(prefix, suffixes[i]))
          << "prefix " << prefix_len << " suffix " << suffixes[i].size();
  }
}

TEST(Sha1BatchTest, MidstateForkPurity) {
  // Finishing never mutates the midstate: repeated finishes — with
  // different suffix sets in between — keep producing the digests a
  // fresh scalar hash of prefix || suffix produces.
  util::Rng rng(404);
  const Bytes prefix = random_bytes(rng, 37);
  Sha1Midstate midstate;
  midstate.absorb(std::span<const std::uint8_t>(prefix));

  const std::vector<Bytes> first = {random_bytes(rng, 5),
                                    random_bytes(rng, 70)};
  const std::vector<Bytes> second = {random_bytes(rng, 20)};
  std::vector<Sha1Digest> round1(first.size());
  sha1_finish_lanes(midstate, as_spans(first), round1);
  std::vector<Sha1Digest> interleaved(second.size());
  sha1_finish_lanes(midstate, as_spans(second), interleaved);
  std::vector<Sha1Digest> round2(first.size());
  sha1_finish_lanes(midstate, as_spans(first), round2);

  EXPECT_EQ(round1, round2);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(round1[i], scalar_sha1(prefix, first[i]));
  EXPECT_EQ(interleaved[0], scalar_sha1(prefix, second[0]));
}

TEST(Sha1BatchTest, IncrementalAbsorbMatchesOneShot) {
  // Chunked absorption (the streaming Sha1::update contract) must land
  // in the same midstate as one absorb of the concatenation.
  util::Rng rng(405);
  const Bytes prefix = random_bytes(rng, 200);
  Sha1Midstate chunked;
  std::size_t offset = 0;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{62},
                                  std::size_t{64}, std::size_t{73}}) {
    chunked.absorb(
        std::span<const std::uint8_t>(prefix.data() + offset, chunk));
    offset += chunk;
  }
  ASSERT_EQ(offset, prefix.size());
  Sha1Midstate oneshot;
  oneshot.absorb(std::span<const std::uint8_t>(prefix));

  const std::vector<Bytes> suffixes = {random_bytes(rng, 11)};
  std::vector<Sha1Digest> a(1), b(1);
  sha1_finish_lanes(chunked, as_spans(suffixes), a);
  sha1_finish_lanes(oneshot, as_spans(suffixes), b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], scalar_sha1(prefix, suffixes[0]));
}

TEST(Sha1BatchTest, RandomizedSchedulesMatchScalar) {
  // Randomized message schedules, batch sizes 0 through several times
  // kSha1Lanes (partial last groups included), lengths spanning 0..200.
  util::Rng rng(406);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t count = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(3 * kSha1Lanes + 1)));
    std::vector<Bytes> messages;
    for (std::size_t i = 0; i < count; ++i)
      messages.push_back(random_bytes(
          rng, static_cast<std::size_t>(rng.uniform_int(0, 200))));
    const std::vector<Sha1Digest> got = sha1_batch(as_spans(messages));
    ASSERT_EQ(got.size(), count);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(got[i], scalar_sha1(messages[i], {}))
          << "trial " << trial << " message " << i;
  }
}

TEST(Sha1BatchTest, RandomizedMidstateSchedulesMatchScalar) {
  util::Rng rng(407);
  for (int trial = 0; trial < 30; ++trial) {
    const Bytes prefix = random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 130)));
    Sha1Midstate midstate;
    midstate.absorb(std::span<const std::uint8_t>(prefix));
    const std::size_t count = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(2 * kSha1Lanes)));
    std::vector<Bytes> suffixes;
    for (std::size_t i = 0; i < count; ++i)
      suffixes.push_back(random_bytes(
          rng, static_cast<std::size_t>(rng.uniform_int(0, 150))));
    std::vector<Sha1Digest> got(count);
    sha1_finish_lanes(midstate, as_spans(suffixes), got);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(got[i], scalar_sha1(prefix, suffixes[i]))
          << "trial " << trial << " suffix " << i;
  }
}

TEST(Sha1BatchTest, DeriveIdsLaneWiringMatchesScalarOracle) {
  // The production wiring: descriptor_ids_for_period(s) must reproduce
  // the scalar oracle exactly, cookie or not.
  util::Rng rng(408);
  const Bytes cookie = random_bytes(rng, 16);
  for (int trial = 0; trial < 20; ++trial) {
    PermanentId pid{};
    rng.fill_bytes(pid.data(), pid.size());
    const auto base =
        static_cast<std::uint32_t>(rng.uniform_int(10000, 20000));
    std::vector<std::uint32_t> periods;
    for (std::uint32_t p = 0; p < 5; ++p) periods.push_back(base + p);

    for (const Bytes& c : {Bytes{}, cookie}) {
      const std::span<const std::uint8_t> cspan(c);
      const std::vector<DescriptorId> batched =
          descriptor_ids_for_periods(pid, periods, cspan);
      ASSERT_EQ(batched.size(), periods.size() * kNumReplicas);
      for (std::size_t p = 0; p < periods.size(); ++p) {
        const auto single =
            descriptor_ids_for_period(pid, periods[p], cspan);
        const auto want =
            oracle::descriptor_ids_for_period_scalar(pid, periods[p], cspan);
        for (std::size_t r = 0; r < static_cast<std::size_t>(kNumReplicas);
             ++r) {
          EXPECT_EQ(batched[p * kNumReplicas + r], want[r]);
          EXPECT_EQ(single[r], want[r]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace torsim::crypto
