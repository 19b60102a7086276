// Differential suite for the lane-batched key grinder
// (crypto/grind.hpp): crypto::grind_onion_prefix and
// attack::grind_key_after, both built on crypto::grind_key, must draw
// exactly the keys the scalar one-KeyPair-per-try loops in
// tests/oracles.hpp draw. Every case compares the key bytes, the
// attempt count, a miss against a miss, and the next four Rng outputs,
// so a batch that over-draws or restores the wrong lane's Rng copy
// fails here even when the key itself matches.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attack/grinding.hpp"
#include "crypto/grind.hpp"
#include "crypto/sha1_batch.hpp"
#include "oracles.hpp"
#include "util/rng.hpp"

namespace torsim {
namespace {

constexpr std::uint64_t kSeeds = 32;

// 1 and kSha1Lanes - 1 end inside a first batch, kSha1Lanes on its
// boundary, kSha1Lanes + 1 one key into a second batch. 1,001 keys is a
// budget a "sil" prefix or a 1e-12 arc almost always exhausts, ending
// in a partial batch, and that the shorter prefixes usually hit within.
// "sil" hits are ConsecutiveGrindsShareOneStream's.
const std::uint64_t kBudgets[] = {1, crypto::kSha1Lanes - 1,
                                  crypto::kSha1Lanes,
                                  crypto::kSha1Lanes + 1, 1'001};

std::vector<std::uint64_t> next_four(util::Rng& rng) {
  return {rng.next(), rng.next(), rng.next(), rng.next()};
}

template <typename Result>
void expect_same_key(const std::optional<Result>& got,
                     const std::optional<Result>& want,
                     const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(got->key.public_bytes(), want->key.public_bytes()) << where;
  EXPECT_EQ(got->key.fingerprint(), want->key.fingerprint()) << where;
  EXPECT_EQ(got->attempts, want->attempts) << where;
}

TEST(GrindDiffTest, OnionPrefixMatchesScalarLoop) {
  const char* const prefixes[] = {"", "a", "7", "ab", "sil"};
  int hits = 0, misses = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    for (const char* prefix : prefixes) {
      for (const std::uint64_t budget : kBudgets) {
        const std::string where = "seed " + std::to_string(seed) +
                                  " prefix '" + prefix + "' budget " +
                                  std::to_string(budget);
        util::Rng lanes_rng(seed);
        util::Rng scalar_rng(seed);
        const auto got = crypto::grind_onion_prefix(prefix, lanes_rng, budget);
        const auto want =
            oracle::grind_onion_prefix_scalar(prefix, scalar_rng, budget);
        expect_same_key(got, want, where);
        EXPECT_EQ(next_four(lanes_rng), next_four(scalar_rng)) << where;
        (want ? hits : misses) += 1;
      }
    }
  }
  // The grid must reach both outcomes, or one branch went untested.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

TEST(GrindDiffTest, RingArcMatchesScalarLoop) {
  // 1/16 of the ring hits within a few keys, 1/4096 within a few
  // batches, and 1e-12 exhausts every budget here.
  const double fractions[] = {1.0 / 16, 1.0 / 4096, 1e-12};
  int hits = 0, misses = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    util::Rng target_rng(1000 + seed);
    crypto::Sha1Digest target;
    target_rng.fill_bytes(target.data(), target.size());
    for (const double fraction : fractions) {
      for (const std::uint64_t budget : kBudgets) {
        const std::string where = "seed " + std::to_string(seed) +
                                  " fraction " + std::to_string(fraction) +
                                  " budget " + std::to_string(budget);
        util::Rng lanes_rng(seed);
        util::Rng scalar_rng(seed);
        const auto got =
            attack::grind_key_after(target, fraction, lanes_rng, budget);
        const auto want = oracle::grind_key_after_scalar(target, fraction,
                                                         scalar_rng, budget);
        expect_same_key(got, want, where);
        if (got && want) {
          EXPECT_EQ(got->distance, want->distance) << where;
        }
        EXPECT_EQ(next_four(lanes_rng), next_four(scalar_rng)) << where;
        (want ? hits : misses) += 1;
      }
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

TEST(GrindDiffTest, ConsecutiveGrindsShareOneStream) {
  // Population::generate grinds its "sil" onions back to back from one
  // Rng, so each grind must hand the next one the stream the scalar
  // loop would have left. At this seed the eight hits land in lanes 0,
  // 2, 3, 6 and 7 of their batches, so the Rng is restored both from
  // mid-batch and from a batch's last lane.
  util::Rng lanes_rng(20130204);
  util::Rng scalar_rng(20130204);
  for (int i = 0; i < 8; ++i) {
    const std::string where = "grind " + std::to_string(i);
    const auto got = crypto::grind_onion_prefix("sil", lanes_rng, 1 << 20);
    const auto want =
        oracle::grind_onion_prefix_scalar("sil", scalar_rng, 1 << 20);
    ASSERT_TRUE(want.has_value()) << where;
    expect_same_key(got, want, where);
  }
  EXPECT_EQ(next_four(lanes_rng), next_four(scalar_rng));
}

}  // namespace
}  // namespace torsim
