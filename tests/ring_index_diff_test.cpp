// Differential suite for the eytzinger HSDir ring index
// (dirauth/ring_index.hpp): the sorted-scan oracle
// (oracle::responsible_hsdirs_scan, tests/oracles.hpp) is replayed
// against the indexed lookup over randomized populations and query
// schedules, plus the property edge cases (empty ring,
// < kHsDirsPerReplica HSDirs, duplicate fingerprints, exact-hit and
// past-ring-max queries, copies and moves).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "crypto/digest.hpp"
#include "dirauth/authority.hpp"
#include "dirauth/consensus.hpp"
#include "dirauth/ring_index.hpp"
#include "oracles.hpp"
#include "relay/registry.hpp"
#include "util/rng.hpp"

namespace torsim::dirauth {
namespace {

using oracle::responsible_hsdirs_scan;

// A consensus of `hsdirs` HSDir-flagged relays plus `others` plain
// relays (the index must skip non-HSDirs like the oracle does).
Consensus make_consensus(util::Rng& rng, int hsdirs, int others) {
  std::vector<ConsensusEntry> entries;
  for (int i = 0; i < hsdirs + others; ++i) {
    ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    if (i < hsdirs) e.flags = with_flag(0, Flag::kHSDir);
    entries.push_back(e);
  }
  return {0, std::move(entries)};
}

std::vector<crypto::DescriptorId> random_ids(util::Rng& rng,
                                             std::size_t count) {
  std::vector<crypto::DescriptorId> ids(count);
  for (auto& id : ids) rng.fill_bytes(id.data(), id.size());
  return ids;
}

// A query mix that hits every interesting ring position: random points,
// exact fingerprints of ring members, ids past the ring maximum and
// before the minimum (both wraparound classes), and duplicates.
std::vector<crypto::DescriptorId> adversarial_ids(util::Rng& rng,
                                                  const Consensus& c) {
  std::vector<crypto::DescriptorId> ids = random_ids(rng, 32);
  for (const std::size_t idx : c.hsdir_indices()) {
    const crypto::Fingerprint& fp = c.entries()[idx].fingerprint;
    ids.push_back(fp);  // exactly on an entry: strict ">" must skip it
    crypto::DescriptorId below = fp;
    below[19] = static_cast<std::uint8_t>(below[19] - 1);
    ids.push_back(below);
    crypto::DescriptorId above = fp;
    above[19] = static_cast<std::uint8_t>(above[19] + 1);
    ids.push_back(above);
  }
  crypto::DescriptorId all_ff;
  all_ff.fill(0xff);  // past the ring max: must wrap to rank 0
  ids.push_back(all_ff);
  crypto::DescriptorId all_00{};
  ids.push_back(all_00);
  // Duplicates: repeats must be answered identically.
  const std::size_t base = ids.size();
  for (std::size_t i = 0; i < std::min<std::size_t>(8, base); ++i)
    ids.push_back(ids[i * 3 % base]);
  return ids;
}

TEST(RingIndexDiffTest, RandomizedPopulationsMatchScanOracle) {
  util::Rng rng(501);
  for (const int hsdirs : {1, 2, 3, 5, 64, 1300}) {
    const Consensus c = make_consensus(rng, hsdirs, hsdirs / 3);
    for (const auto& id : adversarial_ids(rng, c))
      EXPECT_EQ(c.responsible_hsdirs(id), responsible_hsdirs_scan(c, id));
  }
}

TEST(RingIndexDiffTest, EmptyConsensusAndNoHsdirs) {
  util::Rng rng(502);
  const Consensus empty;
  const Consensus no_hsdirs = make_consensus(rng, 0, 10);
  const auto id = random_ids(rng, 1)[0];
  for (const Consensus* c : {&empty, &no_hsdirs}) {
    EXPECT_TRUE(c->ring_index().empty());
    EXPECT_TRUE(c->responsible_hsdirs(id).empty());
    EXPECT_TRUE(responsible_hsdirs_scan(*c, id).empty());
    const ConsensusEntry* buf[crypto::kHsDirsPerReplica];
    EXPECT_EQ(c->responsible_hsdirs_into(id, buf, crypto::kHsDirsPerReplica),
              0u);
  }
}

TEST(RingIndexDiffTest, FewerHsdirsThanReplicaSetWraps) {
  // With n < kHsDirsPerReplica the responsible set is the whole ring,
  // starting at the successor — index and oracle must agree on the
  // rotation.
  util::Rng rng(503);
  for (const int hsdirs : {1, 2}) {
    const Consensus c = make_consensus(rng, hsdirs, 2);
    for (const auto& id : adversarial_ids(rng, c)) {
      const auto oracle = responsible_hsdirs_scan(c, id);
      EXPECT_EQ(oracle.size(), static_cast<std::size_t>(hsdirs));
      EXPECT_EQ(c.responsible_hsdirs(id), oracle);
    }
  }
}

TEST(RingIndexDiffTest, DuplicateFingerprintsMatchOracle) {
  // Duplicate ring keys: upper-bound semantics must land on the same
  // (first) duplicate in both implementations.
  util::Rng rng(504);
  std::vector<ConsensusEntry> entries;
  crypto::Fingerprint shared;
  rng.fill_bytes(shared.data(), shared.size());
  for (int i = 0; i < 6; ++i) {
    ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    e.flags = with_flag(0, Flag::kHSDir);
    if (i < 3) {
      e.fingerprint = shared;  // three identical ring keys
    } else {
      rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    }
    entries.push_back(e);
  }
  const Consensus c(0, std::move(entries));
  for (const auto& id : adversarial_ids(rng, c))
    EXPECT_EQ(c.responsible_hsdirs(id), responsible_hsdirs_scan(c, id));
}

TEST(RingIndexDiffTest, AuthorityConsensusMatchesScanOracle) {
  // A consensus built by the authority from live relays, so the ring
  // is whatever subset earned the HSDir flag.
  constexpr util::UnixTime kT0 = 1359676800;  // 2013-02-01
  util::Rng rng(20130204);
  relay::Registry registry;
  for (int i = 0; i < 40; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "n" + std::to_string(i);
    rc.address = util::Ipv4::random_public(rng);
    rc.bandwidth_kbps = 100.0;
    const auto id =
        registry.create(rc, rng, kT0 - 30 * util::kSecondsPerHour);
    registry.get(id).set_online(true, kT0 - 30 * util::kSecondsPerHour);
  }
  Authority authority;
  const Consensus consensus = authority.build_consensus(registry, kT0);
  ASSERT_FALSE(consensus.ring_index().empty());
  for (const auto& id : random_ids(rng, 64))
    EXPECT_EQ(consensus.responsible_hsdirs(id),
              responsible_hsdirs_scan(consensus, id));
}

TEST(RingIndexDiffTest, IndexSurvivesCopyAndMove) {
  util::Rng rng(508);
  Consensus original = make_consensus(rng, 50, 10);
  const auto ids = random_ids(rng, 64);
  std::vector<std::vector<const ConsensusEntry*>> oracle;
  for (const auto& id : ids)
    oracle.push_back(responsible_hsdirs_scan(original, id));
  const auto check = [&](const Consensus& c) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto got = c.responsible_hsdirs(ids[i]);
      ASSERT_EQ(got.size(), oracle[i].size());
      for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_EQ(got[k]->relay, oracle[i][k]->relay);
    }
  };
  const Consensus copy = original;
  check(copy);
  const Consensus moved = std::move(original);
  check(moved);
  EXPECT_TRUE(original.ring_index().empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(original.responsible_hsdirs(ids[0]).empty());
}

}  // namespace
}  // namespace torsim::dirauth
