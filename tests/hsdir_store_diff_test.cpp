// Differential gate for the flat HSDir store: sorted fixed-size records
// whose keys live in the DirectoryNetwork's KeyTable. The oracle is the
// std::map store it replaced (oracle::DescriptorStoreOracle). A World
// with a small harvester fleet steps hour by hour; after each step the
// test publishes a rotating set of services through
// DirectoryNetwork::publish and replays the same store calls on one
// oracle per relay: each responsible directory gets the descriptor
// unless the failure log says its upload was lost, with the publish
// delay as visible_after when the log says it was delayed. The World's
// own expire_all is mirrored by oracle expiry. After every hour each
// store must match its oracle on size(), the for_each_descriptor walk,
// fetch and contains of every held id, and the fetch log.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "attack/harvester.hpp"
#include "oracles.hpp"
#include "sim/world.hpp"

namespace torsim {
namespace {

using oracle::DescriptorStoreOracle;

void expect_same_descriptor(const hsdir::Descriptor& got,
                            const hsdir::Descriptor& want) {
  EXPECT_EQ(got.descriptor_id, want.descriptor_id);
  EXPECT_EQ(got.permanent_id, want.permanent_id);
  EXPECT_EQ(got.service_public_key, want.service_public_key);
  EXPECT_EQ(got.introduction_points, want.introduction_points);
  EXPECT_EQ(got.replica, want.replica);
  EXPECT_EQ(got.time_period, want.time_period);
  EXPECT_EQ(got.published, want.published);
  EXPECT_EQ(got.visible_after, want.visible_after);
}

class StoreDiff {
 public:
  explicit StoreDiff(const sim::WorldConfig& config)
      : world_(config), rng_(config.seed + 1) {
    attack::HarvesterConfig fleet;
    fleet.num_ips = 3;
    fleet.relays_per_ip = 4;
    attack::ShadowHarvester harvester(fleet);
    harvester.deploy(world_);
    for (const relay::RelayId id : harvester.relay_ids())
      oracles_[id].enable_logging(true);
    // A few honest directories log too, like the paper's measuring
    // HSDirs.
    for (relay::RelayId id = 0; id < 150; id += 7) {
      world_.directories().store_for(id).enable_logging(true);
      oracles_[id].enable_logging(true);
    }
    // Publish intervals of 1..26 hours: some services refresh every
    // hour, others let their descriptors reach the 24 h lifetime.
    for (int s = 0; s < 52; ++s) {
      keys_.push_back(crypto::KeyPair::generate(rng_));
      handles_.push_back(
          world_.directories().add_key(keys_.back().public_bytes()));
    }
  }

  void step(int hour) {
    world_.step_hour();
    const util::UnixTime now = world_.now();
    for (auto& [id, store] : oracles_) store.expire(now);
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      const int interval = 1 + static_cast<int>(s % 26);
      if ((hour + static_cast<int>(s)) % interval == 0)
        publish(keys_[s], handles_[s], now);
    }
    fetch_unknown(now);
  }

  /// Compares every relay's store with its oracle at the World's now.
  void expect_matches() {
    const util::UnixTime now = world_.now();
    hsdir::DirectoryNetwork& dirnet = world_.directories();
    std::size_t held = 0;
    for (relay::RelayId id = 0; id < world_.registry().size(); ++id) {
      SCOPED_TRACE(testing::Message() << "relay " << id << " at " << now);
      DescriptorStoreOracle& want = oracles_[id];
      held += want.held().size();
      hsdir::DescriptorStore* got = dirnet.find_store(id);
      if (got == nullptr) {
        EXPECT_TRUE(want.held().empty());
        EXPECT_TRUE(want.fetch_log().empty());
        continue;
      }
      ASSERT_EQ(got->size(), want.held().size());
      auto it = want.held().begin();
      got->for_each_descriptor([&](const hsdir::DescriptorView& view) {
        ASSERT_NE(it, want.held().end());
        EXPECT_EQ(view.descriptor_id, it->first);
        EXPECT_EQ(view.published, it->second.published);
        EXPECT_TRUE(std::ranges::equal(view.service_public_key,
                                       it->second.service_public_key));
        ++it;
      });
      for (const auto& [descriptor_id, d] : want.held()) {
        for (const util::UnixTime t :
             {now, d.visible_after, d.published + hsdir::kDescriptorLifetime,
              d.published + hsdir::kDescriptorLifetime + 1}) {
          EXPECT_EQ(got->contains(descriptor_id, t),
                    want.contains(descriptor_id, t));
        }
        const auto got_d = got->fetch(descriptor_id, now);
        const auto want_d = want.fetch(descriptor_id, now);
        ASSERT_EQ(got_d.has_value(), want_d.has_value());
        if (got_d) expect_same_descriptor(*got_d, *want_d);
      }
      ASSERT_EQ(got->fetch_log().size(), want.fetch_log().size());
      for (std::size_t i = 0; i < want.fetch_log().size(); ++i) {
        EXPECT_EQ(got->fetch_log()[i].descriptor_id,
                  want.fetch_log()[i].descriptor_id);
        EXPECT_EQ(got->fetch_log()[i].time, want.fetch_log()[i].time);
        EXPECT_EQ(got->fetch_log()[i].found, want.fetch_log()[i].found);
      }
    }
    EXPECT_EQ(dirnet.descriptors_stored(), held);
  }

  /// Descriptors held across all oracles (the test's own progress
  /// checks).
  std::size_t held() const {
    std::size_t total = 0;
    for (const auto& [id, store] : oracles_) total += store.held().size();
    return total;
  }
  std::size_t delayed() const { return delayed_; }
  std::size_t lost() const { return lost_; }
  std::size_t logged() const {
    std::size_t total = 0;
    for (const auto& [id, store] : oracles_) total += store.fetch_log().size();
    return total;
  }

 private:
  void publish(const crypto::KeyPair& key, hsdir::KeyTable::Handle handle,
               util::UnixTime now) {
    const dirauth::Consensus& consensus = world_.consensus();
    std::vector<crypto::Fingerprint> intros(rng_.index(4));
    for (auto& fp : intros) rng_.fill_bytes(fp.data(), fp.size());
    std::array<hsdir::Descriptor, crypto::kNumReplicas> descriptors;
    std::array<dirauth::ResponsibleSet, crypto::kNumReplicas> responsible;
    for (std::size_t r = 0; r < descriptors.size(); ++r) {
      descriptors[r] = hsdir::make_descriptor(
          key, intros, static_cast<std::uint8_t>(r), now);
      responsible[r].count =
          static_cast<std::uint8_t>(consensus.responsible_hsdirs_into(
              descriptors[r].descriptor_id, responsible[r].dirs.data(),
              responsible[r].dirs.size()));
    }
    hsdir::DirectoryNetwork& dirnet = world_.directories();
    const std::size_t log_start = dirnet.failure_log().size();
    dirnet.publish(handle, descriptors, responsible);

    // Per (descriptor, directory): what the failure log says happened.
    std::map<std::pair<std::uint64_t, std::uint64_t>, fault::FailureKind>
        outcome;
    for (std::size_t i = log_start; i < dirnet.failure_log().size(); ++i) {
      const fault::FailureRecord& f = dirnet.failure_log()[i];
      outcome[{f.key, f.detail}] = f.kind;
    }
    for (std::size_t r = 0; r < descriptors.size(); ++r) {
      const std::uint64_t descriptor_key = fault::FaultInjector::key_of(
          descriptors[r].descriptor_id.data(),
          descriptors[r].descriptor_id.size());
      for (std::uint8_t k = 0; k < responsible[r].count; ++k) {
        const relay::RelayId relay = responsible[r].dirs[k]->relay;
        hsdir::Descriptor d = descriptors[r];
        const auto it = outcome.find({descriptor_key, relay});
        if (it != outcome.end() &&
            it->second == fault::FailureKind::kPublishLost) {
          ++lost_;
          continue;
        }
        if (it != outcome.end() &&
            it->second == fault::FailureKind::kPublishDelayed) {
          d.visible_after =
              d.published + world_.config().faults.publish_delay;
          ++delayed_;
        }
        oracles_[relay].store(d);
      }
    }
  }

  /// A fetch of an id nobody published, on every logging directory.
  void fetch_unknown(util::UnixTime now) {
    crypto::DescriptorId unknown{};
    rng_.fill_bytes(unknown.data(), unknown.size());
    for (auto& [id, want] : oracles_) {
      hsdir::DescriptorStore* got = world_.directories().find_store(id);
      if (got == nullptr) continue;
      EXPECT_FALSE(got->fetch(unknown, now).has_value());
      EXPECT_FALSE(want.fetch(unknown, now).has_value());
    }
  }

  sim::World world_;
  util::Rng rng_;
  std::vector<crypto::KeyPair> keys_;
  std::vector<hsdir::KeyTable::Handle> handles_;
  std::map<relay::RelayId, DescriptorStoreOracle> oracles_;
  std::size_t delayed_ = 0;
  std::size_t lost_ = 0;
};

sim::WorldConfig small_world(std::uint64_t seed) {
  sim::WorldConfig config;
  config.seed = seed;
  config.honest_relays = 150;
  return config;
}

/// 60 hours: the fleet ripens into HSDirs after ~26 h, and every
/// publish interval up to 26 h crosses the 24 h expiry boundary twice.
void run_and_compare(StoreDiff& diff) {
  for (int hour = 0; hour < 60; ++hour) {
    diff.step(hour);
    diff.expect_matches();
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch after hour " << hour;
      return;
    }
  }
  EXPECT_GT(diff.held(), 0u);
  EXPECT_GT(diff.logged(), 0u);
}

TEST(HsdirStoreDiffTest, MatchesMapStoreWithoutFaults) {
  StoreDiff diff(small_world(61));
  run_and_compare(diff);
  EXPECT_EQ(diff.lost(), 0u);
  EXPECT_EQ(diff.delayed(), 0u);
}

TEST(HsdirStoreDiffTest, MatchesMapStoreUnderPublishFaults) {
  sim::WorldConfig config = small_world(62);
  config.faults.publish_loss_rate = 0.2;
  config.faults.publish_delay_rate = 0.3;
  ASSERT_TRUE(config.faults.enabled());
  StoreDiff diff(config);
  run_and_compare(diff);
  EXPECT_GT(diff.lost(), 0u);
  EXPECT_GT(diff.delayed(), 0u);
}

}  // namespace
}  // namespace torsim
