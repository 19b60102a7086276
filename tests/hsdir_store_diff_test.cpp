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
//
// The QueueDiff tests drive the upload queue directly: a stand-alone
// DirectoryNetwork over hand-made directory entries takes batches of
// publishes (duplicate ids, refresh-only and insert-only runs, two
// uploads of one id to one store, delayed uploads) and applies each
// batch at 1, 2 and 4 threads; every store must then match an oracle
// that stored the same uploads one at a time in publish order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
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

/// `got` (possibly nullptr: never reached) against `want` at `now`.
void expect_store_matches(hsdir::DescriptorStore* got,
                          DescriptorStoreOracle& want, util::UnixTime now) {
  if (got == nullptr) {
    EXPECT_TRUE(want.held().empty());
    EXPECT_TRUE(want.fetch_log().empty());
    return;
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

/// Replays one DirectoryNetwork::publish on per-relay oracles: every
/// responsible directory stores each descriptor (with the service key
/// bytes `key`), unless the failure log entries from `log_start` on say
/// its upload was lost; a delayed upload gets the publish delay as
/// visible_after. Adds the lost and delayed copies to the counters.
void replay_publish(const hsdir::DirectoryNetwork& dirnet,
                    std::size_t log_start, util::Seconds publish_delay,
                    std::span<const hsdir::Descriptor> descriptors,
                    std::span<const dirauth::ResponsibleSet> responsible,
                    std::span<const std::uint8_t> key,
                    std::map<relay::RelayId, DescriptorStoreOracle>& oracles,
                    std::size_t& lost, std::size_t& delayed) {
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
      d.service_public_key.assign(key.begin(), key.end());
      const auto it = outcome.find({descriptor_key, relay});
      if (it != outcome.end() &&
          it->second == fault::FailureKind::kPublishLost) {
        ++lost;
        continue;
      }
      if (it != outcome.end() &&
          it->second == fault::FailureKind::kPublishDelayed) {
        d.visible_after = d.published + publish_delay;
        ++delayed;
      }
      oracles[relay].store(d);
    }
  }
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
      expect_store_matches(dirnet.find_store(id), want, now);
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
    replay_publish(dirnet, log_start, world_.config().faults.publish_delay,
                   descriptors, responsible, key.public_bytes(), oracles_,
                   lost_, delayed_);
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

// ---------------------------------------------------------------------
// The upload queue: each batch merged into the stores store by store.
// ---------------------------------------------------------------------

constexpr util::UnixTime kQueueT0 = 1359676800;  // 2013-02-01 00:00 UTC

/// A stand-alone DirectoryNetwork over 40 hand-made directories (enough
/// receiving stores for apply_uploads to fan out), publishing
/// descriptors whose ids come from a small pool, so batches repeat ids.
class QueueDiff {
 public:
  QueueDiff(std::uint64_t seed, int threads, fault::FaultPlan plan = {})
      : rng_(seed), threads_(threads), plan_(plan) {
    for (relay::RelayId id = 0; id < 40; ++id) {
      dirauth::ConsensusEntry entry;
      entry.relay = id;
      directories_.push_back(entry);
    }
    if (plan_.enabled()) {
      injector_ = std::make_unique<fault::FaultInjector>(plan_);
      dirnet_.set_fault_injector(injector_.get());
    }
    for (int k = 0; k < 8; ++k) {
      keys_.emplace_back(140);
      rng_.fill_bytes(keys_.back().data(), keys_.back().size());
      dirnet_.add_key(keys_.back());
    }
    ids_.resize(60);
    for (crypto::DescriptorId& id : ids_) rng_.fill_bytes(id.data(), id.size());
  }

  /// Publishes descriptor id `id` (one replica) with a fresh payload to
  /// `count` distinct directories starting at `first`, and mirrors it on
  /// the oracles.
  void publish(const crypto::DescriptorId& id, util::UnixTime published,
               relay::RelayId first, std::uint8_t count) {
    const std::size_t key = rng_.index(keys_.size());
    hsdir::Descriptor d;
    d.descriptor_id = id;
    rng_.fill_bytes(d.permanent_id.data(), d.permanent_id.size());
    d.introduction_points.resize(rng_.index(hsdir::kMaxIntroPoints + 1));
    for (crypto::Fingerprint& fp : d.introduction_points)
      rng_.fill_bytes(fp.data(), fp.size());
    d.replica = static_cast<std::uint8_t>(rng_.index(2));
    d.time_period = static_cast<std::uint32_t>(rng_.index(100000));
    d.published = published;
    dirauth::ResponsibleSet set;
    set.count = count;
    for (std::uint8_t k = 0; k < count; ++k)
      set.dirs[k] = &directories_[(first + k) % directories_.size()];
    const std::size_t log_start = dirnet_.failure_log().size();
    dirnet_.publish(static_cast<hsdir::KeyTable::Handle>(key),
                    std::span(&d, 1), std::span(&set, 1));
    replay_publish(dirnet_, log_start, plan_.publish_delay, std::span(&d, 1),
                   std::span(&set, 1), keys_[key], oracles_, lost_, delayed_);
  }

  /// A publish of a random pool id to 1-3 random directories.
  void publish_random(util::UnixTime published) {
    publish(ids_[rng_.index(ids_.size())], published,
            static_cast<relay::RelayId>(rng_.index(directories_.size())),
            static_cast<std::uint8_t>(1 + rng_.index(3)));
  }

  /// Applies the queue at the configured thread count and compares
  /// every store with its oracle at `now`.
  void apply_and_compare(util::UnixTime now) {
    EXPECT_GT(dirnet_.queued_uploads(), 0u);
    dirnet_.apply_uploads(threads_);
    EXPECT_EQ(dirnet_.queued_uploads(), 0u);
    compare(now);
  }

  void compare(util::UnixTime now) {
    std::size_t held = 0;
    for (const dirauth::ConsensusEntry& e : directories_) {
      SCOPED_TRACE(testing::Message() << "relay " << e.relay << " at " << now);
      held += oracles_[e.relay].held().size();
      expect_store_matches(dirnet_.find_store(e.relay), oracles_[e.relay],
                           now);
    }
    EXPECT_EQ(std::as_const(dirnet_).descriptors_stored(), held);
  }

  void expire(util::UnixTime now) {
    dirnet_.expire_all(now, threads_);
    for (auto& [id, oracle] : oracles_) oracle.expire(now);
  }

  hsdir::DirectoryNetwork& dirnet() { return dirnet_; }
  const std::vector<crypto::DescriptorId>& ids() const { return ids_; }
  std::size_t held(relay::RelayId id) { return oracles_[id].held().size(); }
  std::size_t lost() const { return lost_; }
  std::size_t delayed() const { return delayed_; }

 private:
  util::Rng rng_;
  int threads_;
  fault::FaultPlan plan_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<dirauth::ConsensusEntry> directories_;
  hsdir::DirectoryNetwork dirnet_;
  std::vector<std::vector<std::uint8_t>> keys_;
  std::vector<crypto::DescriptorId> ids_;
  std::map<relay::RelayId, DescriptorStoreOracle> oracles_;
  std::size_t lost_ = 0;
  std::size_t delayed_ = 0;
};

class HsdirStoreDiffQueueTest : public testing::TestWithParam<int> {};

TEST_P(HsdirStoreDiffQueueTest, RandomRunsWithDuplicateIds) {
  QueueDiff diff(71, GetParam());
  for (int hour = 0; hour < 30; ++hour) {
    const util::UnixTime now = kQueueT0 + hour * util::kSecondsPerHour;
    // 300 uploads of 60 ids: most batches hit an id several times,
    // in one store and across stores.
    for (int i = 0; i < 100; ++i) diff.publish_random(now);
    diff.apply_and_compare(now);
    diff.expire(now + util::kSecondsPerHour);
    diff.compare(now + util::kSecondsPerHour);
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch in hour " << hour;
      return;
    }
  }
}

TEST_P(HsdirStoreDiffQueueTest, RunsUnderPublishLossAndDelay) {
  fault::FaultPlan plan;
  plan.publish_loss_rate = 0.2;
  plan.publish_delay_rate = 0.4;
  QueueDiff diff(72, GetParam(), plan);
  for (int hour = 0; hour < 12; ++hour) {
    const util::UnixTime now = kQueueT0 + hour * util::kSecondsPerHour;
    for (int i = 0; i < 100; ++i) diff.publish_random(now);
    diff.apply_and_compare(now);
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GT(diff.lost(), 0u);
  EXPECT_GT(diff.delayed(), 0u);
}

TEST_P(HsdirStoreDiffQueueTest, FirstRunIntoEmptyStores) {
  QueueDiff diff(73, GetParam());
  EXPECT_EQ(std::as_const(diff.dirnet()).descriptors_stored(), 0u);
  for (relay::RelayId id = 0; id < 40; ++id)
    for (int k = 0; k < 5; ++k)
      diff.publish(diff.ids()[(id * 5 + k) % diff.ids().size()], kQueueT0,
                   id, 1);
  diff.apply_and_compare(kQueueT0);
}

TEST_P(HsdirStoreDiffQueueTest, AllRefreshRun) {
  QueueDiff diff(74, GetParam());
  for (const crypto::DescriptorId& id : diff.ids())
    diff.publish(id, kQueueT0, 0, 3);
  diff.apply_and_compare(kQueueT0);
  const std::size_t held = diff.held(1);
  ASSERT_EQ(held, diff.ids().size());
  // The same ids again, an hour later and in reverse: every upload
  // refreshes a held record, so no store grows.
  const util::UnixTime later = kQueueT0 + util::kSecondsPerHour;
  for (auto it = diff.ids().rbegin(); it != diff.ids().rend(); ++it)
    diff.publish(*it, later, 0, 3);
  diff.apply_and_compare(later);
  EXPECT_EQ(diff.held(1), held);
  // Their first publish expires with nothing left behind.
  diff.expire(kQueueT0 + hsdir::kDescriptorLifetime + 1);
  diff.compare(kQueueT0 + hsdir::kDescriptorLifetime + 1);
  EXPECT_EQ(diff.held(1), held);
}

TEST_P(HsdirStoreDiffQueueTest, AllInsertRun) {
  QueueDiff diff(75, GetParam());
  const auto& ids = diff.ids();
  // Every other id first, then the rest: each upload of the second
  // batch lands between two held records.
  for (std::size_t i = 0; i < ids.size(); i += 2)
    diff.publish(ids[i], kQueueT0, 5, 2);
  diff.apply_and_compare(kQueueT0);
  for (std::size_t i = 1; i < ids.size(); i += 2)
    diff.publish(ids[i], kQueueT0, 5, 2);
  diff.apply_and_compare(kQueueT0);
  EXPECT_EQ(diff.held(5), ids.size());
}

TEST_P(HsdirStoreDiffQueueTest, OneUploadPerStore) {
  // Batches where every store receives one upload take the run-of-one
  // path; alternate batches refresh the ids the one before stored.
  QueueDiff diff(78, GetParam());
  for (int round = 0; round < 4; ++round) {
    const util::UnixTime now = kQueueT0 + round * util::kSecondsPerHour;
    for (relay::RelayId id = 0; id < 40; ++id)
      diff.publish(diff.ids()[(id + static_cast<relay::RelayId>(round / 2)) %
                              diff.ids().size()],
                   now, id, 1);
    EXPECT_EQ(diff.dirnet().queued_uploads(), 40u);
    diff.apply_and_compare(now);
  }
  EXPECT_EQ(diff.held(0), 2u);
}

TEST_P(HsdirStoreDiffQueueTest, TwoUploadsOfOneIdToOneStoreInOneBatch) {
  QueueDiff diff(76, GetParam());
  const crypto::DescriptorId& id = diff.ids()[0];
  diff.publish(id, kQueueT0, 7, 1);
  diff.publish(diff.ids()[1], kQueueT0, 7, 1);
  diff.publish(id, kQueueT0 + 60, 7, 1);  // the last write of `id` wins
  diff.apply_and_compare(kQueueT0 + 60);
  ASSERT_NE(diff.dirnet().find_store(7), nullptr);
  const auto held = diff.dirnet().find_store(7)->fetch(id, kQueueT0 + 60);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->published, kQueueT0 + 60);
}

TEST_P(HsdirStoreDiffQueueTest, DelayedUploadKeepsVisibleAfter) {
  fault::FaultPlan plan;
  plan.publish_delay_rate = 1.0;
  QueueDiff diff(77, GetParam(), plan);
  for (relay::RelayId id = 0; id < 40; ++id)
    diff.publish(diff.ids()[id], kQueueT0, id, 2);
  diff.apply_and_compare(kQueueT0);
  EXPECT_EQ(diff.delayed(), 80u);
  hsdir::DescriptorStore* store = diff.dirnet().find_store(3);
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->contains(diff.ids()[3], kQueueT0));
  EXPECT_TRUE(store->contains(diff.ids()[3], kQueueT0 + plan.publish_delay));
}

INSTANTIATE_TEST_SUITE_P(Threads, HsdirStoreDiffQueueTest,
                         testing::Values(1, 2, 4));

// A World fetch between two publishes, outside step_hour: each public
// publish leaves its copies in the stores, so the fetch sees the first
// publish's introduction points and then the second's.
TEST(HsdirStoreDiffTest, FetchBetweenTwoPublishesOutsideStepHour) {
  sim::WorldConfig config = small_world(63);
  config.threads = 4;
  sim::World world(config);
  const auto service = world.service(world.add_service());
  EXPECT_EQ(world.directories().queued_uploads(), 0u);
  const auto fetch = [&] {
    const auto ids = service.current_descriptor_ids(world.now());
    relay::RelayId answered = relay::kInvalidRelayId;
    return world.directories().fetch_from(world.consensus(), ids[1],
                                          world.now(), answered);
  };
  for (int round = 0; round < 3; ++round) {
    ASSERT_FALSE(service.maybe_publish(/*force=*/true).empty());
    EXPECT_EQ(world.directories().queued_uploads(), 0u);
    const auto got = fetch();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(std::ranges::equal(got->introduction_points,
                                   service.introduction_points()));
    EXPECT_TRUE(std::as_const(world).resolve_view(service.index()).resolved[1]);
  }
}

// Every public World call returns with an empty queue, and a const
// reader refuses to read stores while uploads are queued.
TEST(HsdirStoreDiffTest, PublicWorldCallsLeaveNoQueuedUploads) {
  sim::WorldConfig config = small_world(64);
  config.threads = 2;
  sim::World world(config);
  for (int i = 0; i < 40; ++i) world.add_service();
  EXPECT_EQ(world.directories().queued_uploads(), 0u);
  world.step_hour();
  EXPECT_EQ(world.directories().queued_uploads(), 0u);
  world.service(3).set_descriptor_cookie({1, 2, 3});
  EXPECT_EQ(world.directories().queued_uploads(), 0u);
  world.service(3).maybe_publish(/*force=*/true);
  EXPECT_EQ(world.directories().queued_uploads(), 0u);
  EXPECT_TRUE(world.publish(4).empty());  // nothing changed
  EXPECT_FALSE(world.publish(4, /*force=*/true).empty());
  EXPECT_EQ(world.directories().queued_uploads(), 0u);

  // Queue an upload behind the World's back: const readers throw.
  util::Rng rng(65);
  const auto key = crypto::KeyPair::generate(rng);
  const hsdir::KeyTable::Handle handle =
      world.directories().add_key(key.public_bytes());
  std::array<hsdir::Descriptor, 1> descriptors{
      hsdir::make_descriptor(key, {}, 0, world.now())};
  std::array<dirauth::ResponsibleSet, 1> responsible;
  responsible[0].count = static_cast<std::uint8_t>(
      world.consensus().responsible_hsdirs_into(
          descriptors[0].descriptor_id, responsible[0].dirs.data(),
          responsible[0].dirs.size()));
  world.directories().publish(handle, descriptors, responsible);
  ASSERT_GT(world.directories().queued_uploads(), 0u);
  EXPECT_THROW(std::as_const(world).resolve_view(0), std::logic_error);
  EXPECT_THROW(std::as_const(world).network_stats(), std::logic_error);
  world.directories().apply_uploads();
  EXPECT_NO_THROW(std::as_const(world).resolve_view(0));
}

}  // namespace
}  // namespace torsim
