#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dirauth/authority.hpp"
#include "hs/client.hpp"
#include "hs/guard_manager.hpp"
#include "hsdir/directory_network.hpp"
#include "relay/registry.hpp"
#include "sim/world.hpp"

namespace torsim {
namespace {

constexpr util::UnixTime kT0 = 1359676800;  // 2013-02-01

// Builds a small all-HSDir consensus world fragment.
struct MiniNet {
  relay::Registry registry;
  dirauth::Authority authority;
  dirauth::Consensus consensus;
  hsdir::DirectoryNetwork dirnet;
  util::Rng rng{20130204};

  explicit MiniNet(int relays = 30, util::Seconds pre_uptime = 0) {
    const util::Seconds uptime =
        pre_uptime != 0 ? pre_uptime : 30 * util::kSecondsPerHour;
    for (int i = 0; i < relays; ++i) {
      relay::RelayConfig rc;
      rc.nickname = "n" + std::to_string(i);
      rc.address = util::Ipv4::random_public(rng);
      rc.bandwidth_kbps = 100.0;
      const auto id = registry.create(rc, rng, kT0 - uptime);
      registry.get(id).set_online(true, kT0 - uptime);
    }
    consensus = authority.build_consensus(registry, kT0);
  }
};

/// A World of `relays` honest relays starting at kT0 on a still ring:
/// no churn, and every relay bootstrapped with the uptime the HSDir
/// flag needs, so the ring changes only when a test changes it.
sim::WorldConfig still_world(int relays = 30) {
  sim::WorldConfig config;
  config.seed = 20130204;
  config.honest_relays = relays;
  config.bootstrap_hsdir_fraction = 1.0;
  config.hourly_down_probability = 0.0;
  config.hourly_up_probability = 0.0;
  return config;
}

/// Steps `world` until its clock reaches `t`, with service `index`
/// offline throughout, so the service publishes nothing on the way.
void step_offline_until(sim::World& world, std::size_t index,
                        util::UnixTime t) {
  world.service(index).set_online(false);
  while (world.now() < t) world.step_hour();
  world.service(index).set_online(true);
}

// ---------------------------------------------------------------------
// Descriptor
// ---------------------------------------------------------------------

TEST(DescriptorTest, MakeDescriptorFieldsConsistent) {
  util::Rng rng(21);
  const auto key = crypto::KeyPair::generate(rng);
  const auto d = hsdir::make_descriptor(key, {}, 1, kT0);
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.published, kT0);
  EXPECT_EQ(d.permanent_id,
            crypto::permanent_id_from_fingerprint(key.fingerprint()));
  EXPECT_EQ(d.time_period, crypto::time_period(kT0, d.permanent_id));
  EXPECT_EQ(d.descriptor_id,
            crypto::descriptor_id(d.permanent_id, d.time_period, 1));
}

TEST(DescriptorTest, OnionAddressRecoverableFromDescriptor) {
  // The core of the harvesting attack: the descriptor embeds the public
  // key, from which the onion address is derivable.
  util::Rng rng(22);
  const auto key = crypto::KeyPair::generate(rng);
  const auto d = hsdir::make_descriptor(key, {}, 0, kT0);
  EXPECT_EQ(d.onion_address(),
            crypto::onion_address(
                crypto::permanent_id_from_fingerprint(key.fingerprint())));
}

// ---------------------------------------------------------------------
// DescriptorStore
// ---------------------------------------------------------------------

TEST(DescriptorStoreTest, StoreAndFetch) {
  util::Rng rng(23);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  const auto key = crypto::KeyPair::generate(rng);
  const auto d = hsdir::make_descriptor(key, {}, 0, kT0);
  store.store(d, keys.add(key.public_bytes()));
  EXPECT_EQ(store.size(), 1u);
  const auto fetched = store.fetch(d.descriptor_id, kT0 + 60);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->descriptor_id, d.descriptor_id);
  crypto::DescriptorId missing{};
  EXPECT_FALSE(store.fetch(missing, kT0).has_value());
}

TEST(DescriptorStoreTest, ExpiryAfter24Hours) {
  util::Rng rng(24);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  const auto key = crypto::KeyPair::generate(rng);
  const auto d = hsdir::make_descriptor(key, {}, 0, kT0);
  store.store(d, keys.add(key.public_bytes()));
  EXPECT_TRUE(store.fetch(d.descriptor_id, kT0 + 24 * 3600).has_value());
  EXPECT_FALSE(store.fetch(d.descriptor_id, kT0 + 24 * 3600 + 1).has_value());
  store.expire(kT0 + 25 * 3600);
  EXPECT_EQ(store.size(), 0u);
}

// What a full expiry walk keeps: every descriptor id whose latest
// publish lies within the lifetime. The store's early-exit expiry must
// agree with it on size(), and every held id must still fetch.
class FullWalkModel {
 public:
  void store(const hsdir::Descriptor& d) {
    held_[d.descriptor_id] = d.published;
  }
  void expire(util::UnixTime now) {
    std::erase_if(held_, [&](const auto& entry) {
      return now - entry.second > hsdir::kDescriptorLifetime;
    });
  }
  void expect_matches(hsdir::DescriptorStore& store,
                      util::UnixTime now) const {
    EXPECT_EQ(store.size(), held_.size());
    for (const auto& [id, published] : held_) {
      const auto fetched = store.fetch(id, now);
      ASSERT_TRUE(fetched.has_value());
      EXPECT_EQ(fetched->published, published);
    }
  }

 private:
  std::map<crypto::DescriptorId, util::UnixTime> held_;
};

hsdir::Descriptor published_at(hsdir::Descriptor d, util::UnixTime t) {
  d.published = t;
  return d;
}

TEST(DescriptorStoreTest, ExpiryKeepsDescriptorRefreshedWithLaterPublish) {
  util::Rng rng(33);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  FullWalkModel model;
  const auto d = hsdir::make_descriptor(crypto::KeyPair::generate(rng), {}, 0,
                                        kT0);
  const auto key = keys.add(d.service_public_key);
  for (const auto& copy : {d, published_at(d, kT0 + 10 * 3600)}) {
    store.store(copy, key);
    model.store(copy);
  }
  // The first publish is past the lifetime, the refresh is not.
  for (const util::UnixTime now :
       {kT0 + 25 * 3600, kT0 + 34 * 3600, kT0 + 34 * 3600 + 1}) {
    store.expire(now);
    model.expire(now);
    model.expect_matches(store, now);
  }
  EXPECT_EQ(store.size(), 0u);
}

TEST(DescriptorStoreTest, ExpiryBoundaryIsExactlyTheLifetime) {
  util::Rng rng(34);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  FullWalkModel model;
  const auto d = hsdir::make_descriptor(crypto::KeyPair::generate(rng), {}, 0,
                                        kT0);
  store.store(d, keys.add(d.service_public_key));
  model.store(d);
  const util::UnixTime boundary = kT0 + hsdir::kDescriptorLifetime;
  store.expire(boundary);
  model.expire(boundary);
  model.expect_matches(store, boundary);
  EXPECT_EQ(store.size(), 1u);
  store.expire(boundary + 1);
  model.expire(boundary + 1);
  model.expect_matches(store, boundary + 1);
  EXPECT_EQ(store.size(), 0u);
}

TEST(DescriptorStoreTest, ExpiryAfterStoreEmptiedAndRefilled) {
  util::Rng rng(35);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  FullWalkModel model;
  std::vector<crypto::Fingerprint> intros(2);
  const auto a = hsdir::make_descriptor(crypto::KeyPair::generate(rng),
                                        intros, 0, kT0);
  const auto b = hsdir::make_descriptor(crypto::KeyPair::generate(rng), {},
                                        1, kT0);
  const auto c = hsdir::make_descriptor(crypto::KeyPair::generate(rng),
                                        intros, 1, kT0);
  const auto step = [&](const hsdir::Descriptor* d, util::UnixTime now) {
    if (d != nullptr) {
      store.store(*d, keys.add(d->service_public_key));
      model.store(*d);
    }
    store.expire(now);
    model.expire(now);
    model.expect_matches(store, now);
  };
  step(&a, kT0 + 25 * 3600);  // stored and expired: the store is empty
  EXPECT_EQ(store.size(), 0u);
  // Refill far later, then add an older publish out of order: the
  // older one must still expire on time.
  const auto b_late = published_at(b, kT0 + 100 * 3600);
  const auto c_early = published_at(c, kT0 + 90 * 3600);
  step(&b_late, kT0 + 100 * 3600);
  step(&c_early, kT0 + 114 * 3600);
  step(nullptr, kT0 + 114 * 3600 + 1);
  EXPECT_EQ(store.size(), 1u);
  step(nullptr, kT0 + 124 * 3600 + 1);
  EXPECT_EQ(store.size(), 0u);
}

TEST(DescriptorStoreTest, ExpiryMatchesFullWalkOnRandomSchedule) {
  util::Rng rng(36);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  FullWalkModel model;
  std::vector<hsdir::Descriptor> pool;
  std::vector<hsdir::KeyTable::Handle> pool_keys;
  for (int i = 0; i < 12; ++i) {
    std::vector<crypto::Fingerprint> intros(rng.index(4));
    pool.push_back(hsdir::make_descriptor(crypto::KeyPair::generate(rng),
                                          intros, 0, kT0));
    pool_keys.push_back(keys.add(pool.back().service_public_key));
  }
  util::UnixTime now = kT0;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<util::Seconds>(rng.index(4 * 3600));
    if (rng.index(3) != 0) {
      // Publish times trail the clock by up to a day, out of order.
      const std::size_t i = rng.index(pool.size());
      const auto d = published_at(
          pool[i], now - static_cast<util::Seconds>(rng.index(24 * 3600)));
      store.store(d, pool_keys[i]);
      model.store(d);
    }
    store.expire(now);
    model.expire(now);
    model.expect_matches(store, now);
  }
}

TEST(DescriptorStoreTest, FetchLogRecordsHitsAndMisses) {
  util::Rng rng(25);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  store.enable_logging(true);
  const auto key = crypto::KeyPair::generate(rng);
  const auto d = hsdir::make_descriptor(key, {}, 0, kT0);
  store.store(d, keys.add(key.public_bytes()));
  (void)store.fetch(d.descriptor_id, kT0 + 1);
  crypto::DescriptorId missing{};
  (void)store.fetch(missing, kT0 + 2);
  ASSERT_EQ(store.fetch_log().size(), 2u);
  EXPECT_TRUE(store.fetch_log()[0].found);
  EXPECT_FALSE(store.fetch_log()[1].found);
  EXPECT_EQ(store.fetch_log()[1].time, kT0 + 2);
  store.clear_fetch_log();
  EXPECT_TRUE(store.fetch_log().empty());
}

TEST(DescriptorStoreTest, NoLoggingByDefault) {
  util::Rng rng(26);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  crypto::DescriptorId id{};
  (void)store.fetch(id, kT0);
  EXPECT_TRUE(store.fetch_log().empty());
}

std::vector<crypto::Fingerprint> random_intro_points(util::Rng& rng,
                                                    std::size_t count) {
  std::vector<crypto::Fingerprint> intros(count);
  for (auto& fp : intros) rng.fill_bytes(fp.data(), fp.size());
  return intros;
}

TEST(DescriptorStoreTest, IntroPointsAndKeyRoundTripThroughFetch) {
  util::Rng rng(37);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  for (std::size_t count = 0; count <= hsdir::kMaxIntroPoints; ++count) {
    auto d = hsdir::make_descriptor(crypto::KeyPair::generate(rng),
                                    random_intro_points(rng, count),
                                    static_cast<std::uint8_t>(count % 2), kT0);
    d.visible_after = kT0 + 60;
    store.store(d, keys.add(d.service_public_key));
    const auto fetched = store.fetch(d.descriptor_id, kT0 + 60);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(fetched->introduction_points, d.introduction_points);
    EXPECT_EQ(fetched->service_public_key, d.service_public_key);
    EXPECT_EQ(fetched->permanent_id, d.permanent_id);
    EXPECT_EQ(fetched->replica, d.replica);
    EXPECT_EQ(fetched->time_period, d.time_period);
    EXPECT_EQ(fetched->published, d.published);
    EXPECT_EQ(fetched->visible_after, d.visible_after);
  }
  EXPECT_EQ(store.size(), hsdir::kMaxIntroPoints + 1);
}

TEST(DescriptorStoreTest, MoreThanThreeIntroPointsThrow) {
  util::Rng rng(38);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  const auto key = crypto::KeyPair::generate(rng);
  const auto held = hsdir::make_descriptor(key, random_intro_points(rng, 3), 0,
                                           kT0);
  const auto handle = keys.add(key.public_bytes());
  store.store(held, handle);
  auto refresh = held;
  refresh.introduction_points = random_intro_points(rng, 4);
  refresh.published = kT0 + 60;
  EXPECT_THROW(store.store(refresh, handle), std::invalid_argument);
  EXPECT_THROW(store.store(hsdir::make_descriptor(
                               key, random_intro_points(rng, 4), 1, kT0),
                           handle),
               std::invalid_argument);
  // A handle the key table never issued is refused the same way.
  auto unknown_key = held;
  unknown_key.published = kT0 + 60;
  EXPECT_THROW(store.store(unknown_key, handle + 1), std::out_of_range);
  // Unchanged: the earlier descriptor, nothing new.
  EXPECT_EQ(store.size(), 1u);
  const auto fetched = store.fetch(held.descriptor_id, kT0 + 60);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->published, kT0);
  EXPECT_EQ(fetched->introduction_points, held.introduction_points);
}

TEST(DescriptorStoreTest, TwoServicesFetchBackTheirOwnKeys) {
  util::Rng rng(39);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  const auto a = hsdir::make_descriptor(crypto::KeyPair::generate(rng), {}, 0,
                                        kT0);
  const auto b = hsdir::make_descriptor(crypto::KeyPair::generate(rng), {}, 0,
                                        kT0);
  ASSERT_NE(a.service_public_key, b.service_public_key);
  store.store(a, keys.add(a.service_public_key));
  store.store(b, keys.add(b.service_public_key));
  EXPECT_EQ(keys.size(), 2u);
  for (const auto* d : {&a, &b}) {
    const auto fetched = store.fetch(d->descriptor_id, kT0 + 1);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(fetched->service_public_key, d->service_public_key);
    EXPECT_EQ(fetched->onion_address(), d->onion_address());
  }
  // The walk reads the same keys from the table, in id order.
  std::vector<crypto::DescriptorId> order;
  store.for_each_descriptor([&](const hsdir::DescriptorView& view) {
    order.push_back(view.descriptor_id);
    const auto& owner = view.descriptor_id == a.descriptor_id ? a : b;
    EXPECT_TRUE(std::equal(view.service_public_key.begin(),
                           view.service_public_key.end(),
                           owner.service_public_key.begin(),
                           owner.service_public_key.end()));
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_LT(order[0], order[1]);
}

TEST(DescriptorStoreTest, RefreshKeepsSizeAndReturnsNewPublished) {
  util::Rng rng(40);
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  const auto d = hsdir::make_descriptor(crypto::KeyPair::generate(rng),
                                        random_intro_points(rng, 2), 0, kT0);
  const auto key = keys.add(d.service_public_key);
  store.store(d, key);
  auto refresh = published_at(d, kT0 + 3600);
  refresh.introduction_points = random_intro_points(rng, 3);
  store.store(refresh, key);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(keys.size(), 1u);
  const auto fetched = store.fetch(d.descriptor_id, kT0 + 3600);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->published, kT0 + 3600);
  EXPECT_EQ(fetched->introduction_points, refresh.introduction_points);
}

// ---------------------------------------------------------------------
// DirectoryNetwork + World services
// ---------------------------------------------------------------------

TEST(DirectoryNetworkTest, PublishPlacesAtResponsibleHsdirs) {
  sim::World world(still_world());
  const auto host = world.service(world.add_service());
  const auto receivers = host.maybe_publish(/*force=*/true);
  // 2 replicas x 3 HSDirs, possibly overlapping.
  EXPECT_GE(receivers.size(), 3u);
  EXPECT_LE(receivers.size(), 6u);
  // Every receiver is indeed responsible for one of the descriptor ids.
  const auto ids = host.current_descriptor_ids(kT0);
  for (const auto relay_id : receivers) {
    bool responsible = false;
    for (const auto& id : ids)
      for (const auto* e : world.consensus().responsible_hsdirs(id))
        responsible |= e->relay == relay_id;
    EXPECT_TRUE(responsible);
  }
}

TEST(DirectoryNetworkTest, PublishRejectsUnknownKeyHandle) {
  MiniNet net;
  util::Rng rng(44);
  const auto key = crypto::KeyPair::generate(rng);
  std::array<hsdir::Descriptor, crypto::kNumReplicas> descriptors;
  std::array<dirauth::ResponsibleSet, crypto::kNumReplicas> responsible;
  std::size_t copies = 0;
  for (std::size_t r = 0; r < descriptors.size(); ++r) {
    descriptors[r] =
        hsdir::make_descriptor(key, {}, static_cast<std::uint8_t>(r), kT0);
    responsible[r].count =
        static_cast<std::uint8_t>(net.consensus.responsible_hsdirs_into(
            descriptors[r].descriptor_id, responsible[r].dirs.data(),
            responsible[r].dirs.size()));
    copies += responsible[r].count;
  }
  ASSERT_GT(copies, 0u);

  // Nothing added yet, then one past the only handle: both refused
  // before any directory is touched.
  EXPECT_THROW(net.dirnet.publish(0, descriptors, responsible),
               std::out_of_range);
  const auto handle = net.dirnet.add_key(key.public_bytes());
  EXPECT_THROW(net.dirnet.publish(handle + 1, descriptors, responsible),
               std::out_of_range);
  EXPECT_EQ(net.dirnet.descriptors_stored(), 0u);
  EXPECT_TRUE(net.dirnet.failure_log().empty());

  EXPECT_FALSE(net.dirnet.publish(handle, descriptors, responsible).empty());
  // Publish queues one upload per copy; the stores see them once
  // applied, and reading the count before that throws.
  EXPECT_EQ(net.dirnet.queued_uploads(), copies);
  EXPECT_THROW(net.dirnet.descriptors_stored(), std::logic_error);
  net.dirnet.apply_uploads();
  EXPECT_EQ(net.dirnet.queued_uploads(), 0u);
  EXPECT_EQ(net.dirnet.descriptors_stored(), copies);
  EXPECT_EQ(net.dirnet.keys().size(), 1u);
}

TEST(DirectoryNetworkTest, FetchCountsRequestsAndProbesSeparately) {
  // fetch_attempts counts requests (one per fetch_from call);
  // fetch_probes counts the per-directory contacts a request fans out
  // into. A published id hits the first responsible dir (1 probe); a
  // missing id walks the whole responsible set (kHsDirsPerReplica
  // probes) before giving up.
  obs::MetricsRegistry metrics;
  sim::WorldConfig config = still_world();
  config.metrics = &metrics;
  sim::World world(config);
  hsdir::DirectoryNetwork& dirnet = world.directories();

  const auto host = world.service(world.add_service());

  const auto id = host.current_descriptor_ids(kT0).front();
  relay::RelayId hsdir;
  ASSERT_TRUE(dirnet.fetch_from(world.consensus(), id, kT0 + 10, hsdir));
  EXPECT_EQ(metrics.counter("hsdir.fetch_attempts").value(), 1);
  EXPECT_EQ(metrics.counter("hsdir.fetch_probes").value(), 1);

  crypto::DescriptorId missing{};
  EXPECT_FALSE(dirnet.fetch_from(world.consensus(), missing, kT0 + 10, hsdir));
  EXPECT_EQ(metrics.counter("hsdir.fetch_attempts").value(), 2);
  EXPECT_EQ(metrics.counter("hsdir.fetch_probes").value(),
            1 + crypto::kHsDirsPerReplica);
}

TEST(DirectoryNetworkTest, FetchFindsPublishedDescriptor) {
  sim::World world(still_world());
  const auto host = world.service(world.add_service());
  for (const auto& id : host.current_descriptor_ids(kT0)) {
    relay::RelayId hsdir;
    const auto d =
        world.directories().fetch_from(world.consensus(), id, kT0 + 10, hsdir);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->onion_address(), host.onion_address());
    EXPECT_NE(hsdir, relay::kInvalidRelayId);
  }
}

TEST(ServiceHostTest, NoRepublishWithinPeriodWhenRingStable) {
  sim::World world(still_world());
  const auto host = world.service(world.add_service());
  // add_service published at once.
  EXPECT_FALSE(host.last_publish_records().empty());
  EXPECT_TRUE(host.maybe_publish().empty());  // same period, same ring
  EXPECT_FALSE(host.maybe_publish(/*force=*/true).empty());
}

TEST(ServiceHostTest, RepublishesWhenPeriodRolls) {
  sim::World world(still_world());
  const auto index = world.add_service();
  const auto host = world.service(index);
  const auto rotation =
      crypto::seconds_until_rotation(kT0, host.permanent_id());
  step_offline_until(world, index, kT0 + rotation);
  EXPECT_FALSE(host.maybe_publish().empty());
  EXPECT_EQ(host.last_published_period(),
            crypto::time_period(kT0 + rotation, host.permanent_id()));
}

TEST(ServiceHostTest, RepublishesWhenResponsibleSetChanges) {
  sim::World world(still_world());
  util::Rng rng(31);
  const auto host = world.service(world.add_service());

  // A new relay lands right after the descriptor id, ahead of the first
  // responsible directory: responsible set changes mid-period -> service
  // must re-upload.
  const auto ids = host.current_descriptor_ids(kT0);
  const auto first = world.consensus().responsible_hsdirs(ids[0]);
  ASSERT_FALSE(first.empty());
  const double gap = crypto::ring_distance(ids[0], first.front()->fingerprint);
  crypto::KeyPair positioned = crypto::KeyPair::generate(rng);
  while (crypto::ring_distance(ids[0], positioned.fingerprint()) >= gap)
    positioned = crypto::KeyPair::generate(rng);
  relay::RelayConfig rc;
  rc.nickname = "interloper";
  rc.address = util::Ipv4(6, 6, 6, 6);
  const auto id = world.registry().create_with_key(
      rc, std::move(positioned), kT0 - 30 * util::kSecondsPerHour);
  world.registry().get(id).set_online(true, kT0 - 30 * util::kSecondsPerHour);
  world.rebuild_consensus();

  const auto receivers = host.maybe_publish();
  EXPECT_FALSE(receivers.empty());
}

TEST(ServiceHostTest, OfflineServiceDoesNotPublish) {
  sim::World world(still_world());
  const auto host = world.service(world.add_service());
  host.set_online(false);
  EXPECT_TRUE(host.maybe_publish(/*force=*/true).empty());
}

TEST(ServiceHostTest, CachedDescriptorIdsFollowPeriodRollover) {
  sim::World world(still_world());
  const auto index = world.add_service();
  const auto host = world.service(index);
  const crypto::PermanentId pid = host.permanent_id();
  const auto derived = [&](util::UnixTime t) {
    const auto ids =
        crypto::descriptor_ids_for_period(pid, crypto::time_period(t, pid));
    return std::vector<crypto::DescriptorId>(ids.begin(), ids.end());
  };
  EXPECT_EQ(host.current_descriptor_ids(kT0), derived(kT0));

  // Next period, before and after the publish that moves the cache.
  const util::UnixTime next = kT0 + crypto::seconds_until_rotation(kT0, pid);
  ASSERT_NE(crypto::time_period(next, pid), crypto::time_period(kT0, pid));
  EXPECT_EQ(host.current_descriptor_ids(next), derived(next));
  step_offline_until(world, index, next);
  ASSERT_EQ(crypto::time_period(world.now(), pid),
            crypto::time_period(next, pid));
  ASSERT_FALSE(host.maybe_publish().empty());
  EXPECT_EQ(host.current_descriptor_ids(next), derived(next));
  EXPECT_EQ(host.current_descriptor_ids(kT0), derived(kT0));

  // The descriptors went out under the new period's ids.
  for (const auto& id : derived(next)) {
    relay::RelayId hsdir;
    const auto d = world.directories().fetch_from(world.consensus(), id,
                                                  world.now() + 1, hsdir);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->time_period, crypto::time_period(next, pid));
  }
}

TEST(ServiceHostTest, CookieSetAfterPublishReplacesCachedIds) {
  sim::World world(still_world());
  const auto host = world.service(world.add_service());
  const crypto::PermanentId pid = host.permanent_id();
  const std::uint32_t period = crypto::time_period(kT0, pid);

  const std::vector<std::uint8_t> cookie = {4, 8, 15, 16, 23, 42};
  host.set_descriptor_cookie(cookie);
  const auto with_cookie =
      crypto::descriptor_ids_for_period(pid, period, cookie);
  EXPECT_EQ(host.current_descriptor_ids(kT0),
            std::vector<crypto::DescriptorId>(with_cookie.begin(),
                                              with_cookie.end()));
  EXPECT_NE(host.current_descriptor_ids(kT0).front(),
            crypto::descriptor_ids_for_period(pid, period).front());

  ASSERT_FALSE(host.maybe_publish(/*force=*/true).empty());
  EXPECT_EQ(host.current_descriptor_ids(kT0 + 60),
            std::vector<crypto::DescriptorId>(with_cookie.begin(),
                                              with_cookie.end()));
  for (const auto& id : with_cookie) {
    relay::RelayId hsdir;
    EXPECT_TRUE(world.directories()
                    .fetch_from(world.consensus(), id, kT0 + 61, hsdir)
                    .has_value());
  }
}

TEST(WorldServiceTest, RepublishesOnFingerprintSwitchAtSameRelayId) {
  // The first directory responsible for replica 0 switches to a key
  // whose fingerprint lands between the descriptor id and its old
  // fingerprint. Every responsible set keeps the same relay ids in the
  // same order, yet the service must re-upload within the hour: the
  // directory now answers under a new identity.
  sim::World world(still_world());
  const auto host = world.service(world.add_service());
  // Start at the hour the service's period rolls, so the hours below
  // stay in one period.
  const crypto::PermanentId pid = host.permanent_id();
  while (crypto::time_period(world.now(), pid) ==
         crypto::time_period(kT0, pid))
    world.step_hour();
  const util::UnixTime published = world.now();
  const std::uint32_t period = crypto::time_period(published, pid);
  ASSERT_EQ(host.last_published_period(), period);
  const crypto::DescriptorId id0 = host.current_descriptor_ids(published)[0];
  const auto responsible_relays = [&world, &host] {
    std::vector<relay::RelayId> relays;
    for (const auto& id : host.current_descriptor_ids(world.now()))
      for (const auto* e : world.consensus().responsible_hsdirs(id))
        relays.push_back(e->relay);
    return relays;
  };
  const auto before = responsible_relays();
  const auto first = world.consensus().responsible_hsdirs(id0);
  ASSERT_FALSE(first.empty());
  const relay::RelayId switched = first.front()->relay;
  const double gap = crypto::ring_distance(id0, first.front()->fingerprint);
  const auto published_at_switched = [&] {
    const auto d =
        world.directories().find_store(switched)->fetch(id0, world.now());
    return d ? d->published : util::UnixTime{-1};
  };

  // Control: an hour on the still ring uploads nothing new.
  world.step_hour();
  ASSERT_EQ(crypto::time_period(world.now(), pid), period);
  EXPECT_EQ(published_at_switched(), published);

  util::Rng rng(41);
  crypto::KeyPair key = crypto::KeyPair::generate(rng);
  while (crypto::ring_distance(id0, key.fingerprint()) >= gap)
    key = crypto::KeyPair::generate(rng);
  const crypto::Fingerprint new_fingerprint = key.fingerprint();
  world.registry().get(switched).install_identity(std::move(key),
                                                  world.now());
  world.step_hour();
  ASSERT_EQ(crypto::time_period(world.now(), pid), period);
  ASSERT_EQ(world.consensus().find_relay(switched)->fingerprint,
            new_fingerprint);
  ASSERT_EQ(responsible_relays(), before);
  EXPECT_EQ(published_at_switched(), world.now());
}

TEST(WorldServiceTest, KeyTableHoldsOneKeyPerServiceAcrossRepublishing) {
  obs::MetricsRegistry metrics;
  sim::WorldConfig config;
  config.seed = 43;
  config.honest_relays = 60;
  config.metrics = &metrics;
  sim::World world(config);
  for (int i = 0; i < 8; ++i) world.add_service();
  world.run_hours(30);
  world.add_service();
  world.run_hours(2);
  // More descriptor uploads than the services' first publications.
  EXPECT_GT(metrics.counter("hsdir.publishes").value(),
            static_cast<std::int64_t>(crypto::kNumReplicas *
                                      world.service_count()));
  const hsdir::KeyTable& keys = world.directories().keys();
  ASSERT_EQ(keys.size(), world.service_count());
  for (std::size_t i = 0; i < world.service_count(); ++i)
    EXPECT_EQ(crypto::onion_address_from_public_key(keys.bytes(
                  static_cast<hsdir::KeyTable::Handle>(i))),
              world.service(i).onion_address());
}

// ---------------------------------------------------------------------
// GuardManager
// ---------------------------------------------------------------------

TEST(GuardManagerTest, PicksThreeGuardsFromConsensus) {
  MiniNet net(40, 10 * util::kSecondsPerDay);  // uptime enough for Guard
  util::Rng rng(33);
  hs::GuardManager manager;
  manager.maintain(net.consensus, rng, kT0);
  EXPECT_EQ(manager.guards().size(), 3u);
  for (const auto& g : manager.guards()) {
    const auto* e = net.consensus.find(g.fingerprint);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(has_flag(e->flags, dirauth::Flag::kGuard));
    EXPECT_GE(g.expires_at - g.chosen_at, 30 * util::kSecondsPerDay);
    EXPECT_LE(g.expires_at - g.chosen_at, 60 * util::kSecondsPerDay);
  }
}

TEST(GuardManagerTest, GuardsAreDistinct) {
  MiniNet net(40, 10 * util::kSecondsPerDay);
  util::Rng rng(34);
  hs::GuardManager manager;
  manager.maintain(net.consensus, rng, kT0);
  const auto& guards = manager.guards();
  for (std::size_t i = 0; i < guards.size(); ++i)
    for (std::size_t j = i + 1; j < guards.size(); ++j)
      EXPECT_NE(guards[i].relay, guards[j].relay);
}

TEST(GuardManagerTest, ExpiredGuardsReplaced) {
  MiniNet net(40, 10 * util::kSecondsPerDay);
  util::Rng rng(35);
  hs::GuardManager manager;
  manager.maintain(net.consensus, rng, kT0);
  const auto old_guards = manager.guards();
  manager.maintain(net.consensus, rng, kT0 + 61 * util::kSecondsPerDay);
  EXPECT_EQ(manager.guards().size(), 3u);
  for (const auto& g : manager.guards())
    EXPECT_GT(g.chosen_at, old_guards[0].chosen_at);
}

TEST(GuardManagerTest, NoGuardFlaggedRelaysNoGuards) {
  MiniNet net(10, 2 * util::kSecondsPerHour);  // too young for Guard flag
  util::Rng rng(36);
  hs::GuardManager manager;
  manager.maintain(net.consensus, rng, kT0);
  EXPECT_TRUE(manager.guards().empty());
  EXPECT_FALSE(manager.pick(net.consensus, rng).has_value());
}

TEST(GuardManagerTest, PickReturnsMemberOfSet) {
  MiniNet net(40, 10 * util::kSecondsPerDay);
  util::Rng rng(37);
  hs::GuardManager manager;
  manager.maintain(net.consensus, rng, kT0);
  for (int i = 0; i < 20; ++i) {
    const auto pick = manager.pick(net.consensus, rng);
    ASSERT_TRUE(pick.has_value());
    bool member = false;
    for (const auto& g : manager.guards()) member |= g.relay == pick->relay;
    EXPECT_TRUE(member);
  }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

TEST(ClientTest, FetchSucceedsForPublishedService) {
  sim::World world(still_world(40));
  const auto host = world.service(world.add_service());

  hs::Client client(util::Ipv4(100, 1, 2, 3), 999);
  client.maintain(world.consensus(), kT0);
  const auto outcome =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), kT0 + 30);
  EXPECT_TRUE(outcome.found);
  EXPECT_NE(outcome.guard, relay::kInvalidRelayId);
  EXPECT_NE(outcome.hsdir, relay::kInvalidRelayId);
  EXPECT_EQ(outcome.client_address, util::Ipv4(100, 1, 2, 3));
}

TEST(ClientTest, FetchFailsForUnknownOnion) {
  MiniNet net(40, 10 * util::kSecondsPerDay);
  util::Rng rng(39);
  hs::Client client(util::Ipv4(100, 1, 2, 4), 1000);
  client.maintain(net.consensus, kT0);
  // A valid-looking but never-published address.
  const auto key = crypto::KeyPair::generate(rng);
  const auto onion = crypto::onion_address(
      crypto::permanent_id_from_fingerprint(key.fingerprint()));
  const auto outcome =
      client.fetch_descriptor(onion, net.consensus, net.dirnet, kT0 + 30);
  EXPECT_FALSE(outcome.found);
}

TEST(ClientTest, FetchAfterRotationFailsUntilRepublish) {
  sim::World world(still_world(40));
  const auto host = world.service(world.add_service());
  const auto rotation =
      crypto::seconds_until_rotation(kT0, host.permanent_id());

  hs::Client client(util::Ipv4(100, 1, 2, 5), 1001);
  client.maintain(world.consensus(), kT0);
  // After the period rolls, the *new* descriptor ids are not yet
  // published.
  const auto outcome =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), kT0 + rotation + 1);
  EXPECT_FALSE(outcome.found);
  // The service republishes at the first hour step past the rotation,
  // then the fetch succeeds.
  world.run_hours(static_cast<int>(rotation / util::kSecondsPerHour) + 1);
  const auto retry =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), world.now() + 1);
  EXPECT_TRUE(retry.found);
}

}  // namespace
}  // namespace torsim

namespace torsim {
namespace {

TEST(ClientTest, FetchCircuitHasMiddleRelay) {
  sim::World world(still_world(40));
  const auto host = world.service(world.add_service());
  hs::Client client(util::Ipv4(100, 1, 2, 6), 1002);
  client.maintain(world.consensus(), kT0);
  const auto outcome = client.fetch_descriptor(
      host.onion_address(), world.consensus(), world.directories(), kT0 + 30);
  EXPECT_NE(outcome.middle, relay::kInvalidRelayId);
  EXPECT_NE(outcome.middle, outcome.guard);
}

}  // namespace
}  // namespace torsim

namespace torsim {
namespace {

// ---------------------------------------------------------------------
// authenticated ("stealth") hidden services
// ---------------------------------------------------------------------

TEST(StealthServiceTest, CookieChangesDescriptorIds) {
  util::Rng rng(70);
  const auto key = crypto::KeyPair::generate(rng);
  const auto pid = crypto::permanent_id_from_fingerprint(key.fingerprint());
  const std::vector<std::uint8_t> cookie = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_NE(crypto::descriptor_id(pid, 15000, 0),
            crypto::descriptor_id(pid, 15000, 0, cookie));
  // Different cookies, different ids.
  const std::vector<std::uint8_t> other = {9, 9, 9};
  EXPECT_NE(crypto::descriptor_id(pid, 15000, 0, cookie),
            crypto::descriptor_id(pid, 15000, 0, other));
  // Same cookie, deterministic.
  EXPECT_EQ(crypto::descriptor_id(pid, 15000, 0, cookie),
            crypto::descriptor_id(pid, 15000, 0, cookie));
}

TEST(StealthServiceTest, AuthorizedClientFetches) {
  sim::World world(still_world(40));
  util::Rng rng(71);
  const std::vector<std::uint8_t> cookie = {0xde, 0xad, 0xbe, 0xef};
  const auto host = world.service(
      world.add_service(crypto::KeyPair::generate(rng), cookie));

  hs::Client client(util::Ipv4(100, 2, 3, 4), 2001);
  client.maintain(world.consensus(), kT0);
  const auto with_cookie =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), kT0 + 10, cookie);
  EXPECT_TRUE(with_cookie.found);
}

TEST(StealthServiceTest, UnauthorizedClientCannotDeriveId) {
  sim::World world(still_world(40));
  util::Rng rng(72);
  const auto host = world.service(world.add_service(
      crypto::KeyPair::generate(rng), {0xde, 0xad, 0xbe, 0xef}));

  hs::Client client(util::Ipv4(100, 2, 3, 5), 2002);
  client.maintain(world.consensus(), kT0);
  // Knows the onion address but not the cookie.
  const auto without = client.fetch_descriptor(
      host.onion_address(), world.consensus(), world.directories(), kT0 + 10);
  EXPECT_FALSE(without.found);
  const auto wrong = client.fetch_descriptor(
      host.onion_address(), world.consensus(), world.directories(), kT0 + 10,
      std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(wrong.found);
}

TEST(StealthServiceTest, MeasuringHsdirCannotResolveCookieRequests) {
  // The Sec. V resolver derives descriptor IDs from harvested onion
  // addresses; an authenticated service's requests stay unresolvable —
  // one mechanism behind the paper's 80% unresolved request IDs.
  sim::World world(still_world(40));
  util::Rng rng(73);
  const std::vector<std::uint8_t> cookie = {7, 7, 7, 7};
  const auto host = world.service(
      world.add_service(crypto::KeyPair::generate(rng), cookie));

  // The analyst's derivation (onion-only) misses the service's actual
  // published ids.
  const auto pid = host.permanent_id();
  const auto period = crypto::time_period(kT0, pid);
  const auto actual_ids = host.current_descriptor_ids(kT0);
  for (std::uint8_t replica = 0; replica < 2; ++replica) {
    const auto derived = crypto::descriptor_id(pid, period, replica);
    for (const auto& actual : actual_ids) EXPECT_NE(derived, actual);
  }
}

}  // namespace
}  // namespace torsim

namespace torsim {
namespace {

TEST(GuardManagerTest, SamplingIsBandwidthWeighted) {
  // One guard candidate carries 50x the bandwidth of each of the others;
  // across many clients it should appear in guard sets far more often
  // than 1/N.
  util::Rng rng(80);
  relay::Registry registry;
  dirauth::Authority authority;
  const util::UnixTime past = kT0 - 10 * util::kSecondsPerDay;
  relay::RelayId fat = 0;
  for (int i = 0; i < 20; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "g" + std::to_string(i);
    rc.address = util::Ipv4::random_public(rng);
    rc.bandwidth_kbps = i == 0 ? 5000.0 : 100.0;
    const auto id = registry.create(rc, rng, past);
    registry.get(id).set_online(true, past);
    if (i == 0) fat = id;
  }
  // Median bandwidth is 100, so everyone qualifies for Guard.
  const auto consensus = authority.build_consensus(registry, kT0);
  ASSERT_EQ(consensus.with_flag(dirauth::Flag::kGuard).size(), 20u);

  int fat_selected = 0;
  const int clients = 300;
  for (int c = 0; c < clients; ++c) {
    hs::GuardManager manager;
    util::Rng client_rng(1000 + static_cast<std::uint64_t>(c));
    manager.maintain(consensus, client_rng, kT0);
    for (const auto& g : manager.guards())
      if (g.relay == fat) ++fat_selected;
  }
  // Uniform sampling would give ~3/20 = 45 of 300; bandwidth weighting
  // (5000 of 6900 total) pushes the fat guard into nearly every set.
  EXPECT_GT(fat_selected, 200);
}

}  // namespace
}  // namespace torsim

namespace torsim {
namespace {

TEST(ClientCacheTest, SecondFetchSamePeriodServedFromCache) {
  sim::World world(still_world(40));
  const auto host = world.service(world.add_service());
  for (const auto& e : world.consensus().entries())
    world.directories().store_for(e.relay).enable_logging(true);
  const auto logged = [&world] {
    std::size_t total = 0;
    for (const auto& e : world.consensus().entries())
      total += world.directories().find_store(e.relay)->fetch_log().size();
    return total;
  };

  hs::Client client(util::Ipv4(100, 9, 9, 9), 3001);
  client.maintain(world.consensus(), kT0);
  const auto first =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), kT0 + 10);
  ASSERT_TRUE(first.found);
  EXPECT_FALSE(first.from_cache);
  const std::size_t logged_after_first = logged();

  const auto second =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), kT0 + 600);
  EXPECT_TRUE(second.found);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.descriptor_id, first.descriptor_id);
  // No additional directory request was made.
  EXPECT_EQ(logged(), logged_after_first);
}

TEST(ClientCacheTest, CacheExpiresWithPeriod) {
  sim::World world(still_world(40));
  const auto host = world.service(world.add_service());
  hs::Client client(util::Ipv4(100, 9, 9, 10), 3002);
  client.maintain(world.consensus(), kT0);
  ASSERT_TRUE(client.fetch_descriptor(host.onion_address(), world.consensus(),
                                      world.directories(), kT0 + 10)
                  .found);
  const auto rotation =
      crypto::seconds_until_rotation(kT0, host.permanent_id());
  // New period: the cache must not serve the stale descriptor.
  const auto stale =
      client.fetch_descriptor(host.onion_address(), world.consensus(),
                              world.directories(), kT0 + rotation + 5);
  EXPECT_FALSE(stale.from_cache);
  EXPECT_FALSE(stale.found);  // service has not republished yet
}

TEST(ClientCacheTest, FailedFetchNotCached) {
  MiniNet net(40, 10 * util::kSecondsPerDay);
  util::Rng rng(92);
  const auto key = crypto::KeyPair::generate(rng);
  const auto onion = crypto::onion_address(
      crypto::permanent_id_from_fingerprint(key.fingerprint()));
  hs::Client client(util::Ipv4(100, 9, 9, 11), 3003);
  client.maintain(net.consensus, kT0);
  EXPECT_FALSE(
      client.fetch_descriptor(onion, net.consensus, net.dirnet, kT0).found);
  const auto again =
      client.fetch_descriptor(onion, net.consensus, net.dirnet, kT0 + 60);
  EXPECT_FALSE(again.from_cache);
}

}  // namespace
}  // namespace torsim
