// Differential gate for the harvester's incremental collect: after each
// rotation hour, ShadowHarvester::run reads only the descriptors its
// stores received since the previous hour and hashes each distinct
// public key once. The oracle is the collect it replaced, kept here: a
// full rescan of every fleet store every hour, copying each descriptor
// out and re-deriving its onion address from the embedded key. Both
// must agree on the onion set (and the ring positions) after every
// rotation hour, with and without publish faults, and across the 24 h
// expiry boundary.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "attack/harvester.hpp"
#include "sim/world.hpp"

namespace torsim::attack {
namespace {

/// Every descriptor currently held, as owned copies in id order (the
/// store's pre-visitor accessor, now test-side).
std::vector<hsdir::Descriptor> all_descriptors(
    const hsdir::DescriptorStore& store) {
  std::vector<hsdir::Descriptor> out;
  store.for_each_descriptor([&](const hsdir::DescriptorView& view) {
    hsdir::Descriptor d;
    d.descriptor_id = view.descriptor_id;
    d.published = view.published;
    d.service_public_key.assign(view.service_public_key.begin(),
                                view.service_public_key.end());
    out.push_back(std::move(d));
  });
  return out;
}

struct HarvestSetup {
  sim::WorldConfig world;
  int services = 30;
  HarvesterConfig harvester;
};

HarvestSetup small_setup(std::uint64_t seed) {
  HarvestSetup setup;
  setup.world.seed = seed;
  setup.world.honest_relays = 150;
  setup.harvester.num_ips = 4;
  setup.harvester.relays_per_ip = 6;
  return setup;
}

/// The run's state after each rotation hour.
struct HourlyHarvest {
  std::vector<std::set<std::string>> onions;
  std::vector<int> positions;
};

/// The harvest run as it was before the incremental collect: the same
/// ripen and rotation schedule as ShadowHarvester::run, with the
/// consensus scanned per fleet relay and every fleet store rescanned
/// in full after each hour.
HourlyHarvest oracle_harvest(const HarvestSetup& setup, int rotation_hours) {
  sim::World world(setup.world);
  for (int i = 0; i < setup.services; ++i) world.add_service();
  ShadowHarvester harvester(setup.harvester);
  harvester.deploy(world);
  const std::vector<relay::RelayId>& fleet = harvester.relay_ids();
  const int per_ip = setup.harvester.relays_per_ip;

  for (int h = 0; h < 26; ++h) world.step_hour();  // ripen, as run() does

  HourlyHarvest out;
  std::set<std::string> onions;
  std::set<relay::RelayId> positions;
  for (int h = 0; h < rotation_hours; ++h) {
    const int active = h % (per_ip / 2);
    for (std::size_t k = 0; k < fleet.size(); ++k) {
      const int j = static_cast<int>(k) % per_ip;
      world.registry().get(fleet[k]).set_authority_reachable(j / 2 == active);
    }
    world.step_hour();
    for (relay::RelayId id : fleet) {
      const dirauth::ConsensusEntry* e = world.consensus().find_relay(id);
      if (e != nullptr && has_flag(e->flags, dirauth::Flag::kHSDir))
        positions.insert(id);
    }
    for (relay::RelayId id : fleet) {
      const hsdir::DescriptorStore* store =
          world.directories().find_store(id);
      if (store == nullptr) continue;
      for (const hsdir::Descriptor& d : all_descriptors(*store))
        onions.insert(d.onion_address());
    }
    out.onions.push_back(onions);
    out.positions.push_back(static_cast<int>(positions.size()));
  }
  return out;
}

HarvestReport production_harvest(const HarvestSetup& setup,
                                 int rotation_hours) {
  sim::World world(setup.world);
  for (int i = 0; i < setup.services; ++i) world.add_service();
  ShadowHarvester harvester(setup.harvester);
  harvester.deploy(world);
  return harvester.run(world, rotation_hours);
}

/// Runs the production harvester for 1..rotation_hours hours, each on a
/// fresh world, and compares it with the oracle after that many hours.
void expect_same_after_every_hour(const HarvestSetup& setup,
                                  int rotation_hours) {
  const HourlyHarvest oracle = oracle_harvest(setup, rotation_hours);
  ASSERT_EQ(oracle.onions.size(), static_cast<std::size_t>(rotation_hours));
  // The comparison must exercise the incremental path: the set keeps
  // growing after the first hour's collect.
  ASSERT_FALSE(oracle.onions.front().empty());
  ASSERT_GT(oracle.onions.back().size(), oracle.onions.front().size());
  for (int h = 1; h <= rotation_hours; ++h) {
    const HarvestReport report = production_harvest(setup, h);
    EXPECT_EQ(report.onions, oracle.onions[static_cast<std::size_t>(h - 1)])
        << "after rotation hour " << h;
    EXPECT_EQ(report.positions_used,
              oracle.positions[static_cast<std::size_t>(h - 1)])
        << "after rotation hour " << h;
  }
}

TEST(HarvestCollectDiffTest, MatchesFullRescanWithoutFaults) {
  expect_same_after_every_hour(small_setup(41), 8);
}

TEST(HarvestCollectDiffTest, MatchesFullRescanUnderPublishFaults) {
  HarvestSetup setup = small_setup(42);
  setup.world.faults.publish_loss_rate = 0.3;
  setup.world.faults.publish_delay_rate = 0.3;
  ASSERT_TRUE(setup.world.faults.enabled());
  expect_same_after_every_hour(setup, 8);
}

TEST(HarvestCollectDiffTest, MatchesFullRescanAcrossExpiry) {
  // 30 rotation hours: the descriptors the first exposed pairs
  // collected expire (24 h lifetime) while the run goes on, and the
  // same relays are exposed again every third hour.
  expect_same_after_every_hour(small_setup(43), 30);
}

}  // namespace
}  // namespace torsim::attack
