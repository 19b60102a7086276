#include "attack/harvester.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/digest.hpp"
#include "util/logging.hpp"

namespace torsim::attack {

ShadowHarvester::ShadowHarvester(HarvesterConfig config) : config_(config) {
  if (config_.num_ips <= 0 || config_.relays_per_ip < 2)
    throw std::invalid_argument("ShadowHarvester: need >=1 IP, >=2 relays/IP");
}

void ShadowHarvester::deploy(sim::World& world) {
  if (deployed_) throw std::logic_error("ShadowHarvester: already deployed");
  deployed_ = true;
  const util::UnixTime now = world.now();
  for (int ip_index = 0; ip_index < config_.num_ips; ++ip_index) {
    const util::Ipv4 address = util::Ipv4::random_public(world.rng());
    for (int j = 0; j < config_.relays_per_ip; ++j) {
      relay::RelayConfig rc;
      rc.nickname =
          "harv" + std::to_string(ip_index) + "x" + std::to_string(j);
      rc.address = address;
      rc.or_port = static_cast<std::uint16_t>(9001 + j);
      // Strictly decreasing bandwidth makes the per-IP election order
      // deterministic: lower j wins.
      rc.bandwidth_kbps = config_.bandwidth_kbps - j;
      const relay::RelayId id =
          world.registry().create(rc, world.rng(), now);
      world.registry().get(id).set_online(true, now);
      world.set_churn_exempt(id, true);
      world.directories().store_for(id).enable_logging(true);
      relays_.push_back(id);
    }
  }
  sorted_relays_ = relays_;
  std::sort(sorted_relays_.begin(), sorted_relays_.end());
  expose_pair(world, 0);
}

bool ShadowHarvester::owns(relay::RelayId id) const {
  return std::binary_search(sorted_relays_.begin(), sorted_relays_.end(), id);
}

void ShadowHarvester::expose_pair(sim::World& world, int pair_index) {
  const int pairs = config_.relays_per_ip / 2;
  const int active = pair_index % pairs;
  for (int ip_index = 0; ip_index < config_.num_ips; ++ip_index) {
    for (int j = 0; j < config_.relays_per_ip; ++j) {
      const relay::RelayId id = relays_[static_cast<std::size_t>(
          ip_index * config_.relays_per_ip + j)];
      const bool visible = j / 2 == active;
      world.registry().get(id).set_authority_reachable(visible);
    }
  }
}

void ShadowHarvester::collect(const sim::World& world, CollectState& state,
                              HarvestReport& report) const {
  const std::optional<util::UnixTime> since = state.last_collect;
  state.seen_keys.resize(world.directories().keys().size());
  for (relay::RelayId id : relays_) {
    const hsdir::DescriptorStore* store = world.directories().find_store(id);
    if (store == nullptr) continue;
    store->for_each_descriptor([&](const hsdir::DescriptorView& d) {
      if (since && d.published <= *since) return;
      if (state.seen_keys[d.key]) return;
      state.seen_keys[d.key] = true;
      report.onions.insert(
          crypto::onion_address_from_public_key(d.service_public_key));
    });
  }
  state.last_collect = world.now();
}

HarvestReport ShadowHarvester::run(sim::World& world, int rotation_hours) {
  if (!deployed_) throw std::logic_error("ShadowHarvester: deploy() first");
  HarvestReport report;
  report.relays_deployed = static_cast<int>(relays_.size());

  // Ripen: 25 hours for the HSDir flag (plus one hour of margin so the
  // first consensus after ripening reflects it).
  const int ripen = 26;
  report.ripen_hours = ripen;
  {
    TRACE_SPAN(config_.trace, world.clock(), "harvest.ripen");
    for (int h = 0; h < ripen; ++h) world.step_hour();
  }

  std::set<relay::RelayId> positions;
  CollectState collected;
  {
    TRACE_SPAN(config_.trace, world.clock(), "harvest.rotate");
    for (int h = 0; h < rotation_hours; ++h) {
      expose_pair(world, h);
      world.step_hour();
      for (const dirauth::ConsensusEntry& e : world.consensus().entries())
        if (has_flag(e.flags, dirauth::Flag::kHSDir) && owns(e.relay))
          positions.insert(e.relay);
      collect(world, collected, report);
    }
  }
  report.rotation_hours = rotation_hours;
  report.positions_used = static_cast<int>(positions.size());
  // A run without rotation hours still reads what ripening left behind.
  if (rotation_hours <= 0) collect(world, collected, report);

  std::int64_t descriptors = 0;
  std::int64_t fetches = 0;
  for (relay::RelayId id : relays_) {
    const hsdir::DescriptorStore* store = world.directories().find_store(id);
    if (store == nullptr) continue;
    descriptors += static_cast<std::int64_t>(store->size());
    fetches += static_cast<std::int64_t>(store->fetch_log().size());
  }
  report.descriptors_collected = descriptors;
  report.fetch_requests_logged = fetches;
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("harvest.onions")
        .inc(static_cast<std::int64_t>(report.onions.size()));
    m.counter("harvest.descriptors").inc(report.descriptors_collected);
    m.counter("harvest.fetches_logged").inc(report.fetch_requests_logged);
    m.counter("harvest.positions_used").inc(report.positions_used);
    m.counter("harvest.relays_deployed").inc(report.relays_deployed);
  }
  if (config_.trace != nullptr)
    config_.trace->instant("harvest.done", "attack", world.now(),
                           {{"onions", static_cast<std::int64_t>(
                                           report.onions.size())},
                            {"positions", report.positions_used}});
  TORSIM_INFO() << "harvest: " << report.onions.size() << " onions from "
                << report.positions_used << " ring positions";
  return report;
}

}  // namespace torsim::attack
