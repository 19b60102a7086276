#include "attack/deanonymizer.hpp"

#include <algorithm>

namespace torsim::attack {

ClientDeanonymizer::ClientDeanonymizer(DeanonymizerConfig config)
    : config_(config) {}

void ClientDeanonymizer::deploy_guards(sim::World& world, int pre_aged_days) {
  const util::UnixTime now = world.now();
  const util::UnixTime aged_start =
      now - static_cast<util::Seconds>(pre_aged_days) * util::kSecondsPerDay;
  for (int i = 0; i < config_.guard_relays; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "fastguard" + std::to_string(i);
    rc.address = util::Ipv4::random_public(world.rng());
    rc.bandwidth_kbps = config_.guard_bandwidth_kbps;
    const relay::RelayId id =
        world.registry().create(rc, world.rng(), aged_start);
    world.registry().get(id).set_online(true, aged_start);
    world.set_churn_exempt(id, true);
    guards_.push_back(id);
  }
  world.rebuild_consensus();
}

int ClientDeanonymizer::position_hsdirs(sim::World& world,
                                        sim::World::ConstServiceRef target) {
  const std::uint32_t period =
      crypto::time_period(world.now(), target.permanent_id());
  if (period == positioned_period_ && !hsdirs_.empty()) return 0;
  positioned_period_ = period;

  const util::UnixTime now = world.now();
  const util::UnixTime aged_start = now - 26 * util::kSecondsPerHour;
  int repositioned = 0;
  std::size_t slot = 0;
  const auto desc_ids =
      crypto::descriptor_ids_for_period(target.permanent_id(), period);
  for (std::uint8_t replica = 0; replica < crypto::kNumReplicas; ++replica) {
    const auto& desc_id = desc_ids[replica];
    for (int k = 0; k < config_.hsdirs_per_replica; ++k) {
      auto ground = grind_key_after(desc_id, config_.grind_ring_fraction *
                                                 static_cast<double>(k + 1),
                                    world.rng());
      if (!ground) continue;
      if (slot < hsdirs_.size()) {
        // Fingerprint-switch the standing relay onto the new key (what
        // real trackers did every day as the descriptor ID rotated).
        world.registry()
            .get(hsdirs_[slot])
            .install_identity(std::move(ground->key), now);
      } else {
        relay::RelayConfig rc;
        rc.nickname = "dirwatch" + std::to_string(slot);
        rc.address = util::Ipv4::random_public(world.rng());
        rc.bandwidth_kbps = 900.0;
        const relay::RelayId id = world.registry().create_with_key(
            rc, std::move(ground->key), aged_start);
        world.registry().get(id).set_online(true, aged_start);
        world.set_churn_exempt(id, true);
        world.directories().store_for(id).enable_logging(true);
        hsdirs_.push_back(id);
      }
      ++slot;
      ++repositioned;
    }
  }
  world.rebuild_consensus();
  return repositioned;
}

std::optional<util::Ipv4> ClientDeanonymizer::observe_publish(
    const sim::PublishRecord& record, const util::Ipv4& service_address,
    util::Rng& rng) {
  ++report_.publishes_observed;

  std::vector<std::uint32_t> hops;
  if (record.guard != relay::kInvalidRelayId) hops.push_back(record.guard);
  if (record.hsdir != relay::kInvalidRelayId) hops.push_back(record.hsdir);
  if (hops.empty()) return std::nullopt;
  net::Circuit circuit(hops);
  circuit.transmit_pattern(background_trace(rng, 12));

  const bool injected = is_our_hsdir(record.hsdir);
  if (injected) circuit.transmit_pattern(signature_.pattern());

  if (record.guard == relay::kInvalidRelayId || !is_our_guard(record.guard))
    return std::nullopt;
  const net::CellTrace* trace = circuit.observed_by(record.guard);
  if (trace == nullptr || !signature_.detect(*trace, config_.detect_jitter))
    return std::nullopt;
  if (!injected) {
    ++report_.false_positives;
    return std::nullopt;
  }
  ++report_.service_deanonymized;
  report_.service_addresses.insert(service_address.value());
  return service_address;
}

bool ClientDeanonymizer::is_our_guard(relay::RelayId id) const {
  return std::find(guards_.begin(), guards_.end(), id) != guards_.end();
}

bool ClientDeanonymizer::is_our_hsdir(relay::RelayId id) const {
  return std::find(hsdirs_.begin(), hsdirs_.end(), id) != hsdirs_.end();
}

std::optional<util::Ipv4> ClientDeanonymizer::observe_fetch(
    const hs::FetchOutcome& outcome, util::Rng& rng) {
  ++report_.fetches_observed;

  // Reconstruct the fetch circuit (client guard -> middle -> HSDir) and
  // push the request/response traffic through it cell by cell.
  std::vector<std::uint32_t> hops;
  if (outcome.guard != relay::kInvalidRelayId) hops.push_back(outcome.guard);
  if (outcome.middle != relay::kInvalidRelayId) hops.push_back(outcome.middle);
  if (outcome.hsdir != relay::kInvalidRelayId) hops.push_back(outcome.hsdir);
  if (hops.empty()) return std::nullopt;
  net::Circuit circuit(hops);
  circuit.transmit_pattern(background_trace(rng, 30));

  const bool injected = is_our_hsdir(outcome.hsdir);
  if (injected) {
    // The malicious directory wraps its response in the signature.
    circuit.transmit_pattern(signature_.pattern());
    ++report_.signatures_injected;
  }

  if (outcome.guard == relay::kInvalidRelayId ||
      !is_our_guard(outcome.guard))
    return std::nullopt;
  ++report_.through_our_guard;

  const net::CellTrace* trace = circuit.observed_by(outcome.guard);
  if (trace == nullptr) return std::nullopt;
  if (!signature_.detect(*trace, config_.detect_jitter)) return std::nullopt;
  if (!injected) {
    // Pattern matched pure background noise.
    ++report_.false_positives;
    return std::nullopt;
  }
  ++report_.deanonymized;
  report_.client_addresses.insert(outcome.client_address.value());
  return outcome.client_address;
}

}  // namespace torsim::attack
