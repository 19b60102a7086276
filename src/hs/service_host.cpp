#include "hs/service_host.hpp"

#include <algorithm>

namespace torsim::hs {

ServiceHost::ServiceHost(crypto::KeyPair key, util::UnixTime created)
    : key_(std::move(key)),
      permanent_id_(crypto::permanent_id_from_fingerprint(key_.fingerprint())),
      created_(created) {}

ServiceHost ServiceHost::create(util::Rng& rng, util::UnixTime now) {
  ServiceHost host(crypto::KeyPair::generate(rng), now);
  host.set_address(util::Ipv4::random_public(rng));
  return host;
}

std::string ServiceHost::onion_address() const {
  return crypto::onion_address(permanent_id_);
}

namespace {

using ResponsibleSets =
    std::array<dirauth::ResponsibleSet, crypto::kNumReplicas>;

// True when `sets`, flattened replica by replica, lists exactly the
// fingerprints in `fingerprints`.
bool same_directories(const ResponsibleSets& sets,
                      const std::vector<crypto::Fingerprint>& fingerprints) {
  std::size_t k = 0;
  for (const dirauth::ResponsibleSet& set : sets) {
    for (std::uint8_t i = 0; i < set.count; ++i, ++k) {
      if (k >= fingerprints.size() ||
          set.dirs[i]->fingerprint != fingerprints[k])
        return false;
    }
  }
  return k == fingerprints.size();
}

}  // namespace

const std::array<crypto::DescriptorId, crypto::kNumReplicas>&
ServiceHost::descriptor_ids(std::uint32_t period) {
  if (!ids_valid_ || ids_period_ != period) {
    ids_ = crypto::descriptor_ids_for_period(permanent_id_, period,
                                             descriptor_cookie_);
    ids_period_ = period;
    ids_valid_ = true;
  }
  return ids_;
}

std::vector<relay::RelayId> ServiceHost::maybe_publish(
    const dirauth::Consensus& consensus, hsdir::DirectoryNetwork& dirnet,
    util::Rng& rng, util::UnixTime now, bool force) {
  if (!online_) return {};
  const std::uint32_t period = crypto::time_period(now, permanent_id_);
  const auto& ids = descriptor_ids(period);

  // The currently responsible HSDirs for both replicas.
  ResponsibleSets responsible;
  for (std::size_t replica = 0; replica < responsible.size(); ++replica) {
    dirauth::ResponsibleSet& set = responsible[replica];
    set.count = static_cast<std::uint8_t>(consensus.responsible_hsdirs_into(
        ids[replica], set.dirs.data(), set.dirs.size()));
  }
  const bool ring_shifted = !same_directories(responsible, last_responsible_);
  if (published_once_ && period == last_period_ && !ring_shifted && !force)
    return {};

  // Sample up to 3 introduction points among Fast relays.
  intro_points_.clear();
  const auto& fast = consensus.fast_indices();
  if (!fast.empty()) {
    for (int i = 0; i < 3; ++i)
      intro_points_.push_back(
          consensus.entries()[fast[rng.index(fast.size())]].fingerprint);
  }

  std::array<hsdir::Descriptor, crypto::kNumReplicas> descriptors;
  for (std::size_t replica = 0; replica < descriptors.size(); ++replica)
    descriptors[replica] = hsdir::make_descriptor(
        key_, permanent_id_, period, ids[replica], intro_points_,
        static_cast<std::uint8_t>(replica), now);

  last_period_ = period;
  published_once_ = true;
  last_responsible_.clear();
  std::vector<relay::RelayId> responsible_relays;
  for (const dirauth::ResponsibleSet& set : responsible) {
    for (std::uint8_t i = 0; i < set.count; ++i) {
      last_responsible_.push_back(set.dirs[i]->fingerprint);
      responsible_relays.push_back(set.dirs[i]->relay);
    }
  }
  const auto receivers = dirnet.publish(descriptors, responsible);

  // Typed outcome: directories the upload never reached despite the
  // network's bounded retries (receivers is deduplicated, so compare
  // against the deduplicated responsible set).
  std::sort(responsible_relays.begin(), responsible_relays.end());
  responsible_relays.erase(
      std::unique(responsible_relays.begin(), responsible_relays.end()),
      responsible_relays.end());
  last_publish_lost_ =
      static_cast<int>(responsible_relays.size() - receivers.size());

  // Each upload rides its own guard-fronted circuit (when the service
  // maintains guards; a guard-less service uploads unprotected, which is
  // what made the original attack so effective against default setups).
  publish_records_.clear();
  for (const relay::RelayId hsdir : receivers) {
    PublishRecord record;
    record.hsdir = hsdir;
    if (const auto guard = guard_manager_.pick(consensus, rng))
      record.guard = guard->relay;
    publish_records_.push_back(record);
  }
  return receivers;
}

std::vector<crypto::DescriptorId> ServiceHost::current_descriptor_ids(
    util::UnixTime now) const {
  const std::uint32_t period = crypto::time_period(now, permanent_id_);
  if (ids_valid_ && ids_period_ == period) return {ids_.begin(), ids_.end()};
  const auto replica_ids = crypto::descriptor_ids_for_period(
      permanent_id_, period, descriptor_cookie_);
  return {replica_ids.begin(), replica_ids.end()};
}

}  // namespace torsim::hs
