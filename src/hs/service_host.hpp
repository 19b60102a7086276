// The operator side of a hidden service: keeps the identity keypair,
// picks introduction points, and (re)publishes v2 descriptors to the six
// responsible HSDirs as time periods roll over.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "dirauth/consensus.hpp"
#include "util/ipv4.hpp"
#include "hs/guard_manager.hpp"
#include "hsdir/directory_network.hpp"
#include "util/rng.hpp"

namespace torsim::hs {

/// One descriptor upload: which directory received it and which entry
/// guard fronted the upload circuit — the two vantage points of the
/// original S&P'13 *service* deanonymisation.
struct PublishRecord {
  relay::RelayId hsdir = relay::kInvalidRelayId;
  relay::RelayId guard = relay::kInvalidRelayId;
};

class ServiceHost {
 public:
  /// Creates a service with a fresh identity.
  ServiceHost(crypto::KeyPair key, util::UnixTime created);

  static ServiceHost create(util::Rng& rng, util::UnixTime now);

  /// The operator machine's IP address — ground truth, observable only
  /// by the first hop of the service's own circuits.
  const util::Ipv4& address() const { return address_; }
  void set_address(util::Ipv4 address) { address_ = address; }

  const crypto::KeyPair& key() const { return key_; }
  const crypto::PermanentId& permanent_id() const { return permanent_id_; }
  std::string onion_address() const;

  bool online() const { return online_; }
  void set_online(bool online) { online_ = online; }

  /// Publishes the descriptors for the current time period if they have
  /// not been published yet, if the responsible HSDir set changed since
  /// the last upload (Tor re-uploads when the ring shifts under it —
  /// this is what lets a shadow relay that just became active collect
  /// descriptors mid-period), or if `force` is set. Introduction points
  /// are sampled from Fast relays in the consensus. Returns the relay
  /// ids that received copies (empty if nothing was published).
  std::vector<relay::RelayId> maybe_publish(
      const dirauth::Consensus& consensus, hsdir::DirectoryNetwork& dirnet,
      util::Rng& rng, util::UnixTime now, bool force = false);

  /// Current descriptor IDs (replica 0 and 1) at time `now`. Served
  /// from the ids maybe_publish keeps for its current period when `now`
  /// falls in it; derived otherwise. Never writes the cached ids, so
  /// views may call it concurrently between publishes.
  std::vector<crypto::DescriptorId> current_descriptor_ids(
      util::UnixTime now) const;

  /// Turns this into an authenticated ("stealth") service: descriptors
  /// are published under cookie-mixed IDs, so only clients holding the
  /// cookie can derive where to fetch them. Call before first publish
  /// (or force a republish afterwards).
  void set_descriptor_cookie(std::vector<std::uint8_t> cookie) {
    descriptor_cookie_ = std::move(cookie);
    ids_valid_ = false;
  }
  const std::vector<std::uint8_t>& descriptor_cookie() const {
    return descriptor_cookie_;
  }

  /// Time period of the most recent publication (0 if never).
  std::uint32_t last_published_period() const { return last_period_; }

  /// The service's own entry guards — hidden services build circuits
  /// through guards exactly like clients do (which is what the original
  /// S&P'13 deanonymisation attacked). maintain_guards() refreshes the
  /// set against the consensus.
  GuardManager& guards() { return guard_manager_; }
  const GuardManager& guards() const { return guard_manager_; }
  void maintain_guards(const dirauth::Consensus& consensus, util::Rng& rng,
                       util::UnixTime now) {
    guard_manager_.maintain(consensus, rng, now);
  }

  /// Introduction points from the most recent publication (empty before
  /// the first publish).
  const std::vector<crypto::Fingerprint>& introduction_points() const {
    return intro_points_;
  }

  /// Per-HSDir upload circuits of the most recent publication.
  const std::vector<PublishRecord>& last_publish_records() const {
    return publish_records_;
  }

  /// Responsible directories the most recent publication failed to
  /// reach even after the directory network's bounded upload retries
  /// (0 without fault injection). The typed records live in
  /// DirectoryNetwork::failure_log() as kPublishLost.
  int last_publish_lost() const { return last_publish_lost_; }

 private:
  /// Both replicas' descriptor ids for `period`, derived only when the
  /// period (or the cookie) changed since the last call.
  const std::array<crypto::DescriptorId, crypto::kNumReplicas>&
  descriptor_ids(std::uint32_t period);

  crypto::KeyPair key_;
  crypto::PermanentId permanent_id_;
  util::UnixTime created_;
  bool online_ = true;
  std::uint32_t last_period_ = 0;
  bool published_once_ = false;
  int last_publish_lost_ = 0;
  std::vector<crypto::Fingerprint> last_responsible_;
  std::vector<crypto::Fingerprint> intro_points_;
  std::vector<std::uint8_t> descriptor_cookie_;
  // Descriptor ids of ids_period_ under the current cookie; filled by
  // descriptor_ids(), cleared by set_descriptor_cookie().
  bool ids_valid_ = false;
  std::uint32_t ids_period_ = 0;
  std::array<crypto::DescriptorId, crypto::kNumReplicas> ids_{};
  std::vector<PublishRecord> publish_records_;
  util::Ipv4 address_;
  GuardManager guard_manager_;
};

}  // namespace torsim::hs
