// v2 hidden-service descriptors: what a service publishes to its six
// responsible HSDirs every 24 hours, and what clients fetch by
// descriptor ID.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/keypair.hpp"
#include "util/time.hpp"

namespace torsim::hsdir {

/// A published v2 descriptor. Introduction points are carried as opaque
/// relay fingerprints; our rendezvous model only needs their existence.
struct Descriptor {
  crypto::DescriptorId descriptor_id{};
  crypto::PermanentId permanent_id{};
  std::vector<std::uint8_t> service_public_key;
  std::vector<crypto::Fingerprint> introduction_points;
  std::uint8_t replica = 0;
  std::uint32_t time_period = 0;
  util::UnixTime published = 0;
  /// Simulator-internal (not part of the wire format): a directory that
  /// indexed the upload late serves it only from this time on. 0 means
  /// immediately visible — see fault::FaultPlan::publish_delay_rate.
  util::UnixTime visible_after = 0;

  /// Onion address recoverable from the embedded public key — this is how
  /// the harvesting attack turns collected descriptors into addresses.
  std::string onion_address() const;
};

/// Builds the descriptor a service with `key` publishes for `replica`
/// at time `now`. A non-empty `cookie` produces an authenticated
/// ("stealth") descriptor whose ID cannot be derived from the onion
/// address alone.
Descriptor make_descriptor(const crypto::KeyPair& key,
                           std::vector<crypto::Fingerprint> intro_points,
                           std::uint8_t replica, util::UnixTime now,
                           std::span<const std::uint8_t> cookie = {});

}  // namespace torsim::hsdir
