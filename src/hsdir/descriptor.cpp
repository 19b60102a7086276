#include "hsdir/descriptor.hpp"

namespace torsim::hsdir {

std::string Descriptor::onion_address() const {
  return crypto::onion_address_from_public_key(service_public_key);
}

Descriptor make_descriptor(const crypto::KeyPair& key,
                           std::vector<crypto::Fingerprint> intro_points,
                           std::uint8_t replica, util::UnixTime now,
                           std::span<const std::uint8_t> cookie) {
  Descriptor d;
  d.permanent_id = crypto::permanent_id_from_fingerprint(key.fingerprint());
  d.time_period = crypto::time_period(now, d.permanent_id);
  d.descriptor_id =
      crypto::descriptor_id(d.permanent_id, d.time_period, replica, cookie);
  d.service_public_key = key.public_bytes();
  d.introduction_points = std::move(intro_points);
  d.replica = replica;
  d.published = now;
  return d;
}

}  // namespace torsim::hsdir
