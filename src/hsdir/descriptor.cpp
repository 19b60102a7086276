#include "hsdir/descriptor.hpp"

namespace torsim::hsdir {

std::string Descriptor::onion_address() const {
  return crypto::onion_address_from_public_key(service_public_key);
}

Descriptor make_descriptor(const crypto::KeyPair& key,
                           std::vector<crypto::Fingerprint> intro_points,
                           std::uint8_t replica, util::UnixTime now,
                           std::span<const std::uint8_t> cookie) {
  const auto permanent_id =
      crypto::permanent_id_from_fingerprint(key.fingerprint());
  const std::uint32_t period = crypto::time_period(now, permanent_id);
  return make_descriptor(
      key, permanent_id, period,
      crypto::descriptor_id(permanent_id, period, replica, cookie),
      std::move(intro_points), replica, now);
}

Descriptor make_descriptor(const crypto::KeyPair& key,
                           const crypto::PermanentId& permanent_id,
                           std::uint32_t time_period,
                           const crypto::DescriptorId& descriptor_id,
                           std::vector<crypto::Fingerprint> intro_points,
                           std::uint8_t replica, util::UnixTime now) {
  Descriptor d;
  d.descriptor_id = descriptor_id;
  d.permanent_id = permanent_id;
  d.service_public_key = key.public_bytes();
  d.introduction_points = std::move(intro_points);
  d.replica = replica;
  d.time_period = time_period;
  d.published = now;
  return d;
}

}  // namespace torsim::hsdir
