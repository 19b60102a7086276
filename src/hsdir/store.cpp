#include "hsdir/store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace torsim::hsdir {

void DescriptorStore::store(const Descriptor& descriptor) {
  StoredDescriptor s;
  s.permanent_id = descriptor.permanent_id;
  s.replica = descriptor.replica;
  s.time_period = descriptor.time_period;
  s.published = descriptor.published;
  s.visible_after = descriptor.visible_after;
  s.key_size = static_cast<std::uint32_t>(descriptor.service_public_key.size());
  s.key_offset = arena_.append(descriptor.service_public_key.data(),
                               descriptor.service_public_key.size());
  s.intro_count =
      static_cast<std::uint32_t>(descriptor.introduction_points.size());
  s.intro_offset = arena_.append(
      descriptor.introduction_points.data(),
      descriptor.introduction_points.size() * sizeof(crypto::Fingerprint));

  if (descriptors_.empty() || s.published < oldest_published_)
    oldest_published_ = s.published;
  // A refresh orphans the old payload span (the append above is the new
  // one); the old bytes stay dead in the arena until compaction.
  const auto it = descriptors_.find(descriptor.descriptor_id);
  if (it != descriptors_.end()) {
    live_payload_bytes_ -= payload_bytes(it->second);
    it->second = s;
  } else {
    descriptors_.emplace(descriptor.descriptor_id, s);
  }
  live_payload_bytes_ += payload_bytes(s);
}

Descriptor DescriptorStore::materialize(const crypto::DescriptorId& id,
                                        const StoredDescriptor& s) const {
  Descriptor d;
  d.descriptor_id = id;
  d.permanent_id = s.permanent_id;
  d.replica = s.replica;
  d.time_period = s.time_period;
  d.published = s.published;
  d.visible_after = s.visible_after;
  // memcpy with an empty vector's null data() is undefined even for
  // zero bytes, so empty payloads are skipped.
  d.service_public_key.resize(s.key_size);
  if (s.key_size != 0)
    std::memcpy(d.service_public_key.data(), arena_.at(s.key_offset),
                s.key_size);
  d.introduction_points.resize(s.intro_count);
  if (s.intro_count != 0)
    std::memcpy(d.introduction_points.data(), arena_.at(s.intro_offset),
                s.intro_count * sizeof(crypto::Fingerprint));
  return d;
}

std::optional<Descriptor> DescriptorStore::fetch(
    const crypto::DescriptorId& id, util::UnixTime now) {
  const auto it = descriptors_.find(id);
  const bool found =
      it != descriptors_.end() &&
      now - it->second.published <= kDescriptorLifetime &&
      now >= it->second.visible_after;
  if (logging_) fetch_log_.push_back({id, now, found});
  if (!found) return std::nullopt;
  return materialize(id, it->second);
}

bool DescriptorStore::contains(const crypto::DescriptorId& id,
                               util::UnixTime now) const {
  const auto it = descriptors_.find(id);
  return it != descriptors_.end() &&
         now - it->second.published <= kDescriptorLifetime &&
         now >= it->second.visible_after;
}

void DescriptorStore::expire(util::UnixTime now) {
  if (descriptors_.empty() || now - oldest_published_ <= kDescriptorLifetime)
    return;
  util::UnixTime oldest = now;
  for (auto it = descriptors_.begin(); it != descriptors_.end();) {
    if (now - it->second.published > kDescriptorLifetime) {
      live_payload_bytes_ -= payload_bytes(it->second);
      it = descriptors_.erase(it);
    } else {
      oldest = std::min(oldest, it->second.published);
      ++it;
    }
  }
  oldest_published_ = oldest;
}

void DescriptorStore::observe_epoch(std::uint64_t generation) {
  if (generation == epoch_) return;
  epoch_ = generation;
  // Compact only when the dead share dominates: arena > 2x live means
  // more than half the bytes are orphaned re-publish/expiry leftovers.
  if (arena_.bytes_used() > 2 * live_payload_bytes_) compact();
}

void DescriptorStore::compact() {
  util::ByteArena fresh;
  fresh.reserve(live_payload_bytes_);
  for (auto& [id, s] : descriptors_) {
    s.key_offset = fresh.append(arena_.at(s.key_offset), s.key_size);
    s.intro_offset = fresh.append(
        arena_.at(s.intro_offset),
        s.intro_count * sizeof(crypto::Fingerprint));
  }
  arena_.swap(fresh);
  ++compactions_;
}

}  // namespace torsim::hsdir
