#include "hsdir/store.hpp"

#include <algorithm>
#include <stdexcept>

namespace torsim::hsdir {

namespace {

template <typename Records>
auto lower_bound_id(Records& records, const crypto::DescriptorId& id) {
  return std::lower_bound(
      records.begin(), records.end(), id,
      [](const auto& r, const crypto::DescriptorId& key) {
        return r.descriptor_id < key;
      });
}

}  // namespace

void DescriptorStore::store(const Descriptor& descriptor, KeyTable::Handle key,
                            util::UnixTime visible_after) {
  if (!keys_->contains(key))
    throw std::out_of_range("DescriptorStore::store: unknown key handle");
  const std::size_t intro_count = descriptor.introduction_points.size();
  if (intro_count > kMaxIntroPoints)
    throw std::invalid_argument(
        "DescriptorStore::store: more than kMaxIntroPoints introduction "
        "points");
  Record r;
  r.descriptor_id = descriptor.descriptor_id;
  r.permanent_id = descriptor.permanent_id;
  r.replica = descriptor.replica;
  r.intro_count = static_cast<std::uint8_t>(intro_count);
  r.time_period = descriptor.time_period;
  r.key = key;
  r.published = descriptor.published;
  r.visible_after = visible_after;
  std::copy_n(descriptor.introduction_points.begin(), intro_count,
              r.introduction_points.begin());

  if (records_.empty() || r.published < oldest_published_)
    oldest_published_ = r.published;
  const auto it = lower_bound_id(records_, r.descriptor_id);
  if (it != records_.end() && it->descriptor_id == r.descriptor_id)
    *it = r;
  else
    records_.insert(it, r);
}

const DescriptorStore::Record* DescriptorStore::find(
    const crypto::DescriptorId& id) const {
  const auto it = lower_bound_id(records_, id);
  return it != records_.end() && it->descriptor_id == id ? &*it : nullptr;
}

std::optional<Descriptor> DescriptorStore::fetch(
    const crypto::DescriptorId& id, util::UnixTime now) {
  const Record* r = find(id);
  const bool found = r != nullptr && visible(*r, now);
  if (logging_) fetch_log_.push_back({id, now, found});
  if (!found) return std::nullopt;
  Descriptor d;
  d.descriptor_id = id;
  d.permanent_id = r->permanent_id;
  const std::span<const std::uint8_t> key = keys_->bytes(r->key);
  d.service_public_key.assign(key.begin(), key.end());
  d.introduction_points.assign(
      r->introduction_points.begin(),
      r->introduction_points.begin() + r->intro_count);
  d.replica = r->replica;
  d.time_period = r->time_period;
  d.published = r->published;
  d.visible_after = r->visible_after;
  return d;
}

bool DescriptorStore::contains(const crypto::DescriptorId& id,
                               util::UnixTime now) const {
  const Record* r = find(id);
  return r != nullptr && visible(*r, now);
}

void DescriptorStore::expire(util::UnixTime now) {
  if (records_.empty() || now - oldest_published_ <= kDescriptorLifetime)
    return;
  std::erase_if(records_, [&](const Record& r) {
    return now - r.published > kDescriptorLifetime;
  });
  util::UnixTime oldest = now;
  for (const Record& r : records_) oldest = std::min(oldest, r.published);
  oldest_published_ = oldest;
}

}  // namespace torsim::hsdir
