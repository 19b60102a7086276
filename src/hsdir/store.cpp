#include "hsdir/store.hpp"

#include <algorithm>
#include <stdexcept>

namespace torsim::hsdir {

namespace {

// a < b, decided on the 8-byte prefixes and on the full ids only when
// those tie.
bool id_below(const crypto::DescriptorId& a, const crypto::DescriptorId& b) {
  const std::uint64_t pa = crypto::prefix64(a);
  const std::uint64_t pb = crypto::prefix64(b);
  return pa != pb ? pa < pb : a < b;
}

template <typename It>
It lower_bound_id(It first, It last, const crypto::DescriptorId& id) {
  return std::lower_bound(first, last, id,
                          [](const auto& r, const crypto::DescriptorId& key) {
                            return id_below(r.descriptor_id, key);
                          });
}

}  // namespace

DescriptorStore::Record DescriptorStore::to_record(
    const Descriptor& descriptor, KeyTable::Handle key) {
  const std::size_t intro_count = descriptor.introduction_points.size();
  Record r;
  r.descriptor_id = descriptor.descriptor_id;
  r.permanent_id = descriptor.permanent_id;
  r.replica = descriptor.replica;
  r.intro_count = static_cast<std::uint8_t>(intro_count);
  r.time_period = descriptor.time_period;
  r.key = key;
  r.published = descriptor.published;
  r.visible_after = descriptor.visible_after;
  std::copy_n(descriptor.introduction_points.begin(), intro_count,
              r.introduction_points.begin());
  return r;
}

void DescriptorStore::store(const Descriptor& descriptor,
                            KeyTable::Handle key) {
  if (!keys_->contains(key))
    throw std::out_of_range("DescriptorStore::store: unknown key handle");
  if (descriptor.introduction_points.size() > kMaxIntroPoints)
    throw std::invalid_argument(
        "DescriptorStore::store: more than kMaxIntroPoints introduction "
        "points");
  put(to_record(descriptor, key));
}

void DescriptorStore::put(const Record& record) {
  if (records_.empty() || record.published < oldest_published_)
    oldest_published_ = record.published;
  const auto it =
      lower_bound_id(records_.begin(), records_.end(), record.descriptor_id);
  if (it != records_.end() && it->descriptor_id == record.descriptor_id)
    *it = record;
  else
    records_.insert(it, record);
}

// detlint: hot
std::size_t DescriptorStore::refresh(std::span<QueuedUpload> run,
                                     std::span<const Record> queued) {
  const auto id_of = [queued](const QueuedUpload& u) -> const auto& {
    return queued[u.record].descriptor_id;
  };
  // Queue order is record order, so (id, record) puts the last upload
  // of each id last among its equals; only that one is applied.
  std::sort(run.begin(), run.end(),
            [&](const QueuedUpload& a, const QueuedUpload& b) {
              if (a.id_prefix != b.id_prefix) return a.id_prefix < b.id_prefix;
              const auto order = id_of(a) <=> id_of(b);
              return order != 0 ? order < 0 : a.record < b.record;
            });
  if (records_.empty() && !run.empty())
    oldest_published_ = queued[run.front().record].published;
  std::size_t fresh = 0;
  auto cursor = records_.begin();
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (i + 1 < run.size() && run[i].id_prefix == run[i + 1].id_prefix &&
        id_of(run[i]) == id_of(run[i + 1]))
      continue;
    const Record& upload = queued[run[i].record];
    oldest_published_ = std::min(oldest_published_, upload.published);
    cursor = lower_bound_id(cursor, records_.end(), upload.descriptor_id);
    if (cursor != records_.end() &&
        cursor->descriptor_id == upload.descriptor_id) {
      *cursor = upload;
      continue;
    }
    run[fresh] = run[i];
    run[fresh++].at = static_cast<std::uint32_t>(cursor - records_.begin());
  }
  return fresh;
}

// detlint: hot
void DescriptorStore::insert_fresh(std::span<const QueuedUpload> fresh,
                                   std::span<const Record> queued) {
  const auto first = records_.begin();
  auto end = records_.end() - static_cast<std::ptrdiff_t>(fresh.size());
  auto out = records_.end();  // one past the next slot to fill
  for (std::size_t i = fresh.size(); i-- > 0;) {
    const auto at = first + fresh[i].at;
    out = std::move_backward(at, end, out);
    *--out = queued[fresh[i].record];
    end = at;
  }
}

const DescriptorStore::Record* DescriptorStore::find(
    const crypto::DescriptorId& id) const {
  const auto it = lower_bound_id(records_.begin(), records_.end(), id);
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
  util::UnixTime oldest = now;
  auto kept = records_.begin();
  for (const Record& r : records_) {
    if (now - r.published > kDescriptorLifetime) continue;
    oldest = std::min(oldest, r.published);
    *kept++ = r;
  }
  records_.erase(kept, records_.end());
  oldest_published_ = oldest;
}

}  // namespace torsim::hsdir
