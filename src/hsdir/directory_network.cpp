#include "hsdir/directory_network.hpp"

#include <algorithm>
#include <stdexcept>

#include "dirauth/ring_cache.hpp"

namespace torsim::hsdir {

DescriptorStore& DirectoryNetwork::store_for(relay::RelayId id) {
  if (id == relay::kInvalidRelayId)
    throw std::out_of_range("DirectoryNetwork::store_for: invalid relay id");
  while (stores_.size() <= id) stores_.emplace_back(keys_);
  return stores_[id];
}

std::vector<relay::RelayId> DirectoryNetwork::publish(
    KeyTable::Handle key, std::span<const Descriptor> descriptors,
    std::span<const dirauth::ResponsibleSet> responsible) {
  if (!keys_.contains(key))
    throw std::out_of_range("DirectoryNetwork::publish: unknown key handle");
  if (responsible.size() != descriptors.size())
    throw std::invalid_argument(
        "DirectoryNetwork::publish: one responsible set per descriptor");
  for (const Descriptor& d : descriptors)
    if (d.introduction_points.size() > kMaxIntroPoints)
      throw std::invalid_argument(
          "DirectoryNetwork::publish: more than kMaxIntroPoints "
          "introduction points");
  std::vector<relay::RelayId> receivers;
  std::int64_t stored = 0;
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    const Descriptor& d = descriptors[i];
    const std::uint64_t descriptor_key = fault::FaultInjector::key_of(
        d.descriptor_id.data(), d.descriptor_id.size());
    for (std::uint8_t k = 0; k < responsible[i].count; ++k) {
      const dirauth::ConsensusEntry* e = responsible[i].dirs[k];
      util::UnixTime visible_after = d.visible_after;
      if (injector_ != nullptr && injector_->enabled()) {
        // Bounded per-directory retry: an upload lost in transit is
        // re-sent up to max_attempts times; a directory that drops all
        // of them simply never receives this replica (typed, not
        // silent).
        const int max_attempts = injector_->retry().max_attempts;
        int attempt = 1;
        bool delivered = false;
        for (; attempt <= max_attempts; ++attempt) {
          if (!injector_->publish_lost(descriptor_key, e->relay, attempt)) {
            delivered = true;
            break;
          }
        }
        if (!delivered) {
          failure_log_.push_back({fault::FailureKind::kPublishLost,
                                  descriptor_key, e->relay, max_attempts});
          continue;
        }
        if (injector_->publish_delayed(descriptor_key, e->relay)) {
          visible_after = d.published + injector_->plan().publish_delay;
          failure_log_.push_back({fault::FailureKind::kPublishDelayed,
                                  descriptor_key, e->relay, attempt});
        }
      }
      store_for(e->relay).store(d, key, visible_after);
      receivers.push_back(e->relay);
      ++stored;
    }
  }
  std::sort(receivers.begin(), receivers.end());
  receivers.erase(std::unique(receivers.begin(), receivers.end()),
                  receivers.end());
  if (config_.metrics != nullptr) {
    config_.metrics->counter("hsdir.publishes")
        .inc(static_cast<std::int64_t>(descriptors.size()));
    config_.metrics->counter("hsdir.replica_stores").inc(stored);
  }
  return receivers;
}

std::optional<Descriptor> DirectoryNetwork::fetch_from(
    const dirauth::Consensus& consensus, const crypto::DescriptorId& id,
    util::UnixTime now, relay::RelayId& hsdir_relay, FetchTrace* trace) {
  hsdir_relay = relay::kInvalidRelayId;
  // fetch_attempts counts requests (one per call); fetch_probes counts
  // the per-directory contacts one request fans out into — including
  // directories that never answer, since the client still spent a
  // circuit on them.
  if (config_.metrics != nullptr)
    config_.metrics->counter("hsdir.fetch_attempts").inc();
  dirauth::ResponsibleSet responsible;
  responsible.count =
      static_cast<std::uint8_t>(consensus.responsible_hsdirs_into(
          id, responsible.dirs.data(), responsible.dirs.size()));
  dirauth::ResponsibleSetCache::count_walk();
  for (std::uint8_t k = 0; k < responsible.count; ++k) {
    const dirauth::ConsensusEntry* e = responsible.dirs[k];
    if (config_.metrics != nullptr)
      config_.metrics->counter("hsdir.fetch_probes").inc();
    if (injector_ != nullptr && injector_->hsdir_unresponsive(e->relay, now)) {
      // The directory is inside an outage window: the request circuit
      // gets no answer, the client moves on to the next responsible
      // dir. Logged typed; not recorded in the store's own fetch log
      // (an unresponsive dir logs nothing, which is exactly why the
      // paper's measuring HSDirs undercount during outages).
      if (trace != nullptr) ++trace->dirs_unresponsive;
      failure_log_.push_back(
          {fault::FailureKind::kHsdirUnresponsive,
           fault::FaultInjector::key_of(id.data(), id.size()), e->relay, 1});
      continue;
    }
    if (trace != nullptr) ++trace->dirs_tried;
    hsdir_relay = e->relay;
    DescriptorStore* store = find_store(e->relay);
    auto result = store != nullptr ? store->fetch(id, now) : std::nullopt;
    if (result) {
      if (config_.metrics != nullptr)
        config_.metrics->counter("hsdir.fetch_hits").inc();
      return result;
    }
  }
  if (config_.metrics != nullptr)
    config_.metrics->counter("hsdir.fetch_misses").inc();
  return std::nullopt;
}

void DirectoryNetwork::expire_all(util::UnixTime now) {
  for (DescriptorStore& store : stores_) store.expire(now);
}

std::size_t DirectoryNetwork::descriptors_stored() const {
  std::size_t total = 0;
  for (const DescriptorStore& store : stores_) total += store.size();
  return total;
}

}  // namespace torsim::hsdir
