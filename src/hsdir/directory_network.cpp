#include "hsdir/directory_network.hpp"

#include <algorithm>
#include <stdexcept>

namespace torsim::hsdir {

std::vector<relay::RelayId> DirectoryNetwork::publish(
    const dirauth::Consensus& consensus,
    std::span<const Descriptor> descriptors,
    std::span<const dirauth::ResponsibleSet> responsible) {
  if (responsible.size() != descriptors.size())
    throw std::invalid_argument(
        "DirectoryNetwork::publish: one responsible set per descriptor");
  std::vector<relay::RelayId> receivers;
  std::int64_t stored = 0;
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    const std::uint64_t descriptor_key = fault::FaultInjector::key_of(
        descriptors[i].descriptor_id.data(), descriptors[i].descriptor_id.size());
    for (std::uint8_t k = 0; k < responsible[i].count; ++k) {
      const dirauth::ConsensusEntry* e = responsible[i].dirs[k];
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
        Descriptor copy = descriptors[i];
        if (injector_->publish_delayed(descriptor_key, e->relay)) {
          copy.visible_after = copy.published + injector_->plan().publish_delay;
          failure_log_.push_back({fault::FailureKind::kPublishDelayed,
                                  descriptor_key, e->relay, attempt});
        }
        DescriptorStore& target = store_for(e->relay);
        target.observe_epoch(consensus.generation());
        target.store(copy);
        receivers.push_back(e->relay);
        ++stored;
        continue;
      }
      // Each touched store learns the publish round's consensus
      // generation — its cue to compact dead arena spans (store.hpp).
      DescriptorStore& target = store_for(e->relay);
      target.observe_epoch(consensus.generation());
      target.store(descriptors[i]);
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
  const dirauth::ResponsibleSet& responsible =
      ring_cache_.responsible(consensus, id);
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
    auto result = store_for(e->relay).fetch(id, now);
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
  for (auto& [id, store] : stores_) store.expire(now);
}

}  // namespace torsim::hsdir
