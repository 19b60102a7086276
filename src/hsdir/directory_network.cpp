#include "hsdir/directory_network.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "dirauth/ring_cache.hpp"
#include "util/parallel.hpp"

namespace torsim::hsdir {

void DirectoryNetwork::add_stores_through(relay::RelayId id) {
  if (id == relay::kInvalidRelayId)
    throw std::out_of_range("DirectoryNetwork: invalid relay id");
  while (stores_.size() <= id) stores_.emplace_back(keys_);
  if (run_ends_.size() < stores_.size()) run_ends_.resize(stores_.size());
}

void DirectoryNetwork::require_applied() const {
  if (!uploads_.empty())
    throw std::logic_error(
        "DirectoryNetwork: stores read while uploads are queued");
}

DescriptorStore& DirectoryNetwork::store_for(relay::RelayId id) {
  apply_uploads();
  add_stores_through(id);
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
  std::size_t copies = 0;
  for (const dirauth::ResponsibleSet& set : responsible) copies += set.count;
  receivers.reserve(copies);
  std::int64_t stored = 0;
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    const Descriptor& d = descriptors[i];
    const auto record = static_cast<std::uint32_t>(queued_.size());
    queued_.push_back(DescriptorStore::to_record(d, key));
    // The directories that index this replica late share one copy of
    // its record, carrying the later visible_after.
    std::optional<std::uint32_t> delayed_record;
    const std::uint64_t descriptor_key = fault::FaultInjector::key_of(
        d.descriptor_id.data(), d.descriptor_id.size());
    for (std::uint8_t k = 0; k < responsible[i].count; ++k) {
      const dirauth::ConsensusEntry* e = responsible[i].dirs[k];
      std::uint32_t upload_record = record;
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
          if (!delayed_record) {
            delayed_record = static_cast<std::uint32_t>(queued_.size());
            DescriptorStore::Record late = queued_[record];
            late.visible_after = d.published + injector_->plan().publish_delay;
            queued_.push_back(late);
          }
          upload_record = *delayed_record;
          failure_log_.push_back({fault::FailureKind::kPublishDelayed,
                                  descriptor_key, e->relay, attempt});
        }
      }
      add_stores_through(e->relay);
      if (run_ends_[e->relay]++ == 0) receiving_.push_back(e->relay);
      uploads_.push_back(
          {crypto::prefix64(d.descriptor_id), e->relay, upload_record, 0});
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

void DirectoryNetwork::apply_uploads(int threads) {
  if (uploads_.size() == receiving_.size()) {
    // One upload per store (a single publish, as a rule): no run to
    // merge, so each is put on this thread.
    for (const QueuedUpload& upload : uploads_) {
      stores_[upload.directory].put(queued_[upload.record]);
      run_ends_[upload.directory] = 0;
    }
    receiving_.clear();
    uploads_.clear();
    queued_.clear();
    return;
  }
  // Counting scatter: each receiving store's uploads become one run,
  // in queue order. run_ends_[id] counts them, then becomes the write
  // cursor, and ends as the end of the store's run.
  std::uint32_t offset = 0;
  for (const relay::RelayId id : receiving_) {
    const std::uint32_t count = run_ends_[id];
    run_ends_[id] = offset;
    offset += count;
  }
  grouped_.resize(uploads_.size());
  for (const QueuedUpload& upload : uploads_)
    grouped_[run_ends_[upload.directory]++] = upload;
  const std::span<QueuedUpload> grouped(grouped_);
  const auto run_of = [&](std::size_t run) {
    const std::uint32_t begin =
        run == 0 ? 0 : run_ends_[receiving_[run - 1]];
    return grouped.subspan(begin, run_ends_[receiving_[run]] - begin);
  };

  // Refresh every store; grow each by its new ids, here, so the
  // workers never allocate; then insert the new ids.
  fresh_.resize(receiving_.size());
  // detlint: hot
  util::parallel_for(receiving_.size(), threads, [&](std::size_t run) {
    fresh_[run] = stores_[receiving_[run]].refresh(run_of(run), queued_);
  });
  for (std::size_t run = 0; run < receiving_.size(); ++run)
    if (fresh_[run] != 0) stores_[receiving_[run]].grow(fresh_[run]);
  // detlint: hot
  util::parallel_for(receiving_.size(), threads, [&](std::size_t run) {
    if (fresh_[run] != 0)
      stores_[receiving_[run]].insert_fresh(
          run_of(run).first(fresh_[run]), queued_);
  });

  for (const relay::RelayId id : receiving_) run_ends_[id] = 0;
  receiving_.clear();
  uploads_.clear();
  queued_.clear();
}

std::optional<Descriptor> DirectoryNetwork::fetch_from(
    const dirauth::Consensus& consensus, const crypto::DescriptorId& id,
    util::UnixTime now, relay::RelayId& hsdir_relay, FetchTrace* trace) {
  apply_uploads();
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

void DirectoryNetwork::expire_all(util::UnixTime now, int threads) {
  apply_uploads(threads);
  // detlint: hot
  util::parallel_for(stores_.size(), threads,
                     [&](std::size_t id) { stores_[id].expire(now); });
}

std::size_t DirectoryNetwork::descriptors_stored() const {
  require_applied();
  std::size_t total = 0;
  for (const DescriptorStore& store : stores_) total += store.size();
  return total;
}

}  // namespace torsim::hsdir
