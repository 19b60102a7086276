// The distributed descriptor directory: one DescriptorStore per relay,
// in a vector indexed by simulator relay id (ids are dense, see
// relay::Registry::create), and one append-only KeyTable all stores
// share. Publish/fetch route via the consensus ring. Publish queues its
// uploads; apply_uploads merges them into the stores, fanned out over
// the receiving stores (docs/concurrency.md).
#pragma once

#include <span>
#include <vector>

#include "dirauth/consensus.hpp"
#include "fault/injector.hpp"
#include "hsdir/store.hpp"
#include "obs/metrics.hpp"

namespace torsim::hsdir {

struct DirectoryNetworkConfig {
  /// Optional metrics sink ("hsdir.*" counters). Publish and fetch run
  /// in serial sections, so plain counters stay deterministic. Must
  /// outlive the network. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one fetch_from() walk over the responsible set observed —
/// callers (hs::Client) use it to decide whether a miss is retryable
/// (directories were down) or definitive (nobody holds the id).
struct FetchTrace {
  int dirs_tried = 0;
  int dirs_unresponsive = 0;
};

class DirectoryNetwork {
 public:
  DirectoryNetwork() = default;
  explicit DirectoryNetwork(DirectoryNetworkConfig config)
      : config_(config) {}
  // The stores point at keys_.
  DirectoryNetwork(const DirectoryNetwork&) = delete;
  DirectoryNetwork& operator=(const DirectoryNetwork&) = delete;

  /// The store operated by relay `id` (created on first use), after
  /// applying any queued uploads. Throws std::out_of_range for
  /// relay::kInvalidRelayId.
  DescriptorStore& store_for(relay::RelayId id);

  /// The store operated by relay `id` (empty if it never received a
  /// descriptor), or nullptr when neither store_for nor publish ever
  /// reached `id`. Never creates a store. The mutable form applies any
  /// queued uploads first; the const form never writes and throws
  /// std::logic_error while uploads are queued.
  const DescriptorStore* find_store(relay::RelayId id) const {
    require_applied();
    return id < stores_.size() ? &stores_[id] : nullptr;
  }
  DescriptorStore* find_store(relay::RelayId id) {
    apply_uploads();
    return id < stores_.size() ? &stores_[id] : nullptr;
  }

  /// Appends a service public key to the shared key table and returns
  /// its handle, the name publish() takes for it (sim::World adds each
  /// service's key once, at add_service).
  KeyTable::Handle add_key(std::span<const std::uint8_t> key) {
    return keys_.add(key);
  }
  const KeyTable& keys() const { return keys_; }

  /// Installs (or clears) the fault injector consulted by publish and
  /// fetch paths. The injector must outlive this network; sim::World
  /// owns both. No injector = the exact legacy behaviour.
  void set_fault_injector(const fault::FaultInjector* injector) {
    injector_ = injector;
  }
  const fault::FaultInjector* fault_injector() const { return injector_; }

  /// Publishes one service's replicas: descriptors[i] goes to the
  /// directories of responsible[i], the responsible set of its
  /// descriptor id that the caller already walked under the current
  /// consensus (sim::World needs that walk anyway to decide whether to
  /// republish). Every copy names the service key by `key`, a handle
  /// from add_key(); the descriptors' service_public_key is not read.
  /// Throws, storing nothing, std::out_of_range when `key` is not in
  /// the key table, and std::invalid_argument when the two spans
  /// differ in length or a descriptor has more than kMaxIntroPoints
  /// introduction points.
  /// Returns the relay ids that received a copy (with duplicates
  /// removed). Under an active fault plan, each per-directory upload
  /// is retried (bounded, exponential backoff) when lost; uploads still
  /// lost after the final attempt are surfaced in failure_log() as
  /// kPublishLost, and delayed uploads are stored but only fetchable
  /// after the delay. Receivers, fault decisions and the failure log
  /// are settled here; the copies themselves are queued, one flat
  /// upload per directory, until apply_uploads (which every mutable
  /// store accessor runs first).
  std::vector<relay::RelayId> publish(
      KeyTable::Handle key, std::span<const Descriptor> descriptors,
      std::span<const dirauth::ResponsibleSet> responsible);

  /// Writes every queued upload into its store, as if each had been
  /// stored on its own in publish order: the last upload of an id to a
  /// store wins. Each receiving store merges its run in two passes
  /// (DescriptorStore::refresh, then insert_fresh), each fanned out
  /// over the receiving stores on up to `threads` threads
  /// (util::resolve_threads); between them the stores grow, on the
  /// calling thread, by exactly their new ids, so the workers never
  /// allocate. When every store receives one upload, each is put on
  /// the calling thread instead. Costs O(uploads + receiving stores)
  /// besides the merges.
  void apply_uploads(int threads = 1);

  /// Uploads queued by publish and not yet applied.
  std::size_t queued_uploads() const { return uploads_.size(); }

  /// Fetches `id` from one responsible HSDir under `consensus`;
  /// `hsdir_relay` receives the id of the directory that answered (or
  /// the last one tried). Tries the responsible set in the given
  /// preference order (already shuffled by the caller if desired).
  /// Directories inside an injected outage window are skipped and
  /// counted in `trace` (when given) so callers can retry. Applies any
  /// queued uploads first.
  std::optional<Descriptor> fetch_from(
      const dirauth::Consensus& consensus, const crypto::DescriptorId& id,
      util::UnixTime now, relay::RelayId& hsdir_relay,
      FetchTrace* trace = nullptr);

  /// Applies any queued uploads, then runs expiry on every store, on
  /// up to `threads` threads.
  void expire_all(util::UnixTime now, int threads = 1);

  /// Descriptors held across all stores. Throws std::logic_error while
  /// uploads are queued.
  std::size_t descriptors_stored() const;

  /// Typed failures observed by publish/fetch since the last clear.
  const fault::FailureLog& failure_log() const { return failure_log_; }
  void clear_failure_log() { failure_log_.clear(); }

 private:
  /// Grows stores_ to cover relay `id`.
  void add_stores_through(relay::RelayId id);
  void require_applied() const;

  DirectoryNetworkConfig config_;
  KeyTable keys_;
  std::vector<DescriptorStore> stores_;  ///< indexed by relay id
  // The upload queue. Its buffers keep their capacity between applies.
  /// One record per replica, and one more per replica that some
  /// directory indexes late.
  std::vector<DescriptorStore::Record> queued_;
  std::vector<QueuedUpload> uploads_;  ///< one per receiving directory
  /// The stores with queued uploads, in order of their first upload.
  std::vector<relay::RelayId> receiving_;
  std::vector<std::uint32_t> run_ends_;  ///< by relay id; see apply_uploads
  std::vector<QueuedUpload> grouped_;    ///< uploads_ grouped by store
  std::vector<std::size_t> fresh_;       ///< new ids per receiving store
  const fault::FaultInjector* injector_ = nullptr;
  fault::FailureLog failure_log_;
};

}  // namespace torsim::hsdir
