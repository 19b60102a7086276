// The distributed descriptor directory: one DescriptorStore per relay
// that currently carries (or ever carried) the HSDir flag, addressed by
// simulator relay id. Publish/fetch route via the consensus ring.
#pragma once

#include <map>
#include <span>

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

  /// The store operated by relay `id` (created on first use).
  DescriptorStore& store_for(relay::RelayId id) { return stores_[id]; }

  const DescriptorStore* find_store(relay::RelayId id) const {
    const auto it = stores_.find(id);
    return it == stores_.end() ? nullptr : &it->second;
  }

  /// Installs (or clears) the fault injector consulted by publish and
  /// fetch paths. The injector must outlive this network; sim::World
  /// owns both. No injector = the exact legacy behaviour.
  void set_fault_injector(const fault::FaultInjector* injector) {
    injector_ = injector;
  }
  const fault::FaultInjector* fault_injector() const { return injector_; }

  /// Publishes one service's replicas under `consensus`:
  /// descriptors[i] goes to the directories of responsible[i], the
  /// responsible set of its descriptor id that the caller already
  /// walked under the same consensus (hs::ServiceHost needs that walk
  /// anyway to decide whether to republish). Throws
  /// std::invalid_argument when the two spans differ in length.
  /// Returns the relay ids that received a copy (with duplicates
  /// removed). Under an active fault plan, each per-directory upload
  /// is retried (bounded, exponential backoff) when lost; uploads still
  /// lost after the final attempt are surfaced in failure_log() as
  /// kPublishLost, and delayed uploads are stored but only fetchable
  /// after the delay.
  std::vector<relay::RelayId> publish(
      const dirauth::Consensus& consensus,
      std::span<const Descriptor> descriptors,
      std::span<const dirauth::ResponsibleSet> responsible);

  /// Fetches `id` from one responsible HSDir under `consensus`;
  /// `hsdir_relay` receives the id of the directory that answered (or
  /// the last one tried). Tries the responsible set in the given
  /// preference order (already shuffled by the caller if desired).
  /// Directories inside an injected outage window are skipped and
  /// counted in `trace` (when given) so callers can retry.
  std::optional<Descriptor> fetch_from(
      const dirauth::Consensus& consensus, const crypto::DescriptorId& id,
      util::UnixTime now, relay::RelayId& hsdir_relay,
      FetchTrace* trace = nullptr);

  /// Runs expiry on every store.
  void expire_all(util::UnixTime now);

  /// Typed failures observed by publish/fetch since the last clear.
  const fault::FailureLog& failure_log() const { return failure_log_; }
  void clear_failure_log() { failure_log_.clear(); }

  /// Access to every store (harvester reads its own relays' stores).
  /// Ordered by relay id: callers iterate this, and iteration order
  /// must not depend on hash layout.
  const std::map<relay::RelayId, DescriptorStore>& stores() const {
    return stores_;
  }
  std::map<relay::RelayId, DescriptorStore>& stores() {
    return stores_;
  }

 private:
  DirectoryNetworkConfig config_;
  std::map<relay::RelayId, DescriptorStore> stores_;
  const fault::FaultInjector* injector_ = nullptr;
  fault::FailureLog failure_log_;
};

}  // namespace torsim::hsdir
