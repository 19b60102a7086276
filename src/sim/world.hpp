// The simulation world: a deterministic, hour-stepped model of the Tor
// network (relays + authorities + hidden services + descriptor
// directories) that the measurement and attack experiments run against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dirauth/archive.hpp"
#include "dirauth/authority.hpp"
#include "fault/injector.hpp"
#include "hs/client.hpp"
#include "hs/service_host.hpp"
#include "hsdir/directory_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "relay/registry.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace torsim::sim {

/// Plain-data snapshot of one hidden service — what the serving layer
/// (src/serve) reads instead of reaching into hs/crypto types directly
/// (its layer contract is serve -> sim/obs/fault/util only). All fields
/// are pure functions of const world state at `now`, so snapshots may
/// be taken from parallel regions.
struct ServiceView {
  std::size_t index = 0;
  std::string onion;  ///< 16-char base32 address, no ".onion" suffix
  bool online = false;
  std::uint32_t last_published_period = 0;
  /// Current descriptor ids (replica 0 and 1) as lowercase hex.
  std::array<std::string, 2> descriptor_hex{};

  bool operator==(const ServiceView&) const = default;
};

/// Plain-data network totals at the current hour.
struct NetworkStats {
  std::int64_t hours_since_start = 0;
  std::int64_t relays_online = 0;
  std::int64_t hsdir_count = 0;
  std::int64_t services_online = 0;
  std::int64_t descriptors_stored = 0;
  util::UnixTime consensus_valid_after = 0;

  bool operator==(const NetworkStats&) const = default;
};

/// Outcome of a read-only resolve probe for one service: for each
/// replica, whether any responsive responsible directory currently
/// holds the descriptor (plus how many responsible directories an
/// injected outage made unresponsive along the way).
struct ResolveView {
  std::size_t index = 0;
  std::array<bool, 2> resolved{};
  std::int64_t dirs_unresponsive = 0;

  bool operator==(const ResolveView&) const = default;
};

struct WorldConfig {
  std::uint64_t seed = 20130204;
  /// Simulation start; defaults to the paper's harvest date.
  util::UnixTime start = 0;  ///< 0 means "2013-02-01 00:00 UTC"
  /// Honest relay population (the Feb 2013 network had ~3,600 relays,
  /// ~1,300 of them HSDirs).
  int honest_relays = 1300;
  /// Fraction of honest relays bootstrapped with enough past uptime to
  /// already hold the HSDir flag at start.
  double bootstrap_hsdir_fraction = 0.75;
  /// Fraction bootstrapped with enough uptime + bandwidth for Guard.
  double bootstrap_guard_fraction = 0.35;
  /// Hourly probability that an online honest relay goes down.
  double hourly_down_probability = 0.01;
  /// Hourly probability that an offline honest relay comes back.
  double hourly_up_probability = 0.25;
  /// Record every consensus into the archive (needed by trackdet runs;
  /// costs memory on multi-year simulations, so it is switchable).
  bool record_archive = true;
  dirauth::AuthorityPolicy authority_policy{};
  /// Unread: the World has no parallel section since each service hands
  /// publish the ring walks it already made (docs/concurrency.md). Kept
  /// so callers that forward their --threads value still compile.
  int threads = 0;
  /// Injected directory/circuit faults (default: none). When enabled the
  /// world owns a FaultInjector and wires it into the directory network;
  /// see docs/fault-injection.md.
  fault::FaultPlan faults{};
  /// Optional metrics sink ("sim.*" counters/gauges; forwarded to the
  /// directory network and fault injector). Must outlive the world.
  /// See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional sim-time trace sink: step_hour() records one span per
  /// hour against the world clock. Must outlive the world.
  obs::TraceRecorder* trace = nullptr;
};

class World {
 public:
  explicit World(WorldConfig config);

  /// Creates the honest relay population and publishes the first
  /// consensus. Called by the constructor.
  void bootstrap();

  // --- time ---------------------------------------------------------
  util::UnixTime now() const { return clock_.now(); }
  const util::Clock& clock() const { return clock_; }

  /// Advances one hour: applies honest-relay churn, rebuilds the
  /// consensus, lets services republish, expires stale descriptors.
  void step_hour();

  /// Advances `hours` hours.
  void run_hours(int hours);

  // --- components ---------------------------------------------------
  relay::Registry& registry() { return registry_; }
  const relay::Registry& registry() const { return registry_; }
  const dirauth::Authority& authority() const { return authority_; }
  hsdir::DirectoryNetwork& directories() { return dirnet_; }
  const hsdir::DirectoryNetwork& directories() const { return dirnet_; }
  const dirauth::Consensus& consensus() const { return consensus_; }
  const dirauth::ConsensusArchive& archive() const { return archive_; }
  util::Rng& rng() { return rng_; }
  const WorldConfig& config() const { return config_; }
  /// The world's fault injector, or nullptr when the plan is all-zero.
  const fault::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  // --- hidden services ----------------------------------------------
  /// Adds a hidden service with a fresh key; returns its index.
  std::size_t add_service();
  /// Adds a hidden service with a caller-supplied key (population module
  /// pins specific addresses); returns its index.
  std::size_t add_service(crypto::KeyPair key);

  hs::ServiceHost& service(std::size_t index) { return *services_[index]; }
  const hs::ServiceHost& service(std::size_t index) const {
    return *services_[index];
  }
  std::size_t service_count() const { return services_.size(); }

  // --- read-only query surface (src/serve) --------------------------
  // Const, allocation-only views over current world state. They touch
  // no logs, caches with locks, or the world RNG, so the serving
  // batcher may evaluate them concurrently from parallel_map workers;
  // see docs/serving.md for the determinism contract.

  /// Snapshot of service `index` at the current hour. Throws
  /// std::out_of_range on a bad index.
  ServiceView service_view(std::size_t index) const;

  /// Network totals at the current hour.
  NetworkStats network_stats() const;

  /// Read-only resolve probe for service `index`: walks the
  /// responsible HSDir sets of both replica descriptor ids in ring
  /// order, skipping (and counting) directories inside an injected
  /// outage window, exactly as DirectoryNetwork::fetch_from would —
  /// but via const DescriptorStore::contains, with no fetch logging.
  /// Throws std::out_of_range on a bad index.
  ResolveView resolve_view(std::size_t index) const;

  // --- honest relays ------------------------------------------------
  /// Marks a relay as exempt from honest churn (attacker relays are
  /// driven explicitly by the attack controller).
  void set_churn_exempt(relay::RelayId id, bool exempt);
  bool churn_exempt(relay::RelayId id) const;

  /// Rebuilds the consensus immediately (used after an attacker flips
  /// relays between consensus builds). A no-op while the authorities
  /// are marked offline (see set_authority_online).
  void rebuild_consensus();

  // --- scenario-engine hooks ----------------------------------------
  /// Overrides the hourly honest-relay churn probabilities (scenario
  /// churn storms). Values are clamped to [0, 1].
  void set_churn_rates(double down_probability, double up_probability);
  double hourly_down_probability() const {
    return config_.hourly_down_probability;
  }
  double hourly_up_probability() const {
    return config_.hourly_up_probability;
  }

  /// Marks the directory authorities up or down. While down, step_hour()
  /// keeps churning relays and expiring descriptors but never rebuilds
  /// the consensus — services republish against the last one published
  /// before the outage, exactly like a live network riding a stale
  /// consensus.
  void set_authority_online(bool online);
  bool authority_online() const { return authority_online_; }

  /// Swaps the active fault plan (scenario fault windows). An enabled
  /// plan installs (or replaces) the injector wired into the directory
  /// network; a disabled plan removes it, restoring the exact no-fault
  /// behaviour.
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Hook invoked after every consensus rebuild (attack controllers use
  /// it to react to ring changes).
  void set_post_consensus_hook(std::function<void(World&)> hook) {
    post_consensus_hook_ = std::move(hook);
  }

 private:
  void apply_churn();
  void publish_services();

  WorldConfig config_;
  util::Clock clock_;
  util::Rng rng_;
  relay::Registry registry_;
  dirauth::Authority authority_;
  dirauth::Consensus consensus_;
  dirauth::ConsensusArchive archive_;
  /// Owned behind a pointer so the address handed to the directory
  /// network stays stable if the World is moved.
  std::unique_ptr<fault::FaultInjector> injector_;
  hsdir::DirectoryNetwork dirnet_;
  std::vector<std::unique_ptr<hs::ServiceHost>> services_;
  std::vector<bool> churn_exempt_;
  bool authority_online_ = true;
  std::function<void(World&)> post_consensus_hook_;
};

/// The paper's reference start time: 2013-02-01 00:00:00 UTC.
util::UnixTime default_start_time();

}  // namespace torsim::sim
