// The simulation world: a deterministic, hour-stepped model of the Tor
// network (relays + authorities + hidden services + descriptor
// directories) that the measurement and attack experiments run against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dirauth/archive.hpp"
#include "dirauth/authority.hpp"
#include "fault/injector.hpp"
#include "hs/client.hpp"
#include "hs/guard_manager.hpp"
#include "hsdir/directory_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "relay/registry.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace torsim::sim {

/// One descriptor upload: which directory received it and which entry
/// guard fronted the upload circuit — the two vantage points of the
/// original S&P'13 *service* deanonymisation.
struct PublishRecord {
  relay::RelayId hsdir = relay::kInvalidRelayId;
  relay::RelayId guard = relay::kInvalidRelayId;
};

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
  /// Fan-out width of the hour (util::resolve_threads: <= 0 means one
  /// per hardware thread). Two call sites use it: step_hour's per-service
  /// ring walks, and DirectoryNetwork::apply_uploads / expire_all over
  /// the stores (docs/concurrency.md). Outputs are byte-identical for
  /// every value.
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
  // A hidden service is an index into the World's service columns; the
  // index is also its key's handle in directories().keys(). Services
  // are never removed.

  /// One service of a const World: a (world, index) handle whose
  /// accessors read the service columns. Copy it freely; it keeps
  /// denoting the same service for the World's lifetime.
  class ConstServiceRef {
   public:
    std::size_t index() const { return index_; }

    const crypto::PermanentId& permanent_id() const {
      return world_->permanent_ids_[index_];
    }
    /// 16-char base32 of the permanent id, rendered per call.
    std::string onion_address() const {
      return crypto::onion_address(permanent_id());
    }

    /// An offline service neither publishes nor refreshes descriptors.
    bool online() const { return world_->online_[index_] != 0; }

    /// The operator machine's IP address — ground truth, observable
    /// only by the first hop of the service's own circuits.
    const util::Ipv4& address() const { return world_->addresses_[index_]; }

    /// Time period of the most recent publication (0 if never).
    std::uint32_t last_published_period() const {
      return world_->last_periods_[index_];
    }

    /// Descriptor ids (replica 0 and 1) at time `now`: the ids of the
    /// service's current period when `now` falls in it, derived
    /// otherwise. Never writes the World, so views may call it
    /// concurrently between publishes.
    std::vector<crypto::DescriptorId> current_descriptor_ids(
        util::UnixTime now) const {
      const auto ids = world_->descriptor_ids_at(index_, now);
      return {ids.begin(), ids.end()};
    }

    /// Introduction points of the most recent publication (empty before
    /// the first).
    std::span<const crypto::Fingerprint> introduction_points() const {
      return world_->intro_points_[index_].items();
    }

    /// Per-HSDir upload circuits of the most recent publication.
    std::span<const PublishRecord> last_publish_records() const {
      return world_->publish_records_[index_].items();
    }

    /// Responsible directories the most recent publication failed to
    /// reach even after the directory network's bounded upload retries
    /// (0 without fault injection). The typed records live in
    /// DirectoryNetwork::failure_log() as kPublishLost.
    int last_publish_lost() const { return world_->publish_lost_[index_]; }

    /// The service's own entry guards — hidden services build circuits
    /// through guards exactly like clients do (which is what the
    /// original S&P'13 deanonymisation attacked). A service without
    /// guards uploads unprotected.
    const hs::GuardManager& guards() const {
      return world_->guards_[index_];
    }

   protected:
    friend class World;
    ConstServiceRef(const World* world, std::size_t index)
        : world_(world), index_(index) {}
    const World* world_;
    std::size_t index_;
  };

  /// One service of a mutable World: ConstServiceRef plus the setters
  /// and the publish trigger.
  class ServiceRef : public ConstServiceRef {
   public:
    void set_online(bool online) const { world().online_[index_] = online; }
    void set_address(util::Ipv4 address) const {
      world().addresses_[index_] = address;
    }
    /// Replaces the descriptor cookie (see add_service); takes effect at
    /// the next publish (force one to move already published
    /// descriptors). Pass the cookie to add_service instead to never
    /// publish under the public ids.
    void set_descriptor_cookie(std::vector<std::uint8_t> cookie) const {
      world().set_descriptor_cookie(index_, std::move(cookie));
    }
    hs::GuardManager& guards() const { return world().guards_[index_]; }
    void maintain_guards(const dirauth::Consensus& consensus, util::Rng& rng,
                         util::UnixTime now) const {
      guards().maintain(consensus, rng, now);
    }
    /// World::publish for this service.
    std::vector<relay::RelayId> maybe_publish(bool force = false) const {
      return world().publish(index_, force);
    }

   private:
    friend class World;
    ServiceRef(World* world, std::size_t index)
        : ConstServiceRef(world, index) {}
    // Built only from a mutable World, so casting the constness back
    // off is sound.
    World& world() const { return const_cast<World&>(*world_); }
  };

  /// Adds a hidden service with a fresh key; returns its index.
  std::size_t add_service();
  /// Adds a hidden service with a caller-supplied key (population module
  /// pins specific addresses) and descriptor cookie, publishes it at
  /// once, and returns its index. An empty cookie makes a public
  /// service; a non-empty one an authenticated ("stealth") service,
  /// whose cookie-mixed descriptor ids only clients holding the cookie
  /// can derive. Throws std::logic_error when the directory key table
  /// holds keys that are not World services.
  std::size_t add_service(crypto::KeyPair key,
                          std::vector<std::uint8_t> cookie = {});

  /// Service `index`, which must be below service_count().
  ServiceRef service(std::size_t index) { return ServiceRef(this, index); }
  ConstServiceRef service(std::size_t index) const {
    return ConstServiceRef(this, index);
  }
  std::size_t service_count() const { return permanent_ids_.size(); }

  /// Publishes service `index`'s descriptors for the current time
  /// period if they have not been published yet, if the responsible
  /// HSDirs changed since the last upload (Tor re-uploads when the ring
  /// shifts under it — this is what lets a shadow relay that just
  /// became active collect descriptors mid-period; a relay that
  /// switched fingerprint counts as a change), or if `force` is set.
  /// Draws three introduction points among Fast relays of the
  /// consensus, then one guard pick per receiving directory. Returns
  /// the relay ids that received copies (empty if nothing was
  /// published, and always for an offline service). The copies are in
  /// the stores when it returns: no public World call leaves an upload
  /// queued in directories().
  std::vector<relay::RelayId> publish(std::size_t index, bool force = false);

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
  using ResponsibleSets =
      std::array<dirauth::ResponsibleSet, crypto::kNumReplicas>;

  void apply_churn();
  /// The hour's republishes: needs_publish for every service in
  /// parallel, then commit_publish in index order, then one apply of
  /// the queued uploads.
  void publish_services();
  /// Brings service `index`'s period and descriptor ids up to date,
  /// walks the ring into `responsible`, and says whether the service
  /// must (re)publish. Writes only the service's own columns and draws
  /// nothing, so step_hour runs it for all services at once.
  bool needs_publish(std::size_t index, bool force,
                     ResponsibleSets& responsible);
  /// Draws the introduction points and guards of one publish and
  /// queues its uploads with the directory network; returns the
  /// receiving relay ids.
  std::vector<relay::RelayId> commit_publish(
      std::size_t index, const ResponsibleSets& responsible);

  WorldConfig config_;
  util::Clock clock_;
  util::Rng rng_;
  int threads_;  ///< config_.threads, resolved
  relay::Registry registry_;
  dirauth::Authority authority_;
  dirauth::Consensus consensus_;
  dirauth::ConsensusArchive archive_;
  /// Owned behind a pointer so the address handed to the directory
  /// network stays stable if the World is moved.
  std::unique_ptr<fault::FaultInjector> injector_;
  hsdir::DirectoryNetwork dirnet_;

  /// Up to N values inline, for the per-service columns below.
  template <typename T, std::size_t N>
  struct InlineList {
    std::array<T, N> values{};
    std::uint8_t count = 0;
    std::span<const T> items() const { return {values.data(), count}; }
    void push_back(const T& value) { values[count++] = value; }
  };
  static constexpr std::size_t kMaxResponsible =
      crypto::kNumReplicas * crypto::kHsDirsPerReplica;
  using DescriptorIds = std::array<crypto::DescriptorId, crypto::kNumReplicas>;

  /// The service's descriptor ids at `now`: its period's ids when `now`
  /// falls in that period, derived otherwise.
  DescriptorIds descriptor_ids_at(std::size_t index, util::UnixTime now) const;
  void set_descriptor_cookie(std::size_t index,
                             std::vector<std::uint8_t> cookie);

  // Service columns, indexed by service index.
  std::vector<crypto::PermanentId> permanent_ids_;
  std::vector<std::vector<std::uint8_t>> cookies_;
  std::vector<std::uint8_t> online_;
  std::vector<std::uint32_t> last_periods_;  ///< 0 until the first publish
  std::vector<std::uint8_t> published_once_;
  /// Fingerprints of the directories the last publish went to, replica
  /// by replica.
  std::vector<InlineList<crypto::Fingerprint, kMaxResponsible>>
      last_responsible_;
  /// The descriptor ids of ids_periods_[i] under the current cookie.
  std::vector<std::uint32_t> ids_periods_;
  std::vector<DescriptorIds> ids_;
  std::vector<InlineList<crypto::Fingerprint, hsdir::kMaxIntroPoints>>
      intro_points_;
  std::vector<InlineList<PublishRecord, kMaxResponsible>> publish_records_;
  std::vector<int> publish_lost_;
  std::vector<util::Ipv4> addresses_;
  std::vector<hs::GuardManager> guards_;

  // Per-hour scratch, reused: publish_services's responsible sets and
  // republish flags by service index, and commit_publish's descriptors.
  std::vector<ResponsibleSets> hour_responsible_;
  std::vector<std::uint8_t> hour_republish_;
  std::array<hsdir::Descriptor, crypto::kNumReplicas> descriptors_;

  std::vector<bool> churn_exempt_;
  bool authority_online_ = true;
  std::function<void(World&)> post_consensus_hook_;
};

/// The paper's reference start time: 2013-02-01 00:00:00 UTC.
util::UnixTime default_start_time();

}  // namespace torsim::sim
