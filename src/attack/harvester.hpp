// The Sec. I/II onion-address harvesting attack ("trawling" with
// shadow relays):
//
//  1. Rent n IP addresses and run m relays on each — n*m Tor instances,
//     of which only 2n appear in the consensus (the per-IP cap); the
//     rest are *shadow relays*, invisibly accruing uptime.
//  2. After 25 hours every instance has earned the HSDir flag.
//  3. Gradually firewall the currently active relays from the
//     authorities; shadows replace them in the consensus, each arriving
//     with an HSDir flag and a fresh random ring position.
//  4. Every position collects the descriptors (and client requests) of
//     the services it becomes responsible for; over 24 hours n*m
//     positions blanket the ring.
//
// The paper ran this with 58 EC2 instances on 4 Feb 2013 and collected
// 39,824 onion addresses.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace torsim::attack {

struct HarvesterConfig {
  /// Rented IP addresses (paper: 58).
  int num_ips = 58;
  /// Relays per IP; one pair is active per hour, so 24 h of rotation
  /// uses up to 2*24 relays per IP.
  int relays_per_ip = 48;
  /// Advertised bandwidth; high enough that the intended pair wins the
  /// per-IP consensus election.
  double bandwidth_kbps = 5000.0;
  /// Optional metrics sink ("harvest.*" counters). Must outlive the
  /// harvester. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional sim-time trace sink: run() records spans for the ripen
  /// and rotation phases against the world clock.
  obs::TraceRecorder* trace = nullptr;
};

struct HarvestReport {
  /// Distinct onion addresses recovered from collected descriptors.
  std::set<std::string> onions;
  std::int64_t descriptors_collected = 0;
  /// Client descriptor-request log entries observed at our relays.
  std::int64_t fetch_requests_logged = 0;
  int ripen_hours = 0;
  int rotation_hours = 0;
  int relays_deployed = 0;
  /// Distinct ring positions that held the HSDir flag at some point.
  int positions_used = 0;
};

class ShadowHarvester {
 public:
  explicit ShadowHarvester(HarvesterConfig config = {});

  /// Phase 1: injects the relay fleet into the world (all online,
  /// exempt from honest churn) and enables request logging on their
  /// directory stores. Call once.
  void deploy(sim::World& world);

  /// Phase 2: waits for the HSDir flag to ripen (25 h), then rotates
  /// visibility pairs once per hour for `rotation_hours` hours,
  /// sweeping the fleet's fingerprints through the consensus.
  /// Advances the world clock itself.
  HarvestReport run(sim::World& world, int rotation_hours = 24);

  const std::vector<relay::RelayId>& relay_ids() const { return relays_; }

  /// True if `id` is one of the harvester's relays.
  bool owns(relay::RelayId id) const;

 private:
  /// What collect() remembers between rotation hours.
  struct CollectState {
    /// World time of the previous collect; descriptors published at or
    /// before it were read then (stores are written only inside
    /// step_hour, after the clock advanced).
    std::optional<util::UnixTime> last_collect;
    /// Key-table handles already turned into onion addresses.
    std::vector<bool> seen_keys;
  };

  /// Makes exactly the pair with index `pair_index` on each IP visible
  /// to the authorities.
  void expose_pair(sim::World& world, int pair_index);
  /// Adds the onion address of every descriptor the fleet's stores
  /// received since the previous collect, deriving one address per
  /// key-table handle.
  void collect(const sim::World& world, CollectState& state,
               HarvestReport& report) const;

  HarvesterConfig config_;
  std::vector<relay::RelayId> relays_;  // grouped by IP: m consecutive
  std::vector<relay::RelayId> sorted_relays_;  // relays_, ascending
  bool deployed_ = false;
};

}  // namespace torsim::attack
