// Sec. VI: opportunistic deanonymisation of hidden-service clients.
//
// The attacker (a) positions relays on the HSDir ring so they are
// responsible for the target service's descriptor (key grinding, plus
// daily re-grinding as the descriptor ID rotates), and (b) runs a set of
// long-lived guard relays. When a client fetches the target's descriptor
// from an attacker HSDir, the response is wrapped in a traffic
// signature; if the client's entry guard happens to be one of the
// attacker's guards, the guard sees the signature and learns the
// client's IP address. Success probability per fetch is roughly the
// attacker's share of guard selection.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "attack/grinding.hpp"
#include "attack/signature.hpp"
#include "hs/client.hpp"
#include "sim/world.hpp"

namespace torsim::attack {

struct DeanonymizerConfig {
  /// Number of guard relays the attacker operates.
  int guard_relays = 20;
  double guard_bandwidth_kbps = 8000.0;
  /// How many HSDir relays to position per descriptor replica.
  int hsdirs_per_replica = 1;
  /// Grinding arc width as a fraction of the ring (1e-5 of the ring
  /// practically guarantees first place after the descriptor ID).
  double grind_ring_fraction = 1e-5;
  /// Cell-trace jitter tolerance for signature detection.
  int detect_jitter = 1;
};

struct DeanonymizationReport {
  std::int64_t fetches_observed = 0;
  /// Descriptor *uploads* observed (the S&P'13 service attack).
  std::int64_t publishes_observed = 0;
  std::int64_t service_deanonymized = 0;
  std::set<std::uint32_t> service_addresses;  ///< recovered operator IPs
  /// Fetches served by one of our HSDirs (signature injected).
  std::int64_t signatures_injected = 0;
  /// Fetches whose circuit entered through one of our guards.
  std::int64_t through_our_guard = 0;
  /// Signature seen at our guard -> client address recovered.
  std::int64_t deanonymized = 0;
  /// Signature "detected" on a circuit we never injected into.
  std::int64_t false_positives = 0;
  std::set<std::uint32_t> client_addresses;  ///< recovered IPs (host order)
};

class ClientDeanonymizer {
 public:
  explicit ClientDeanonymizer(DeanonymizerConfig config = {});

  /// Injects the guard fleet. Guards need ~8 days of uptime for the
  /// flag; `pre_aged_days` backdates their start (the attacker ran them
  /// for weeks before striking).
  void deploy_guards(sim::World& world, int pre_aged_days = 30);

  /// Positions (or re-positions, after descriptor-ID rotation) HSDirs
  /// right after the target's current descriptor IDs. Grinds fresh keys
  /// and fingerprint-switches the standing relays onto them — exactly
  /// the behaviour Sec. VII's detector keys on. Returns the number of
  /// relays repositioned.
  int position_hsdirs(sim::World& world,
                      sim::World::ConstServiceRef target);

  /// Processes one observed client fetch, simulating the cell trace.
  /// Returns the recovered client address when deanonymisation succeeds.
  std::optional<util::Ipv4> observe_fetch(const hs::FetchOutcome& outcome,
                                         util::Rng& rng);

  /// The original S&P'13 attack this paper adapts: when the *service*
  /// uploads its descriptor to an attacker HSDir, the directory replies
  /// with the traffic signature; if the upload circuit's guard is also
  /// the attacker's, the guard links the signature to the operator's IP.
  std::optional<util::Ipv4> observe_publish(const sim::PublishRecord& record,
                                           const util::Ipv4& service_address,
                                           util::Rng& rng);

  const DeanonymizationReport& report() const { return report_; }

  const std::vector<relay::RelayId>& guard_ids() const { return guards_; }
  const std::vector<relay::RelayId>& hsdir_ids() const { return hsdirs_; }

 private:
  bool is_our_guard(relay::RelayId id) const;
  bool is_our_hsdir(relay::RelayId id) const;

  DeanonymizerConfig config_;
  TrafficSignature signature_ = TrafficSignature::standard();
  std::vector<relay::RelayId> guards_;
  std::vector<relay::RelayId> hsdirs_;
  std::uint32_t positioned_period_ = 0;
  DeanonymizationReport report_;
};

}  // namespace torsim::attack
