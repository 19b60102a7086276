#include "hs/rendezvous.hpp"

namespace torsim::hs {

const char* to_string(RendezvousFailure failure) {
  switch (failure) {
    case RendezvousFailure::kNone: return "none";
    case RendezvousFailure::kNoDescriptor: return "no-descriptor";
    case RendezvousFailure::kNoIntroPoints: return "no-intro-points";
    case RendezvousFailure::kNoClientGuard: return "no-client-guard";
    case RendezvousFailure::kNoServiceGuard: return "no-service-guard";
    case RendezvousFailure::kIntroPointGone: return "intro-point-gone";
    case RendezvousFailure::kNoRendezvousPoint: return "no-rendezvous-point";
    case RendezvousFailure::kRendezvousTimeout: return "rendezvous-timeout";
    case RendezvousFailure::kIntroTimeout: return "intro-timeout";
    case RendezvousFailure::kServiceCircuitTimeout:
      return "service-circuit-timeout";
  }
  return "?";
}

RendezvousOutcome rendezvous_connect(Client& client, std::string_view onion,
                                     const GuardManager& service_guards,
                                     const dirauth::Consensus& consensus,
                                     hsdir::DirectoryNetwork& dirnet,
                                     util::Rng& rng, util::UnixTime now,
                                     std::span<const std::uint8_t> cookie) {
  RendezvousOutcome outcome;

  // Step 0: the client needs the descriptor (guard-fronted fetch).
  outcome.fetch =
      client.fetch_descriptor(onion, consensus, dirnet, now, cookie);
  if (!outcome.fetch.found) {
    outcome.failure = RendezvousFailure::kNoDescriptor;
    return outcome;
  }

  // Re-read the descriptor to get the introduction points (the fetch
  // outcome intentionally carries only observable metadata).
  relay::RelayId serving_hsdir = relay::kInvalidRelayId;
  const auto descriptor = dirnet.fetch_from(
      consensus, outcome.fetch.descriptor_id, now, serving_hsdir);
  if (!descriptor || descriptor->introduction_points.empty()) {
    outcome.failure = RendezvousFailure::kNoIntroPoints;
    return outcome;
  }

  // Step 1: client circuit to the rendezvous point.
  const auto client_guard = client.guards().pick(consensus, rng);
  if (!client_guard) {
    outcome.failure = RendezvousFailure::kNoClientGuard;
    return outcome;
  }
  outcome.client_guard = client_guard->relay;

  const auto& fast = consensus.fast_indices();
  if (fast.empty()) {
    outcome.failure = RendezvousFailure::kNoRendezvousPoint;
    return outcome;
  }

  // Injected cell-level stalls ride on the directory network's fault
  // injector; without one every establishment succeeds first try and
  // the draw sequence below is exactly the legacy one.
  const fault::FaultInjector* injector = dirnet.fault_injector();
  const bool inject = injector != nullptr && injector->enabled();
  const int max_attempts = inject ? injector->retry().max_attempts : 1;

  // Distinct stall sites within one connection attempt.
  constexpr std::uint64_t kRpCircuit = 1;
  constexpr std::uint64_t kServiceCircuit = 2;

  bool rp_established = false;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    outcome.rp_attempts = attempt;
    if (attempt > 1)
      outcome.backoff_spent += injector->retry().backoff_before(attempt);
    // A fresh RP + cookie per try, like Tor abandoning a stuck circuit.
    outcome.rendezvous_point =
        consensus.entries()[fast[rng.index(fast.size())]].relay;
    outcome.cookie = rng.next();
    if (inject &&
        injector->circuit_stalled(outcome.cookie, kRpCircuit, attempt)) {
      outcome.setup_cells += 2;  // EXTENDs sunk into the stalled circuit
      continue;
    }
    outcome.setup_cells += 3;  // EXTEND x2 + ESTABLISH_RENDEZVOUS
    rp_established = true;
    break;
  }
  if (!rp_established) {
    outcome.failure = RendezvousFailure::kRendezvousTimeout;
    return outcome;
  }

  // Step 2: client circuit to an introduction point from the descriptor.
  // Tor tries the advertised intro points in random order until one is
  // still part of the network *and* answers.
  std::vector<crypto::Fingerprint> intro_order =
      descriptor->introduction_points;
  rng.shuffle(intro_order);
  const dirauth::ConsensusEntry* intro_entry = nullptr;
  bool live_intro_stalled = false;
  for (const auto& intro_fp : intro_order) {
    const dirauth::ConsensusEntry* candidate = consensus.find(intro_fp);
    if (candidate == nullptr ||
        !has_flag(candidate->flags, dirauth::Flag::kRunning)) {
      outcome.setup_cells += 2;  // wasted EXTEND attempts to a dead intro
      continue;
    }
    if (inject) {
      const std::uint64_t intro_key =
          fault::FaultInjector::key_of(intro_fp.data(), intro_fp.size());
      bool stalled = true;
      for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (!injector->circuit_stalled(outcome.cookie ^ intro_key, attempt,
                                       attempt)) {
          stalled = false;
          break;
        }
        outcome.setup_cells += 2;
        outcome.backoff_spent += injector->retry().backoff_before(attempt + 1);
      }
      if (stalled) {
        // The intro point is in the consensus but its circuit never
        // completed — retry exhaustion moves on to the next one.
        live_intro_stalled = true;
        continue;
      }
    }
    intro_entry = candidate;
    break;
  }
  if (intro_entry == nullptr) {
    outcome.failure = live_intro_stalled ? RendezvousFailure::kIntroTimeout
                                         : RendezvousFailure::kIntroPointGone;
    return outcome;
  }
  outcome.intro_point = intro_entry->relay;
  outcome.setup_cells += 3;  // EXTEND x2 + INTRODUCE1

  // Step 3/4: the service receives INTRODUCE2 over its intro circuit and
  // builds a guard-fronted circuit to the rendezvous point.
  const auto service_guard = service_guards.pick(consensus, rng);
  if (!service_guard) {
    outcome.failure = RendezvousFailure::kNoServiceGuard;
    return outcome;
  }
  outcome.service_guard = service_guard->relay;
  if (inject) {
    bool service_circuit_up = false;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (!injector->circuit_stalled(outcome.cookie, kServiceCircuit,
                                     attempt)) {
        service_circuit_up = true;
        break;
      }
      outcome.setup_cells += 2;
      outcome.backoff_spent += injector->retry().backoff_before(attempt + 1);
    }
    if (!service_circuit_up) {
      outcome.failure = RendezvousFailure::kServiceCircuitTimeout;
      return outcome;
    }
  }
  outcome.setup_cells += 4;  // INTRODUCE2 + EXTEND x2 + RENDEZVOUS1

  outcome.setup_cells += 1;  // RENDEZVOUS2 back to the client
  outcome.success = true;
  return outcome;
}

}  // namespace torsim::hs
