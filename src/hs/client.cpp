#include "hs/client.hpp"

namespace torsim::hs {

const char* to_string(FetchFailure failure) {
  switch (failure) {
    case FetchFailure::kNone: return "none";
    case FetchFailure::kNotFound: return "not-found";
    case FetchFailure::kDirsUnresponsive: return "dirs-unresponsive";
  }
  return "?";
}

Client::Client(util::Ipv4 address, std::uint64_t rng_seed)
    : address_(address), rng_(rng_seed) {}

void Client::maintain(const dirauth::Consensus& consensus,
                      util::UnixTime now) {
  guard_manager_.maintain(consensus, rng_, now);
}

FetchOutcome Client::fetch_descriptor(std::string_view onion,
                                      const dirauth::Consensus& consensus,
                                      hsdir::DirectoryNetwork& dirnet,
                                      util::UnixTime now,
                                      std::span<const std::uint8_t> cookie) {
  const auto permanent_id = crypto::parse_onion_address(onion);
  const std::uint32_t period = crypto::time_period(now, permanent_id);

  // Cache hit: a descriptor fetched earlier in the same time period is
  // reused without touching the directories.
  const std::string key(onion);
  const auto cached = descriptor_cache_.find(key);
  if (cached != descriptor_cache_.end() && cached->second.first == period) {
    FetchOutcome outcome;
    outcome.found = true;
    outcome.from_cache = true;
    outcome.descriptor_id = cached->second.second;
    outcome.client_address = address_;
    outcome.time = now;
    return outcome;
  }

  const auto replica =
      static_cast<std::uint8_t>(rng_.uniform_int(0, crypto::kNumReplicas - 1));
  auto outcome = fetch_descriptor_id(
      crypto::descriptor_id(permanent_id, period, replica, cookie), consensus,
      dirnet, now);
  if (outcome.found)
    descriptor_cache_[key] = {period, outcome.descriptor_id};
  return outcome;
}

FetchOutcome Client::fetch_descriptor_id(const crypto::DescriptorId& id,
                                         const dirauth::Consensus& consensus,
                                         hsdir::DirectoryNetwork& dirnet,
                                         util::UnixTime now) {
  FetchOutcome outcome;
  outcome.descriptor_id = id;
  outcome.client_address = address_;
  outcome.time = now;

  const fault::FaultInjector* injector = dirnet.fault_injector();
  const int max_attempts =
      injector != nullptr && injector->enabled()
          ? injector->retry().max_attempts
          : 1;

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    outcome.attempts = attempt;
    if (attempt > 1)
      outcome.backoff_spent += injector->retry().backoff_before(attempt);

    // Each try is a fresh guard-fronted circuit.
    const auto guard = guard_manager_.pick(consensus, rng_);
    if (guard) outcome.guard = guard->relay;

    // Middle hop: any Fast relay that is neither the guard nor (later)
    // the directory itself; the simplification of not excluding the
    // HSDir is harmless at network scale.
    const auto& fast = consensus.fast_indices();
    if (!fast.empty()) {
      for (int tries = 0; tries < 8; ++tries) {
        const dirauth::ConsensusEntry& candidate =
            consensus.entries()[fast[rng_.index(fast.size())]];
        if (candidate.relay != outcome.guard) {
          outcome.middle = candidate.relay;
          break;
        }
      }
    }

    relay::RelayId hsdir = relay::kInvalidRelayId;
    hsdir::FetchTrace trace;
    const auto descriptor =
        dirnet.fetch_from(consensus, id, now + outcome.backoff_spent, hsdir,
                          &trace);
    outcome.hsdir = hsdir;
    if (descriptor) {
      outcome.found = true;
      outcome.failure = FetchFailure::kNone;
      return outcome;
    }
    if (trace.dirs_tried > 0) {
      // At least one responsible directory answered and does not hold
      // the id — a definitive miss, retrying cannot change it.
      outcome.failure = FetchFailure::kNotFound;
      return outcome;
    }
    // Every responsible directory was unresponsive: retryable.
    outcome.failure = FetchFailure::kDirsUnresponsive;
  }
  return outcome;
}

}  // namespace torsim::hs
