// The v2 rendezvous protocol: how a client actually *connects* to a
// hidden service once it has the descriptor.
//
//   1. The client builds a circuit to a rendezvous point (RP) of its
//      choosing and installs a one-time cookie (ESTABLISH_RENDEZVOUS).
//   2. It builds a second circuit to one of the service's introduction
//      points and hands over the cookie + RP (INTRODUCE1).
//   3. The introduction point relays INTRODUCE2 to the service over the
//      service's long-lived intro circuit.
//   4. The service builds a circuit to the RP (through its own guard!)
//      and presents the cookie (RENDEZVOUS1); the RP splices the two
//      circuits and the client sees RENDEZVOUS2.
//
// Every circuit's first hop is an entry guard — the structural fact both
// the S&P'13 service deanonymisation and this paper's Sec. VI client
// deanonymisation exploit.
#pragma once

#include <cstdint>
#include <string_view>

#include "hs/client.hpp"
#include "hs/guard_manager.hpp"

namespace torsim::hs {

/// Why a rendezvous attempt failed.
enum class RendezvousFailure {
  kNone,
  kNoDescriptor,        ///< descriptor fetch failed at every HSDir
  kNoIntroPoints,       ///< descriptor carried no introduction points
  kNoClientGuard,       ///< client has no usable guard
  kNoServiceGuard,      ///< service has no usable guard
  kIntroPointGone,      ///< chosen intro point left the consensus
  kNoRendezvousPoint,   ///< no Fast relay available as RP
  kRendezvousTimeout,   ///< RP establishment stalled on every retry
  kIntroTimeout,        ///< intro circuits stalled to every live intro point
  kServiceCircuitTimeout,  ///< the service's RP circuit stalled out
};

const char* to_string(RendezvousFailure failure);

/// Result of one full connection attempt.
struct RendezvousOutcome {
  bool success = false;
  RendezvousFailure failure = RendezvousFailure::kNone;
  /// The descriptor fetch that preceded the attempt.
  FetchOutcome fetch;
  relay::RelayId client_guard = relay::kInvalidRelayId;
  relay::RelayId intro_point = relay::kInvalidRelayId;
  relay::RelayId rendezvous_point = relay::kInvalidRelayId;
  relay::RelayId service_guard = relay::kInvalidRelayId;
  std::uint64_t cookie = 0;
  /// Protocol cells spent on establishment (setup overhead the paper's
  /// traffic-signature rides on top of).
  int setup_cells = 0;
  /// Tries spent establishing the client's RP circuit (1 = no stall).
  int rp_attempts = 1;
  /// Exponential-backoff sim-time charged by stall retries.
  util::Seconds backoff_spent = 0;
};

/// Runs the whole protocol between `client` and the service at `onion`,
/// whose own circuits enter through `service_guards`, against the
/// current consensus + directory network. The service must have
/// published; both sides must have maintained guards. For an
/// authenticated service, pass the shared descriptor `cookie`.
RendezvousOutcome rendezvous_connect(Client& client, std::string_view onion,
                                     const GuardManager& service_guards,
                                     const dirauth::Consensus& consensus,
                                     hsdir::DirectoryNetwork& dirnet,
                                     util::Rng& rng, util::UnixTime now,
                                     std::span<const std::uint8_t> cookie = {});

}  // namespace torsim::hs
