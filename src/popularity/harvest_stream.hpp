// Bridges the attack to the measurement: converts the descriptor-fetch
// logs collected by attacker-controlled HSDirs into a RequestStream, so
// the popularity pipeline runs on exactly the data the paper's authors
// had — their own relays' logs — rather than on an oracle view of
// client behaviour.
#pragma once

#include <span>

#include "hsdir/directory_network.hpp"
#include "popularity/request_generator.hpp"

namespace torsim::popularity {

/// Collects the fetch logs of `attacker_relays` from the directory
/// network into a request stream sorted by time, ties in fetch-log
/// order (relay by relay in `attacker_relays` order, then log order).
/// Duplicate sightings of the same request at multiple relays are
/// expected (a client retries several responsible HSDirs) and are kept,
/// as they were in the paper's raw logs.
RequestStream stream_from_fetch_logs(
    const hsdir::DirectoryNetwork& dirnet,
    std::span<const relay::RelayId> attacker_relays);

}  // namespace torsim::popularity
