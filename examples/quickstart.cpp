// Quickstart: stand up a simulated Tor network, publish a hidden
// service, and fetch its descriptor as a client — the minimal tour of
// the torsim public API.
//
//   $ ./quickstart
#include <cstdio>

#include "sim/world.hpp"

int main() {
  using namespace torsim;

  // A network of 400 honest relays, bootstrapped to a realistic flag mix
  // at the paper's reference date (1 Feb 2013).
  sim::WorldConfig config;
  config.seed = 42;
  config.honest_relays = 400;
  sim::World world(config);

  std::printf("network up at %s\n", util::format_utc(world.now()).c_str());
  std::printf("  consensus: %zu relays, %zu HSDirs, %zu guards\n",
              world.consensus().size(), world.consensus().hsdir_count(),
              world.consensus().with_flag(dirauth::Flag::kGuard).size());

  // Operator side: create a hidden service. Its .onion address is the
  // base32 of the SHA-1 of its public key, exactly as in Tor.
  const auto index = world.add_service();
  const auto service = world.service(index);
  std::printf("\nhidden service published: %s.onion\n",
              service.onion_address().c_str());
  for (const auto& id : service.current_descriptor_ids(world.now())) {
    std::printf("  descriptor id: %s (responsible HSDirs:",
                crypto::sha1_hex(id).substr(0, 16).c_str());
    for (const auto* e : world.consensus().responsible_hsdirs(id))
      std::printf(" %s", e->nickname.c_str());
    std::printf(")\n");
  }

  // Client side: pick guards, derive today's descriptor id from the
  // onion address, and fetch it from the responsible HSDirs.
  hs::Client client(util::Ipv4(198, 51, 100, 7), /*rng_seed=*/7);
  client.maintain(world.consensus(), world.now());
  const auto outcome = client.fetch_descriptor(
      service.onion_address(), world.consensus(), world.directories(),
      world.now());
  std::printf("\nclient fetch: %s (via guard relay #%u, HSDir relay #%u)\n",
              outcome.found ? "FOUND" : "not found", outcome.guard,
              outcome.hsdir);

  // Time passes; the descriptor ID rotates every 24 hours and the
  // service republishes to a fresh set of responsible directories.
  world.run_hours(25);
  const auto tomorrow = client.fetch_descriptor(
      service.onion_address(), world.consensus(), world.directories(),
      world.now());
  std::printf("after 25 h (new time period): %s\n",
              tomorrow.found ? "FOUND" : "not found");
  return outcome.found && tomorrow.found ? 0 : 1;
}
