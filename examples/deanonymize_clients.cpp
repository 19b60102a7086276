// Sec. VI: opportunistic deanonymisation of hidden-service clients.
// The attacker runs guard relays and grinds HSDir identities onto the
// target's descriptor IDs; every descriptor fetch served by an attacker
// HSDir is wrapped in a traffic signature, and fetches whose circuit
// entered through an attacker guard reveal the client's IP. Recovered
// addresses are aggregated into the Fig. 3 country map.
//
//   $ ./deanonymize_clients [attacker_guards] [clients]   (clients >= 1)
#include <cstdio>

#include "args.hpp"
#include "attack/deanonymizer.hpp"
#include "geo/client_map.hpp"
#include "sim/world.hpp"

int main(int argc, char** argv) {
  using namespace torsim;

  const char* usage = "[attacker_guards] [clients]   (clients >= 1)";
  const int attacker_guards =
      examples::number_arg(argc, argv, 1, 25, 0, usage);
  const int clients = examples::number_arg(argc, argv, 2, 200, 1, usage);

  sim::WorldConfig wc;
  wc.seed = 1306;
  wc.honest_relays = 300;
  sim::World world(wc);
  const auto target = world.add_service();
  std::printf("target hidden service: %s.onion\n",
              world.service(target).onion_address().c_str());

  attack::DeanonymizerConfig dc;
  dc.guard_relays = attacker_guards;
  attack::ClientDeanonymizer attacker(dc);
  attacker.deploy_guards(world);
  const int positioned =
      attacker.position_hsdirs(world, world.service(target));
  world.step_hour();  // let the service republished to our HSDirs
  std::printf("attacker: %d guards deployed, %d HSDirs ground next to the "
              "target's descriptor IDs\n",
              attacker_guards, positioned);

  const auto geodb = geo::GeoDatabase::standard();
  util::Rng client_rng(1);
  util::Rng trace_rng(2);
  const auto onion = world.service(target).onion_address();
  for (int i = 0; i < clients; ++i) {
    hs::Client client(geodb.sample_global(client_rng),
                      5000 + static_cast<std::uint64_t>(i));
    client.maintain(world.consensus(), world.now());
    for (int round = 0; round < 3; ++round) {
      const auto outcome = client.fetch_descriptor(
          onion, world.consensus(), world.directories(), world.now());
      attacker.observe_fetch(outcome, trace_rng);
    }
  }

  const auto& report = attacker.report();
  std::printf("\nfetches observed:      %lld\n",
              static_cast<long long>(report.fetches_observed));
  std::printf("signatures injected:   %lld\n",
              static_cast<long long>(report.signatures_injected));
  std::printf("through our guards:    %lld\n",
              static_cast<long long>(report.through_our_guard));
  std::printf("clients deanonymised:  %zu of %d (%.0f%%)\n",
              report.client_addresses.size(), clients,
              100.0 * static_cast<double>(report.client_addresses.size()) /
                  clients);
  std::printf("false positives:       %lld\n",
              static_cast<long long>(report.false_positives));

  std::vector<util::Ipv4> ips;
  for (const auto addr : report.client_addresses)
    ips.emplace_back(util::Ipv4(addr));
  const auto map = geo::build_client_map(ips, geodb);
  std::printf("\nclient map (Fig. 3):\n");
  int shown = 0;
  for (const auto& row : map.rows()) {
    if (shown++ >= 12) break;
    std::printf("  %-3s %-16s %5lld  %4.1f%%\n", row.code.c_str(),
                row.name.c_str(), static_cast<long long>(row.clients),
                row.share * 100.0);
  }
  return report.client_addresses.empty() ? 1 : 0;
}
