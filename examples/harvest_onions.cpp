// The Sec. I/II harvesting attack, end to end: deploy a shadow-relay
// fleet, wait out the 25-hour HSDir ripening, rotate shadows through the
// consensus for 24 hours, and read the collected descriptors back into
// onion addresses.
//
//   $ ./harvest_onions [num_ips] [relays_per_ip]   (>= 1 and >= 2)
#include <cstdio>
#include <set>

#include "args.hpp"
#include "attack/harvester.hpp"
#include "sim/world.hpp"

int main(int argc, char** argv) {
  using namespace torsim;

  const char* usage = "[num_ips] [relays_per_ip]   (>= 1 and >= 2)";
  const int num_ips = examples::number_arg(argc, argv, 1, 10, 1, usage);
  const int relays_per_ip =
      examples::number_arg(argc, argv, 2, 12, 2, usage);

  sim::WorldConfig config;
  config.seed = 1302;
  config.honest_relays = 300;
  sim::World world(config);

  // 80 hidden services the attacker wants to enumerate.
  std::set<std::string> ground_truth;
  for (int i = 0; i < 80; ++i) {
    const auto index = world.add_service();
    ground_truth.insert(world.service(index).onion_address());
  }
  std::printf("world: %zu relays in consensus, %zu hidden services\n",
              world.consensus().size(), ground_truth.size());

  attack::HarvesterConfig hc;
  hc.num_ips = num_ips;
  hc.relays_per_ip = relays_per_ip;
  attack::ShadowHarvester harvester(hc);
  harvester.deploy(world);
  std::printf("attacker: %d IPs x %d relays deployed; ripening 26 h...\n",
              num_ips, relays_per_ip);

  const auto report = harvester.run(world, /*rotation_hours=*/24);

  std::size_t hits = 0;
  for (const auto& onion : report.onions)
    if (ground_truth.count(onion)) ++hits;

  std::printf("\nharvest complete after %d + %d hours\n", report.ripen_hours,
              report.rotation_hours);
  std::printf("  ring positions used:   %d\n", report.positions_used);
  std::printf("  descriptors collected: %lld\n",
              static_cast<long long>(report.descriptors_collected));
  std::printf("  onion addresses found: %zu / %zu (%.0f%%)\n", hits,
              ground_truth.size(),
              100.0 * static_cast<double>(hits) /
                  static_cast<double>(ground_truth.size()));
  std::printf("  client requests logged at our HSDirs: %lld\n",
              static_cast<long long>(report.fetch_requests_logged));
  std::printf("\nsample of harvested addresses:\n");
  int shown = 0;
  for (const auto& onion : report.onions) {
    if (shown++ >= 5) break;
    std::printf("  %s.onion\n", onion.c_str());
  }
  return hits * 2 >= ground_truth.size() ? 0 : 1;
}
