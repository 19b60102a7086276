// Ablation: harvest coverage vs. attacker resources.
//
// The paper claims a naive attacker would need >300 IP addresses for
// 27+ hours, while shadowing let them do it with 58. We sweep the
// number of rented IPs (and relays per IP) and report what fraction of
// the published hidden services the 24-hour harvest recovers, plus the
// no-shadowing baseline (2 relays per IP — what the per-IP cap was
// supposed to enforce).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "attack/harvester.hpp"
#include "sim/world.hpp"

namespace {

using namespace torsim;

struct HarvestPoint {
  int ips = 0;
  int relays_per_ip = 0;
  double coverage = 0.0;  // recovered / published services
  int positions = 0;
};

HarvestPoint run_point(std::uint64_t seed, int ips, int relays_per_ip,
                       int services = 60, int honest = 250) {
  sim::WorldConfig wc;
  wc.seed = seed;
  wc.honest_relays = honest;
  wc.record_archive = false;
  sim::World world(wc);

  std::set<std::string> published;
  for (int i = 0; i < services; ++i) {
    const auto index = world.add_service();
    published.insert(world.service(index).onion_address());
  }

  attack::HarvesterConfig hc;
  hc.num_ips = ips;
  hc.relays_per_ip = relays_per_ip;
  attack::ShadowHarvester harvester(hc);
  harvester.deploy(world);
  const auto report = harvester.run(world, 24);

  std::size_t recovered = 0;
  for (const auto& onion : report.onions)
    if (published.count(onion)) ++recovered;

  HarvestPoint point;
  point.ips = ips;
  point.relays_per_ip = relays_per_ip;
  point.coverage =
      static_cast<double>(recovered) / static_cast<double>(published.size());
  point.positions = report.positions_used;
  return point;
}

void BM_Harvest24h(benchmark::State& state) {
  std::uint64_t seed = 60;
  for (auto _ : state) {
    auto point = run_point(seed++, 8, 8, 30, 150);
    benchmark::DoNotOptimize(point.coverage);
  }
}
BENCHMARK(BM_Harvest24h)->Unit(benchmark::kMillisecond);

void print_ablation() {
  std::printf("\n==== Ablation — harvest coverage vs attacker resources ====\n");
  std::printf("  (world: 250 honest relays, 60 published services, 24 h)\n\n");
  std::printf("  %-6s %-12s %-10s %-9s %s\n", "IPs", "relays/IP",
              "positions", "coverage", "note");
  struct Config {
    int ips, per_ip;
    const char* note;
  };
  const Config configs[] = {
      {2, 2, "no shadowing (per-IP cap honoured)"},
      {8, 2, "no shadowing, more IPs"},
      {2, 12, "shadowing, tiny fleet"},
      {4, 12, "shadowing"},
      {8, 12, "shadowing"},
      {12, 16, "shadowing, paper-like ratio"},
  };
  for (const auto& config : configs) {
    const auto point =
        run_point(3100 + config.ips * 100 + config.per_ip, config.ips,
                  config.per_ip);
    std::printf("  %-6d %-12d %-10d %-9.2f %s\n", point.ips,
                point.relays_per_ip, point.positions, point.coverage,
                config.note);
  }
  std::printf(
      "\n  The paper's claim: without shadowing an attacker needs ~300 IPs;\n"
      "  with shadowing, 58 IPs sufficed. The sweep shows coverage scaling\n"
      "  with total relay-positions (IPs x relays/IP), not with IPs alone.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_ablation();
}
