// Figure 3: geographic map of the clients of a popular ("Goldnet")
// hidden service. The paper deanonymised clients with the Sec. VI
// attack and plotted their IPs; we run the same attack end-to-end in a
// simulated world with geographically distributed clients and print the
// per-country aggregation (the analytic content of the map).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "attack/deanonymizer.hpp"
#include "geo/client_map.hpp"
#include "sim/world.hpp"

namespace {

using namespace torsim;

struct GeoStudy {
  geo::ClientMap map;
  attack::DeanonymizationReport report;
  int clients_total = 0;
};

GeoStudy run_geo_study(std::uint64_t seed, int client_count, int rounds) {
  sim::WorldConfig wc;
  wc.seed = seed;
  wc.honest_relays = 300;
  wc.record_archive = false;
  sim::World world(wc);
  const auto target = world.add_service();

  attack::DeanonymizerConfig dc;
  dc.guard_relays = 40;
  attack::ClientDeanonymizer attacker(dc);
  attacker.deploy_guards(world);
  attacker.position_hsdirs(world, world.service(target));
  world.step_hour();

  const auto geodb = geo::GeoDatabase::standard();
  util::Rng client_rng(seed + 1);
  util::Rng trace_rng(seed + 2);
  const auto onion = world.service(target).onion_address();
  for (int i = 0; i < client_count; ++i) {
    hs::Client client(geodb.sample_global(client_rng),
                      seed + 100 + static_cast<std::uint64_t>(i));
    client.maintain(world.consensus(), world.now());
    for (int r = 0; r < rounds; ++r) {
      const auto outcome = client.fetch_descriptor(
          onion, world.consensus(), world.directories(), world.now());
      attacker.observe_fetch(outcome, trace_rng);
    }
  }

  GeoStudy study;
  study.report = attacker.report();
  study.clients_total = client_count;
  std::vector<util::Ipv4> ips;
  for (const auto addr : study.report.client_addresses)
    ips.emplace_back(util::Ipv4(addr));
  study.map = geo::build_client_map(ips, geodb);
  return study;
}

void BM_GeoStudy(benchmark::State& state) {
  std::uint64_t seed = 500;
  for (auto _ : state) {
    auto study = run_geo_study(seed++, 50, 2);
    benchmark::DoNotOptimize(study.map.total_clients);
  }
}
BENCHMARK(BM_GeoStudy)->Unit(benchmark::kMillisecond);

void BM_GeoLookup(benchmark::State& state) {
  const auto db = geo::GeoDatabase::standard();
  util::Rng rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(db.lookup(util::Ipv4::random_public(rng)).code);
}
BENCHMARK(BM_GeoLookup);

void print_figure3() {
  const auto study = run_geo_study(1300, 400, 3);
  std::printf("\n==== Figure 3 — clients of a popular hidden service ====\n");
  std::printf("  clients simulated: %d; fetches observed: %lld\n",
              study.clients_total,
              static_cast<long long>(study.report.fetches_observed));
  std::printf("  signatures injected: %lld; via our guards: %lld\n",
              static_cast<long long>(study.report.signatures_injected),
              static_cast<long long>(study.report.through_our_guard));
  std::printf("  deanonymised clients: %zu (%.1f%% of population)\n\n",
              study.report.client_addresses.size(),
              100.0 * static_cast<double>(
                          study.report.client_addresses.size()) /
                  study.clients_total);
  std::printf("  %-4s %-20s %8s %7s\n", "cc", "country", "clients", "share");
  for (const auto& row : study.map.rows()) {
    std::printf("  %-4s %-20s %8lld %6.1f%%\n", row.code.c_str(),
                row.name.c_str(), static_cast<long long>(row.clients),
                row.share * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_figure3();
}
