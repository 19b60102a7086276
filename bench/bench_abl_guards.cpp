// Ablation: the *opportunistic* nature of Sec. VI over time.
//
// Per-fetch deanonymisation probability equals the attacker's share of
// guard selections, but clients rotate guards every 30-60 days — so the
// probability that a *persistent* client (the paper's example: a Silk
// Road seller who logs in periodically) is deanonymised at least once
// grows week over week. We simulate client cohorts over months of guard
// churn and report the cumulative compromise curve.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "attack/deanonymizer.hpp"
#include "hs/rendezvous.hpp"
#include "sim/world.hpp"

namespace {

using namespace torsim;

struct CohortResult {
  int weeks = 0;
  double compromised_fraction = 0.0;
};

std::vector<CohortResult> run_cohort(std::uint64_t seed, int attacker_guards,
                                     int clients, int weeks) {
  sim::WorldConfig wc;
  wc.seed = seed;
  wc.honest_relays = 250;
  wc.record_archive = false;  // months of hourly consensuses otherwise
  sim::World world(wc);
  const auto target = world.add_service();

  attack::DeanonymizerConfig dc;
  dc.guard_relays = attacker_guards;
  attack::ClientDeanonymizer attacker(dc);
  attacker.deploy_guards(world);
  attacker.position_hsdirs(world, world.service(target));
  world.step_hour();

  std::vector<hs::Client> cohort;
  for (int i = 0; i < clients; ++i)
    cohort.emplace_back(util::Ipv4::random_public(world.rng()),
                        seed + 50 + static_cast<std::uint64_t>(i));

  std::vector<bool> compromised(static_cast<std::size_t>(clients), false);
  std::vector<CohortResult> curve;
  util::Rng trace_rng(seed + 1);
  const auto onion = world.service(target).onion_address();

  for (int week = 1; week <= weeks; ++week) {
    // One week of world time; sellers check the market weekly.
    for (int d = 0; d < 7; ++d) world.run_hours(24);
    attacker.position_hsdirs(world, world.service(target));
    world.step_hour();
    for (int i = 0; i < clients; ++i) {
      cohort[static_cast<std::size_t>(i)].maintain(world.consensus(),
                                                   world.now());
      const auto outcome =
          cohort[static_cast<std::size_t>(i)].fetch_descriptor(
              onion, world.consensus(), world.directories(), world.now());
      if (attacker.observe_fetch(outcome, trace_rng))
        compromised[static_cast<std::size_t>(i)] = true;
    }
    int hit = 0;
    for (bool c : compromised) hit += c;
    curve.push_back(
        {week, static_cast<double>(hit) / static_cast<double>(clients)});
  }
  return curve;
}

void BM_CohortWeek(benchmark::State& state) {
  std::uint64_t seed = 7000;
  for (auto _ : state) {
    auto curve = run_cohort(seed++, 15, 20, 1);
    benchmark::DoNotOptimize(curve.size());
  }
}
BENCHMARK(BM_CohortWeek)->Unit(benchmark::kMillisecond);

void print_ablation() {
  std::printf("\n==== Ablation — cumulative client compromise over time ====\n");
  std::printf("  (60-client cohorts fetching the target weekly; attacker "
              "holds the responsible HSDirs)\n\n");
  std::printf("  %-6s", "week");
  for (int guards : {5, 15, 40}) std::printf(" guards=%-6d", guards);
  std::printf("\n");

  std::vector<std::vector<CohortResult>> curves;
  for (int guards : {5, 15, 40})
    curves.push_back(run_cohort(8000 + guards, guards, 60, 12));

  for (int week = 1; week <= 12; ++week) {
    std::printf("  %-6d", week);
    for (const auto& curve : curves)
      std::printf(" %-13.2f",
                  curve[static_cast<std::size_t>(week - 1)]
                      .compromised_fraction);
    std::printf("\n");
  }
  std::printf(
      "\n  Even a small guard share compounds: a periodic visitor (the\n"
      "  paper's Silk Road 'seller' profile) is eventually deanonymised\n"
      "  with probability far above the per-fetch rate.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_ablation();
}
