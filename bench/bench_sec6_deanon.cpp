// Sec. VI: opportunistic client deanonymisation — sweep the attacker's
// guard share and report the per-fetch deanonymisation probability
// (which should track the share of guard selections the attacker owns),
// plus signature fidelity (detection and false-positive rates).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "attack/deanonymizer.hpp"
#include "attack/signature.hpp"
#include "sim/world.hpp"

namespace {

using namespace torsim;

struct SweepPoint {
  int attacker_guards = 0;
  double guard_share = 0.0;        // fraction of guard *bandwidth*
  double success_per_fetch = 0.0;  // deanonymised / fetches
  std::int64_t fetches = 0;
};

SweepPoint run_point(std::uint64_t seed, int attacker_guards) {
  sim::WorldConfig wc;
  wc.seed = seed;
  wc.honest_relays = 300;
  wc.record_archive = false;
  sim::World world(wc);
  const auto target = world.add_service();

  attack::DeanonymizerConfig dc;
  dc.guard_relays = attacker_guards;
  attack::ClientDeanonymizer attacker(dc);
  if (attacker_guards > 0) attacker.deploy_guards(world);
  attacker.position_hsdirs(world, world.service(target));
  world.step_hour();

  util::Rng trace_rng(seed + 1);
  const auto onion = world.service(target).onion_address();
  for (int i = 0; i < 150; ++i) {
    hs::Client client(util::Ipv4::random_public(world.rng()),
                      seed + 10 + static_cast<std::uint64_t>(i));
    client.maintain(world.consensus(), world.now());
    for (int r = 0; r < 2; ++r) {
      const auto outcome = client.fetch_descriptor(
          onion, world.consensus(), world.directories(), world.now());
      attacker.observe_fetch(outcome, trace_rng);
    }
  }

  SweepPoint point;
  point.attacker_guards = attacker_guards;
  // Guard selection is bandwidth-weighted, so the relevant attacker
  // share is of guard *bandwidth*, not of guard count.
  double total_bw = 0.0, attacker_bw = 0.0;
  for (const auto* g : world.consensus().with_flag(dirauth::Flag::kGuard)) {
    total_bw += g->bandwidth_kbps;
    for (const auto id : attacker.guard_ids())
      if (g->relay == id) attacker_bw += g->bandwidth_kbps;
  }
  point.guard_share = total_bw > 0.0 ? attacker_bw / total_bw : 0.0;
  point.fetches = attacker.report().fetches_observed;
  point.success_per_fetch =
      static_cast<double>(attacker.report().deanonymized) /
      static_cast<double>(point.fetches);
  return point;
}

void BM_ObserveFetch(benchmark::State& state) {
  const auto sig = attack::TrafficSignature::standard();
  util::Rng rng(2);
  for (auto _ : state) {
    auto trace = attack::background_trace(rng, 30);
    sig.inject(trace);
    benchmark::DoNotOptimize(sig.detect(trace));
  }
}
BENCHMARK(BM_ObserveFetch);

void BM_DeanonSweepPoint(benchmark::State& state) {
  std::uint64_t seed = 900;
  for (auto _ : state) {
    auto point = run_point(seed++, 20);
    benchmark::DoNotOptimize(point.success_per_fetch);
  }
}
BENCHMARK(BM_DeanonSweepPoint)->Unit(benchmark::kMillisecond);

void print_sweep() {
  std::printf(
      "\n==== Sec. VI — deanonymisation probability vs guard share ====\n");
  std::printf("  %-16s %-12s %-14s %s\n", "attacker guards", "bw share",
              "P(deanon)/fetch", "ratio");
  for (int guards : {0, 5, 10, 20, 40, 80}) {
    const auto point = run_point(1700 + guards, guards);
    const double ratio = point.guard_share > 0
                             ? point.success_per_fetch / point.guard_share
                             : 0.0;
    std::printf("  %-16d %-12.3f %-14.3f %.2f\n", point.attacker_guards,
                point.guard_share, point.success_per_fetch, ratio);
  }
  std::printf(
      "\n  (per-fetch success should track the attacker's share of guard\n"
      "   bandwidth; the paper's attack is 'opportunistic' for exactly\n"
      "   this reason — and fast guards buy share cheaply)\n");

  // Signature fidelity.
  const auto sig = attack::TrafficSignature::standard();
  util::Rng rng(3);
  int detected = 0, false_pos = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    auto clean = attack::background_trace(rng, 40);
    if (sig.detect(clean)) ++false_pos;
    sig.inject(clean);
    if (sig.detect(clean)) ++detected;
  }
  std::printf("\n==== Traffic-signature fidelity ====\n");
  std::printf("  detection rate:      %.4f\n",
              static_cast<double>(detected) / trials);
  std::printf("  false-positive rate: %.5f\n",
              static_cast<double>(false_pos) / trials);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_sweep();
}
