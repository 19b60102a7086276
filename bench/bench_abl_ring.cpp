// Ablation: the ring-position "distance ratio" statistic.
//
// Sec. VII's most reliable rule compares avg_dist/distance for
// responsible HSDirs. We measure the ratio's distribution for honest
// (random-fingerprint) rings vs. positioned (key-ground) relays across
// grinding budgets, validating the paper's thresholds (honest ~ O(1),
// their own relays > 100, the May campaign > 10k).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "attack/grinding.hpp"
#include "crypto/digest.hpp"
#include "dirauth/consensus.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace {

using namespace torsim;

// Ratio of the first responsible HSDir in an honest ring of size n.
double honest_first_ratio(util::Rng& rng, int n) {
  crypto::DescriptorId target;
  rng.fill_bytes(target.data(), target.size());
  double best = std::ldexp(1.0, 160);
  for (int i = 0; i < n; ++i) {
    crypto::Sha1Digest fp;
    rng.fill_bytes(fp.data(), fp.size());
    best = std::min(best, crypto::ring_distance(target, fp));
  }
  const double avg = std::ldexp(1.0, 160) / n;
  return avg / best;
}

void BM_GrindToBeatRing(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  util::Rng rng(70);
  crypto::DescriptorId target;
  rng.fill_bytes(target.data(), target.size());
  for (auto _ : state) {
    // Beat an n-relay ring: land within 1/(4n) of the ring.
    auto result =
        attack::grind_key_after(target, 0.25 / n, rng, 10'000'000);
    benchmark::DoNotOptimize(result->attempts);
  }
}
BENCHMARK(BM_GrindToBeatRing)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

// A synthetic consensus of `n` HSDir relays with random fingerprints —
// the ring every publish/fetch walks.
dirauth::Consensus make_ring_consensus(int n) {
  util::Rng rng(72);
  std::vector<dirauth::ConsensusEntry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    dirauth::ConsensusEntry e;
    e.relay = static_cast<relay::RelayId>(i + 1);
    rng.fill_bytes(e.fingerprint.data(), e.fingerprint.size());
    e.flags = dirauth::with_flag(0, dirauth::Flag::kHSDir);
    entries.push_back(e);
  }
  return {0, std::move(entries)};
}

// The 1024 lookup targets the ring-lookup bench walks.
std::vector<crypto::DescriptorId> lookup_ids() {
  util::Rng rng(73);
  std::vector<crypto::DescriptorId> ids(1024);
  for (auto& id : ids) rng.fill_bytes(id.data(), id.size());
  return ids;
}

// Ring-lookup microbench: the fetch-path responsible-set resolution,
// one eytzinger descent per id (Consensus::responsible_hsdirs_into).
void BM_RingLookup(benchmark::State& state) {
  const dirauth::Consensus consensus = make_ring_consensus(1300);
  const std::vector<crypto::DescriptorId> ids = lookup_ids();
  for (auto _ : state) {
    std::size_t sink = 0;
    const dirauth::ConsensusEntry* dirs[crypto::kHsDirsPerReplica];
    for (const auto& id : ids)
      sink += consensus.responsible_hsdirs_into(id, dirs,
                                                crypto::kHsDirsPerReplica);
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_RingLookup);

// Derivation fixture: 32 services x 8 consecutive time periods — the
// resolver's dictionary-builder shape (many days per onion).
std::vector<crypto::PermanentId> derive_pids() {
  util::Rng rng(74);
  std::vector<crypto::PermanentId> pids(32);
  for (auto& pid : pids) rng.fill_bytes(pid.data(), pid.size());
  return pids;
}

std::vector<std::uint32_t> derive_periods() {
  std::vector<std::uint32_t> periods(8);
  for (std::size_t p = 0; p < periods.size(); ++p)
    periods[p] = 16000 + static_cast<std::uint32_t>(p);
  return periods;
}

// Descriptor ids of every fixture period, one secret table for all
// services.
std::vector<crypto::DescriptorId> derive_ids(
    const crypto::PermanentId& pid,
    const std::vector<crypto::Sha1Digest>& secrets) {
  std::vector<crypto::DescriptorId> ids(secrets.size());
  crypto::descriptor_ids_for_periods(pid, secrets, ids);
  return ids;
}

// Descriptor-id derivation through the lane-batched kernel
// (crypto/sha1_batch.hpp): the secret table once per iteration, then
// each service's combine digests.
void BM_DeriveDescriptorIds(benchmark::State& state) {
  const std::vector<crypto::PermanentId> pids = derive_pids();
  const std::vector<std::uint32_t> periods = derive_periods();
  for (auto _ : state) {
    std::size_t sink = 0;
    const auto secrets =
        crypto::secret_id_parts(periods.front(), periods.size());
    for (const auto& pid : pids) {
      const auto ids = derive_ids(pid, secrets);
      sink += ids.size() + ids[0][0];
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_DeriveDescriptorIds);

void print_ablation() {
  std::printf("\n==== Ablation — distance ratio: honest vs positioned ====\n");
  util::Rng rng(71);

  // Honest baseline across ring sizes.
  std::printf("\n  honest rings (first responsible HSDir):\n");
  std::printf("  %-10s %-10s %-10s %-10s\n", "ring size", "median", "p95",
              "max(1k)");
  for (int n : {757, 1300, 1862}) {
    std::vector<double> ratios;
    for (int i = 0; i < 1000; ++i) ratios.push_back(honest_first_ratio(rng, n));
    std::printf("  %-10d %-10.1f %-10.1f %-10.1f\n", n,
                stats::median(ratios), stats::percentile(ratios, 95),
                stats::max(ratios));
  }

  // Positioned relays at the paper's two grinding tightnesses.
  std::printf("\n  positioned relays (key grinding):\n");
  std::printf("  %-22s %-14s %-12s %s\n", "arc (ring fraction)", "mean tries",
              "mean ratio", "paper analogue");
  struct Case {
    double fraction;
    const char* analogue;
  };
  const Case cases[] = {
      {1e-3, "loose placement"},
      {1e-5, "authors' own relays (>100)"},
      {1e-6, "aggressive tracker"},
  };
  const int ring = 1300;
  for (const auto& c : cases) {
    double tries = 0.0, ratio_sum = 0.0;
    const int trials = 5;
    for (int i = 0; i < trials; ++i) {
      crypto::DescriptorId target;
      rng.fill_bytes(target.data(), target.size());
      const auto result =
          attack::grind_key_after(target, c.fraction, rng, 50'000'000);
      tries += static_cast<double>(result->attempts);
      const double avg = std::ldexp(1.0, 160) / ring;
      ratio_sum += avg / result->distance;
    }
    std::printf("  %-22.0e %-14.0f %-12.0f %s\n", c.fraction, tries / trials,
                ratio_sum / trials, c.analogue);
  }
  std::printf(
      "\n  Honest first-responsible ratios concentrate around ~1 and rarely\n"
      "  exceed ~100 even at p95 over a year of periods; ground keys sit\n"
      "  orders of magnitude closer — the separation the detector exploits.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_ablation();
}
