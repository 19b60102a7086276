// harvest-world: the Sec. II shadow-relay attack at paper fleet size.
// Each repetition builds a World (set-up), steps one warm-up day hour by
// hour, then deploys the harvester fleet and runs its ripen + rotation
// phases. The job is the warm-up day plus deploy and run: 73 sim hours.
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "attack/harvester.hpp"
#include "bench.hpp"
#include "crypto/digest.hpp"
#include "dirauth/ring_cache.hpp"
#include "sim/world.hpp"
#include "util/memo.hpp"

namespace torbench {

using namespace torsim;

int run_harvest(const Args& args, Tracer& tracer, Result& result) {
  const bool trace = tracer.enabled();
  sim::WorldConfig wc;
  wc.seed = args.seed;
  wc.honest_relays = args.smoke ? 200 : 1300;
  wc.threads = args.threads;
  const int services = args.smoke ? 100 : 4000;
  const int warmup_hours = 24;
  attack::HarvesterConfig hc;
  hc.num_ips = args.smoke ? 4 : 58;
  hc.relays_per_ip = args.smoke ? 8 : 48;
  const int rotation_hours = 24;

  const int min_reps = args.min_reps > 0 ? args.min_reps : trace ? 4 : 3;
  std::vector<double> setups, walls, traced_walls, untraced_walls, cpus;
  std::vector<double> step_ms, deploy_s, run_s;
  std::string first_digest;
  double coverage = 0.0, ring_hit_ratio = 0.0;
  std::uint64_t derivations = 0, ring_lookups = 0;
  double derivation_hit_ratio = 0.0;
  std::int64_t descriptors_stored = 0, positions_used = 0;

  // Set-up: the World with its honest relays and services. Each
  // repetition builds its own; a few extra builds up front make
  // setup_s a median of enough samples to be steady.
  const auto build_world = [&](std::optional<sim::World>& world,
                               std::set<std::string>& truth) {
    const double t0 = now_s();
    Tracer::Span span(tracer, "sim.build");
    world.emplace(wc);
    for (int i = 0; i < services; ++i)
      truth.insert(world->service(world->add_service()).onion_address());
    setups.push_back(now_s() - t0);
  };
  for (int i = 0; i < 8; ++i) {
    std::optional<sim::World> world;
    std::set<std::string> truth;
    build_world(world, truth);
  }

  const double start = now_s();
  for (int rep = 0; rep < min_reps || now_s() - start < args.seconds; ++rep) {
    util::bump_memo_epoch();
    const bool traced_rep = trace && rep % 2 == 0;
    tracer.set_enabled(traced_rep);

    std::optional<sim::World> world;
    std::set<std::string> truth;
    build_world(world, truth);
    crypto::reset_derivation_cache_stats();
    dirauth::ResponsibleSetCache::reset_stats();

    const double cpu0 = cpu_s();
    const double t0 = now_s();
    attack::HarvestReport report;
    {
      Tracer::Span job(tracer, "harvest.job");
      for (int hour = 0; hour < warmup_hours; ++hour) {
        const double h0 = now_s();
        Tracer::Span span(tracer, "sim.step_hour");
        world->step_hour();
        if (traced_rep) step_ms.push_back((now_s() - h0) * 1e3);
      }
      attack::ShadowHarvester harvester(hc);
      double p0 = now_s();
      {
        Tracer::Span span(tracer, "attack.deploy");
        harvester.deploy(*world);
      }
      if (traced_rep) deploy_s.push_back(now_s() - p0);
      p0 = now_s();
      {
        Tracer::Span span(tracer, "attack.run");
        report = harvester.run(*world, rotation_hours);
      }
      if (traced_rep) run_s.push_back(now_s() - p0);
    }
    const double wall = now_s() - t0;
    walls.push_back(wall);
    (traced_rep ? traced_walls : untraced_walls).push_back(wall);
    cpus.push_back(cpu_s() - cpu0);
    ++result.attempted;

    std::size_t hits = 0;
    Digest digest;
    for (const std::string& onion : report.onions) {
      digest.add(onion);
      hits += truth.count(onion);
    }
    digest.add(report.positions_used);
    std::string hex = digest.hex();
    if (args.inject_mismatch && rep == 1) hex += "-injected";
    if (first_digest.empty()) first_digest = hex;
    if (hex != first_digest)
      result.fail("repetition " + std::to_string(rep) + " digest " + hex +
                  " differs from repetition 0 digest " + first_digest);
    else
      result.digest(hex);
    if (hits == 0) result.fail("the harvest recovered no onion address");

    coverage = static_cast<double>(hits) / static_cast<double>(services);
    positions_used = report.positions_used;
    descriptors_stored = world->network_stats().descriptors_stored;
    const util::CacheStats ring = dirauth::ResponsibleSetCache::stats();
    ring_lookups = ring.lookups();
    ring_hit_ratio = ratio(static_cast<double>(ring.hits),
                           static_cast<double>(ring.lookups()));
    const util::CacheStats derive = crypto::derivation_cache_stats();
    derivations = derive.lookups();
    derivation_hit_ratio = ratio(static_cast<double>(derive.hits),
                                 static_cast<double>(derive.lookups()));
  }
  tracer.set_enabled(trace);

  const double job = median(trace ? untraced_walls : walls);
  result.end_to_end("setup_s", median(setups), "s");
  result.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  result.end_to_end("job_p50_ms", job * 1e3, "ms");
  char line[200];
  std::snprintf(line, sizeof line,
                "harvest-world: %d relays, %d services, %dx%d fleet, %zu "
                "repetitions, harvest_s %.3f, coverage %.3f",
                wc.honest_relays, services, hc.num_ips, hc.relays_per_ip,
                walls.size(), job, coverage);
  result.note(line);
  result.note(samples_line("harvest-world set-ups (s)", setups));
  result.note(samples_line("harvest-world repetitions (s)", walls));

  result.layer("sim.build_s", median(setups), "s");
  result.layer("sim.step_hour_ms.p50", percentile(step_ms, 0.5), "ms");
  result.layer("sim.step_hour_ms.max", percentile(step_ms, 1.0), "ms");
  result.layer("attack.deploy_s", median(deploy_s), "s");
  result.layer("attack.run_s", median(run_s), "s");
  result.layer("attack.positions_used", static_cast<double>(positions_used),
               "count");
  result.layer("attack.coverage", coverage, "ratio");
  result.layer("dirauth.ring_cache_hit_ratio", ring_hit_ratio, "ratio");
  result.layer("dirauth.ring_lookups", static_cast<double>(ring_lookups),
               "count");
  result.layer("hsdir.descriptors_stored",
               static_cast<double>(descriptors_stored), "count");
  result.layer("crypto.derivations", static_cast<double>(derivations),
               "count");
  result.layer("crypto.derivation_hit_ratio", derivation_hit_ratio, "ratio");
  const double passes = static_cast<double>(trace ? traced_walls.size() : 1);
  const auto self = tracer.self_seconds();
  const auto glue = self.find("harvest.job");
  result.layer("bench.unattributed_s", glue == self.end() ? 0.0 : glue->second / passes,
               "s");
  const double cpu = median(cpus);
  result.layer("cpu_s", cpu, "s");
  result.layer("parallel_efficiency",
               job > 0 ? cpu / (job * args.threads) : 0.0, "ratio");
  result.layer("trace.overhead_ratio",
               trace ? median(traced_walls) / median(untraced_walls) - 1.0
                     : 0.0,
               "ratio");
  return 0;
}

}  // namespace torbench
