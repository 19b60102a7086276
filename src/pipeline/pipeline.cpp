#include "pipeline/pipeline.hpp"

#include "attack/signature.hpp"
#include "popularity/request_generator.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace torsim::pipeline {
namespace {

struct AttackRun {
  attack::DeanonymizationReport report;
  double guard_share = 0.0;  ///< attacker share of guard bandwidth
};

/// One Sec. VI attack, seeded as geomap's row of the seed schedule: a
/// 300-relay world with one target service, `guards` attacker guards,
/// HSDirs ground onto the target's descriptor ids, and `clients` clients
/// at addresses drawn by `address` fetching the descriptor `rounds`
/// times each.
template <typename Address>
AttackRun run_attack(std::uint64_t seed, int guards, int clients, int rounds,
                     Address address) {
  sim::World world({.seed = seed, .honest_relays = 300,
                    .record_archive = false});
  const auto target = world.add_service();
  attack::ClientDeanonymizer attacker({.guard_relays = guards});
  if (guards > 0) attacker.deploy_guards(world);
  attacker.position_hsdirs(world, world.service(target));
  world.step_hour();

  util::Rng address_rng(seed + 1);
  util::Rng trace_rng(seed + 2);
  const auto onion = world.service(target).onion_address();
  for (int i = 0; i < clients; ++i) {
    hs::Client client(address(address_rng),
                      seed + 100 + static_cast<std::uint64_t>(i));
    client.maintain(world.consensus(), world.now());
    for (int r = 0; r < rounds; ++r)
      attacker.observe_fetch(
          client.fetch_descriptor(onion, world.consensus(),
                                  world.directories(), world.now()),
          trace_rng);
  }

  // Guard selection is bandwidth-weighted, so the attacker's share is of
  // guard bandwidth, not of guard count.
  double total_bw = 0.0, attacker_bw = 0.0;
  for (const auto* g : world.consensus().with_flag(dirauth::Flag::kGuard)) {
    total_bw += g->bandwidth_kbps;
    for (const auto id : attacker.guard_ids())
      if (g->relay == id) attacker_bw += g->bandwidth_kbps;
  }
  return {attacker.report(), total_bw > 0.0 ? attacker_bw / total_bw : 0.0};
}

}  // namespace

population::Population population(const Config& config) {
  return population::Population::generate(
      {.seed = config.seed, .scale = config.scale});
}

scan::ScanReport scan(const Config& config,
                      const population::Population& pop) {
  return scan::PortScanner({.seed = config.seed + 1,
                            .threads = config.threads,
                            .faults = config.faults,
                            .metrics = config.metrics})
      .scan(pop);
}

scan::CertReport cert(const population::Population& pop,
                      const scan::ScanReport& scan_report) {
  return scan::analyse_certificates(pop, scan_report);
}

scan::CrawlReport crawl(const Config& config,
                        const population::Population& pop,
                        const scan::ScanReport& scan_report) {
  const int visits =
      config.faults.enabled() ? config.faults.retry.max_attempts : 1;
  return scan::Crawler({.seed = config.seed + 4,
                        .faults = config.faults,
                        .revisit_attempts = visits,
                        .metrics = config.metrics})
      .crawl(pop, scan_report);
}

content::PipelineResult classify(const Config& config,
                                 const scan::CrawlReport& crawl_report) {
  util::Rng rng(config.seed + 2);
  const auto classifier = content::TopicClassifier::make_default(rng);
  return content::ContentPipeline(classifier,
                                  content::LanguageDetector::instance(),
                                  {.threads = config.threads})
      .run(crawl_report.pages);
}

popularity::ResolutionReport resolve(const Config& config,
                                     const population::Population& pop) {
  const auto stream = popularity::RequestGenerator(
                          {.seed = config.seed + 3, .metrics = config.metrics})
                          .generate(pop);
  popularity::DescriptorResolver resolver(
      {.threads = config.threads, .metrics = config.metrics});
  resolver.build_dictionary(pop);
  return resolver.resolve(stream, pop);
}

popularity::BotnetInferenceReport botnet(
    const popularity::ResolutionReport& ranking,
    const population::Population& pop) {
  return popularity::infer_botnet_infrastructure(ranking, pop);
}

GeoMap geomap(const Config& config) {
  const int clients = 400;
  const auto geodb = geo::GeoDatabase::standard();
  auto report = run_attack(config.seed + 5, 40, clients, 3,
                           [&](util::Rng& rng) {
                             return geodb.sample_global(rng);
                           })
                    .report;
  const std::vector<util::Ipv4> ips(report.client_addresses.begin(),
                                    report.client_addresses.end());
  return {clients, std::move(report), geo::build_client_map(ips, geodb)};
}

Deanon deanon(const Config& config) {
  Deanon out;
  for (const int guards : {0, 5, 10, 20, 40, 80}) {
    const auto run = run_attack(config.seed + 6 + guards, guards, 150, 2,
                                util::Ipv4::random_public);
    const auto fetches = static_cast<double>(run.report.fetches_observed);
    out.sweep.push_back(
        {guards, run.guard_share,
         static_cast<double>(run.report.signatures_injected) / fetches,
         static_cast<double>(run.report.deanonymized) / fetches});
  }
  const auto signature = attack::TrafficSignature::standard();
  util::Rng rng(config.seed + 6);
  out.signature_trials = 20000;
  for (int i = 0; i < out.signature_trials; ++i) {
    auto trace = attack::background_trace(rng, 40);
    if (signature.detect(trace)) ++out.false_positives;
    signature.inject(trace);
    if (signature.detect(trace)) ++out.detected;
  }
  return out;
}

trackdet::SilkroadStudy trackdet(const Config& config) {
  return trackdet::run_silkroad_study(config.seed);
}

}  // namespace torsim::pipeline
