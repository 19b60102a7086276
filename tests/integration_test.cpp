// End-to-end integration: the full measurement pipeline of the paper on
// one small world — harvest onions with the shadowing attack, port-scan
// the harvested population, crawl + classify content, measure
// popularity through the attacker's HSDir logs, and geolocate
// deanonymised clients.
#include <gtest/gtest.h>

#include <set>

#include "attack/deanonymizer.hpp"
#include "attack/harvester.hpp"
#include "content/pipeline.hpp"
#include "geo/client_map.hpp"
#include "popularity/resolver.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "sim/world.hpp"

namespace torsim {
namespace {

TEST(IntegrationTest, HarvestThenMeasurePipeline) {
  // --- 1. A world hosting a small calibrated population ---------------
  population::PopulationConfig pc;
  pc.seed = 1000;
  pc.scale = 0.02;  // ~800 services
  auto pop = population::Population::generate(pc);

  sim::WorldConfig wc;
  wc.seed = 1001;
  wc.honest_relays = 200;
  sim::World world(wc);

  // Only *published* services run a live hidden-service host.
  std::set<std::string> published;
  for (const auto svc : pop.services()) {
    if (!svc.published_at_scan()) continue;
    world.add_service(crypto::KeyPair::from_public_bytes(
        svc.key().public_bytes()));
    published.emplace(svc.onion());
  }

  // --- 2. Shadow harvest ----------------------------------------------
  attack::HarvesterConfig hc;
  hc.num_ips = 12;
  hc.relays_per_ip = 12;
  attack::ShadowHarvester harvester(hc);
  harvester.deploy(world);
  const auto harvest = harvester.run(world, 24);

  // The harvest recovers a solid majority of the published population.
  std::size_t recovered = 0;
  for (const auto& onion : harvest.onions)
    if (published.count(onion)) ++recovered;
  EXPECT_GT(recovered, published.size() / 2);
  // And nothing that was never published.
  for (const auto& onion : harvest.onions)
    EXPECT_TRUE(published.count(onion)) << onion;

  // --- 3. Port scan of the harvested addresses ------------------------
  scan::PortScanner scanner;
  const auto scan_report = scanner.scan(pop);
  EXPECT_GT(scan_report.open_ports.count(net::kPortSkynet), 0);
  EXPECT_GT(scan_report.open_ports.count(net::kPortHttp), 0);

  const auto certs = scan::analyse_certificates(pop, scan_report);
  EXPECT_GT(certs.certificates_seen, 0);

  // --- 4. Crawl + classify --------------------------------------------
  scan::Crawler crawler;
  const auto crawl = crawler.crawl(pop, scan_report);
  EXPECT_GT(crawl.connected, 0);

  util::Rng rng(1002);
  const auto classifier = content::TopicClassifier::make_default(rng, 25, 100);
  content::ContentPipeline pipeline(classifier,
                                    content::LanguageDetector::instance());
  const auto content_report = pipeline.run(crawl.pages);
  EXPECT_GT(content_report.classified, 0u);
  EXPECT_GT(content_report.english, content_report.classifiable / 2);

  // --- 5. Popularity via request stream + resolution ------------------
  popularity::RequestGeneratorConfig rc;
  rc.seed = 1003;
  popularity::RequestGenerator generator(rc);
  const auto stream = generator.generate(pop);
  popularity::DescriptorResolver resolver;
  resolver.build_dictionary(pop);
  const auto resolution = resolver.resolve(stream, pop);
  ASSERT_FALSE(resolution.ranking.empty());
  EXPECT_EQ(resolution.ranking[0].label, "Goldnet");
  EXPECT_GT(resolution.unresolved_request_share(), 0.6);

  // --- 6. Deanonymise clients of the most popular service -------------
  // (the paper's Fig. 3: Goldnet clients on a map)
  const auto& goldnet_onion = resolution.ranking[0].onion;
  std::size_t goldnet_index = world.service_count();
  for (std::size_t i = 0; i < world.service_count(); ++i)
    if (world.service(i).onion_address() == goldnet_onion) goldnet_index = i;
  ASSERT_LT(goldnet_index, world.service_count());

  attack::DeanonymizerConfig dc;
  dc.guard_relays = 25;
  attack::ClientDeanonymizer deanonymizer(dc);
  deanonymizer.deploy_guards(world);
  deanonymizer.position_hsdirs(world, world.service(goldnet_index));
  world.step_hour();

  const auto geodb = geo::GeoDatabase::standard();
  util::Rng client_rng(1004);
  util::Rng trace_rng(1005);
  for (int i = 0; i < 80; ++i) {
    hs::Client client(geodb.sample_global(client_rng),
                      2000 + static_cast<std::uint64_t>(i));
    client.maintain(world.consensus(), world.now());
    for (int round = 0; round < 2; ++round) {
      const auto outcome = client.fetch_descriptor(
          goldnet_onion, world.consensus(), world.directories(), world.now());
      deanonymizer.observe_fetch(outcome, trace_rng);
    }
  }
  const auto& deanon = deanonymizer.report();
  EXPECT_GT(deanon.deanonymized, 0);

  // --- 7. Fig. 3: the client map --------------------------------------
  std::vector<util::Ipv4> clients;
  for (const auto addr : deanon.client_addresses)
    clients.emplace_back(util::Ipv4(addr));
  const auto map = geo::build_client_map(clients, geodb);
  EXPECT_EQ(map.total_clients,
            static_cast<std::int64_t>(deanon.client_addresses.size()));
  EXPECT_FALSE(map.rows().empty());
}

TEST(IntegrationTest, HarvestedRequestLogsFeedPopularity) {
  // Clients fetch through the directory network while the attacker holds
  // ring positions; the attacker's fetch logs line up with client
  // activity — the mechanism behind the paper's Sec. V numbers.
  sim::WorldConfig wc;
  wc.seed = 1101;
  wc.honest_relays = 150;
  sim::World world(wc);
  const auto index = world.add_service();

  attack::HarvesterConfig hc;
  hc.num_ips = 8;
  hc.relays_per_ip = 8;
  attack::ShadowHarvester harvester(hc);
  harvester.deploy(world);
  (void)harvester.run(world, 12);

  // Clients hammer the service.
  const auto onion = world.service(index).onion_address();
  for (int i = 0; i < 40; ++i) {
    hs::Client client(util::Ipv4::random_public(world.rng()),
                      3000 + static_cast<std::uint64_t>(i));
    client.maintain(world.consensus(), world.now());
    (void)client.fetch_descriptor(onion, world.consensus(),
                                  world.directories(), world.now());
  }

  std::int64_t logged = 0;
  for (const auto id : harvester.relay_ids()) {
    const auto* store = world.directories().find_store(id);
    if (store != nullptr)
      logged += static_cast<std::int64_t>(store->fetch_log().size());
  }
  // The attacker's relays saw at least some of the 40 fetches (they hold
  // a large fraction of the ring).
  EXPECT_GT(logged, 0);
}

}  // namespace
}  // namespace torsim

#include "popularity/harvest_stream.hpp"

namespace torsim {
namespace {

TEST(IntegrationTest, PopularityMeasuredFromHarvestLogsAlone) {
  // The paper's actual Sec. V pipeline: the only inputs are (a) the
  // harvested onion list and (b) the attacker HSDirs' fetch logs.
  sim::WorldConfig wc;
  wc.seed = 1201;
  wc.honest_relays = 150;
  sim::World world(wc);

  // Three services with very different popularity.
  struct Target {
    std::size_t index;
    int fetches;
  };
  std::vector<Target> targets = {{world.add_service(), 12},
                                 {world.add_service(), 4},
                                 {world.add_service(), 1}};

  attack::HarvesterConfig hc;
  hc.num_ips = 10;
  hc.relays_per_ip = 10;
  attack::ShadowHarvester harvester(hc);
  harvester.deploy(world);

  // Client activity happens *during* the rotation — as in the real
  // attack, where the 24 h ring sweep is exactly what exposes the
  // attacker to a representative sample of everyone's fetches.
  int seed = 0;
  world.set_post_consensus_hook([&](sim::World& w) {
    for (const auto& target : targets) {
      const auto onion = w.service(target.index).onion_address();
      for (int i = 0; i < target.fetches; ++i) {
        hs::Client client(util::Ipv4::random_public(w.rng()),
                          4000 + static_cast<std::uint64_t>(seed++));
        client.maintain(w.consensus(), w.now());
        (void)client.fetch_descriptor(onion, w.consensus(),
                                      w.directories(), w.now());
      }
    }
  });
  const auto harvest = harvester.run(world, 12);
  world.set_post_consensus_hook(nullptr);

  // Analyst side: onion list from the harvest, requests from the logs.
  const auto stream = popularity::stream_from_fetch_logs(
      world.directories(), harvester.relay_ids());
  ASSERT_GT(stream.requests.size(), 0u);

  popularity::ResolverConfig rc;
  rc.derive_from = world.now() - 3 * util::kSecondsPerDay;
  rc.derive_to = world.now() + util::kSecondsPerDay;
  popularity::DescriptorResolver resolver(rc);
  std::vector<crypto::PermanentId> onions;
  for (const std::string& onion : harvest.onions)
    onions.push_back(crypto::parse_onion_address(onion));
  resolver.build_dictionary(onions);
  const auto report = resolver.resolve(stream);

  // The attacker's partial view still recovers the popularity *order*.
  ASSERT_GE(report.ranking.size(), 2u);
  std::map<std::string, std::int64_t> measured;
  for (const auto& row : report.ranking) measured[row.onion] = row.requests;
  const auto count_of = [&](std::size_t index) {
    return measured[world.service(index).onion_address()];
  };
  EXPECT_GT(count_of(targets[0].index), count_of(targets[1].index));
  EXPECT_GE(count_of(targets[1].index), count_of(targets[2].index));
}

}  // namespace
}  // namespace torsim
