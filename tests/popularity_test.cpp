#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"

namespace torsim::popularity {
namespace {

using population::Population;
using population::PopulationConfig;

const Population& test_population() {
  static const Population pop = [] {
    PopulationConfig config;
    config.seed = 321;
    config.scale = 0.05;
    return Population::generate(config);
  }();
  return pop;
}

const RequestStream& test_stream() {
  static const RequestStream stream = [] {
    RequestGenerator generator;
    return generator.generate(test_population());
  }();
  return stream;
}

struct ResolvedFixture {
  DescriptorResolver resolver;
  ResolutionReport report;
  ResolvedFixture() {
    resolver.build_dictionary(test_population());
    report = resolver.resolve(test_stream(), test_population());
  }
};

const ResolvedFixture& resolved() {
  static const ResolvedFixture fixture;
  return fixture;
}

// ---------------------------------------------------------------------
// request generator
// ---------------------------------------------------------------------

TEST(RequestGeneratorTest, PhantomShareNear80Percent) {
  const auto& stream = test_stream();
  const double share =
      static_cast<double>(stream.phantom_requests) /
      static_cast<double>(stream.phantom_requests + stream.real_requests);
  EXPECT_NEAR(share, 0.80, 0.03);
}

TEST(RequestGeneratorTest, RequestsSortedByTime) {
  const auto& stream = test_stream();
  for (std::size_t i = 1; i < stream.requests.size(); ++i)
    EXPECT_LE(stream.requests[i - 1].time, stream.requests[i].time);
}

TEST(RequestGeneratorTest, RequestsWithinWindow) {
  const auto& stream = test_stream();
  const util::UnixTime t0 = util::make_utc(2013, 2, 4, 10, 0, 0);
  for (const auto& req : stream.requests) {
    EXPECT_GE(req.time, t0);
    EXPECT_LT(req.time, t0 + 2 * util::kSecondsPerHour);
  }
}

TEST(RequestGeneratorTest, PhantomVolumeDegradesToZero) {
  // A window with no real traffic must produce no phantom traffic
  // either — volume AND fabricated IDs degrade together, otherwise a
  // lone zero-request phantom id would skew the Table II denominators.
  population::Population pop = test_population();
  for (population::ServiceId id = 0; id < pop.size(); ++id)
    pop.set_requests_per_2h(id, 0.0);
  const RequestStream stream = RequestGenerator().generate(pop);
  EXPECT_EQ(stream.real_requests, 0);
  EXPECT_EQ(stream.phantom_requests, 0);
  EXPECT_EQ(stream.real_ids, 0);
  EXPECT_EQ(stream.phantom_ids, 0);
  EXPECT_TRUE(stream.requests.empty());
}

TEST(RequestGeneratorTest, SkewedClockIdsComeFromAdjacentDayPeriods) {
  // ~2% of clients derive with a clock skewed by ±1 day. Every emitted
  // descriptor ID must therefore appear in the multi-day candidate
  // table the resolver builds: the window's periods plus one day on
  // either side, for both replicas of every requested service.
  RequestGeneratorConfig config;
  config.phantom_request_share = 0.0;  // real requests only
  const RequestStream stream = RequestGenerator(config).generate(
      test_population());
  ASSERT_GT(stream.real_requests, 0);
  EXPECT_EQ(stream.phantom_requests, 0);

  const util::UnixTime t0 = util::make_utc(2013, 2, 4, 10, 0, 0);
  std::set<crypto::DescriptorId> candidates;
  for (const auto svc : test_population().services()) {
    if (svc.requests_per_2h() <= 0.0) continue;
    const auto pid =
        crypto::permanent_id_from_fingerprint(svc.key().fingerprint());
    for (int day = -1; day <= 1; ++day) {
      const util::UnixTime base = t0 + day * util::kSecondsPerDay;
      // Periods can roll over mid-window (id-dependent offset), so
      // derive at both window edges.
      for (const util::UnixTime t : {base, base + config.window_length - 1})
        for (const auto& id : crypto::descriptor_ids_for_period(
                 pid, crypto::time_period(t, pid)))
          candidates.insert(id);
    }
  }
  for (const auto& req : stream.requests)
    EXPECT_EQ(candidates.count(req.descriptor_id), 1u);

  // The resolver's default derivation window spans those same days, so
  // every skewed request must still resolve.
  DescriptorResolver resolver;
  resolver.build_dictionary(test_population());
  const auto report = resolver.resolve(stream, test_population());
  EXPECT_EQ(report.resolved_requests, stream.real_requests);
}

TEST(RequestGeneratorTest, HeadServiceGetsHeadVolume) {
  // The rank-1 Goldnet service should see roughly its configured
  // 13,714 requests per 2h.
  const auto& pop = test_population();
  std::optional<population::Population::ServiceRef> goldnet1;
  for (const auto svc : pop.services())
    if (svc.paper_rank() == 1) goldnet1 = svc;
  ASSERT_TRUE(goldnet1.has_value());

  std::map<crypto::DescriptorId, std::int64_t> counts;
  for (const auto& req : test_stream().requests) ++counts[req.descriptor_id];

  const auto pid =
      crypto::permanent_id_from_fingerprint(goldnet1->key().fingerprint());
  const util::UnixTime t0 = util::make_utc(2013, 2, 4, 10, 0, 0);
  std::int64_t total = 0;
  for (int day = -1; day <= 1; ++day) {
    const auto period =
        crypto::time_period(t0 + day * util::kSecondsPerDay, pid);
    for (std::uint8_t replica = 0; replica < 2; ++replica)
      total += counts[crypto::descriptor_id(pid, period, replica)];
  }
  EXPECT_NEAR(static_cast<double>(total), 13714.0, 500.0);
}

TEST(RequestGeneratorTest, DeterministicForSeed) {
  RequestGenerator g1(RequestGeneratorConfig{.seed = 5});
  RequestGenerator g2(RequestGeneratorConfig{.seed = 5});
  const auto a = g1.generate(test_population());
  const auto b = g2.generate(test_population());
  EXPECT_EQ(a.requests.size(), b.requests.size());
  EXPECT_EQ(a.real_requests, b.real_requests);
}

TEST(RequestGeneratorTest, ShorterWindowFewerRequests) {
  RequestGeneratorConfig config;
  config.seed = 6;
  config.window_length = util::kSecondsPerHour / 2;
  const auto small = RequestGenerator(config).generate(test_population());
  EXPECT_LT(small.real_requests, test_stream().real_requests / 2);
}

TEST(RequestGeneratorTest, RejectsEmptyOrNegativeWindow) {
  for (const util::Seconds length : {util::Seconds{0}, util::Seconds{-3600}}) {
    RequestGeneratorConfig config;
    config.window_length = length;
    EXPECT_THROW(RequestGenerator{config}, std::invalid_argument) << length;
  }
}

TEST(RequestGeneratorTest, RejectsWindowBeyondThirtyTwoBitOffsets) {
  RequestGeneratorConfig config;
  config.window_length = (std::int64_t{1} << 32) + 1;
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
  config.window_length = std::int64_t{1} << 32;
  EXPECT_NO_THROW(RequestGenerator{config});
}

TEST(RequestGeneratorTest, RejectsNanPhantomShare) {
  RequestGeneratorConfig config;
  config.phantom_request_share = std::nan("");
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
}

TEST(RequestGeneratorTest, RejectsInfinitePhantomShare) {
  RequestGeneratorConfig config;
  config.phantom_request_share = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
}

TEST(RequestGeneratorTest, RejectsNegativePhantomShare) {
  RequestGeneratorConfig config;
  config.phantom_request_share = -0.1;
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
}

TEST(RequestGeneratorTest, RejectsPhantomShareOfOne) {
  RequestGeneratorConfig config;
  config.phantom_request_share = 1.0;
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
  config.phantom_request_share = 0.0;
  EXPECT_NO_THROW(RequestGenerator{config});
}

TEST(RequestGeneratorTest, RejectsNanPhantomIdRatio) {
  RequestGeneratorConfig config;
  config.phantom_id_ratio = std::nan("");
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
}

TEST(RequestGeneratorTest, RejectsInfinitePhantomIdRatio) {
  RequestGeneratorConfig config;
  config.phantom_id_ratio = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
}

TEST(RequestGeneratorTest, RejectsNegativePhantomIdRatio) {
  RequestGeneratorConfig config;
  config.phantom_id_ratio = -1.0;
  EXPECT_THROW(RequestGenerator{config}, std::invalid_argument);
  config.phantom_id_ratio = 0.0;
  EXPECT_NO_THROW(RequestGenerator{config});
}

// ---------------------------------------------------------------------
// resolver
// ---------------------------------------------------------------------

TEST(ResolverTest, DictionaryCoversDerivationWindow) {
  // Every id an onion derives on any day of the default window
  // (28 Jan – 8 Feb 2013, 12 days x 2 replicas) resolves to that onion.
  const Population& pop = test_population();
  std::vector<crypto::DescriptorId> ids;
  std::vector<std::optional<std::string>> want;
  for (population::ServiceId id = 0; id < pop.size(); ++id) {
    const crypto::PermanentId pid = pop.permanent_id(id);
    for (util::UnixTime t = util::make_utc(2013, 1, 28);
         t < util::make_utc(2013, 2, 9); t += util::kSecondsPerDay)
      for (const crypto::DescriptorId& derived :
           crypto::descriptor_ids_for_period(pid,
                                             crypto::time_period(t, pid))) {
        ids.push_back(derived);
        want.emplace_back(pop.onion(id));
      }
  }
  ASSERT_EQ(ids.size(), pop.size() * 24);
  const DescriptorResolver& resolver = resolved().resolver;
  const std::vector<std::uint32_t> got = resolver.resolve_ids(ids);
  ASSERT_EQ(got.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(got[i], DescriptorResolver::kUnresolved) << "id " << i;
    ASSERT_EQ(resolver.onion(got[i]), want[i]) << "id " << i;
  }
}

TEST(ResolverTest, UnresolvedShareMatchesPaper) {
  const auto& report = resolved().report;
  // ~80% of requests target never-published descriptors.
  EXPECT_NEAR(report.unresolved_request_share(), 0.80, 0.04);
}

TEST(ResolverTest, ResolvedIdsAreMinorityOfUnique) {
  const auto& report = resolved().report;
  // Paper: 6,113 resolved of 29,123 unique ids (~21%).
  const double share = static_cast<double>(report.resolved_descriptor_ids) /
                       static_cast<double>(report.unique_descriptor_ids);
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.45);
}

TEST(ResolverTest, RankingHeadMatchesTable2Order) {
  const auto& report = resolved().report;
  ASSERT_GE(report.ranking.size(), 10u);
  // Top-3 must be the Goldnet head, in order.
  EXPECT_EQ(report.ranking[0].paper_rank, 1);
  EXPECT_EQ(report.ranking[1].paper_rank, 2);
  EXPECT_EQ(report.ranking[2].paper_rank, 3);
  EXPECT_EQ(report.ranking[0].label, "Goldnet");
}

TEST(ResolverTest, BotnetsDominateTheHead) {
  const auto& report = resolved().report;
  int botnet_rows = 0;
  for (std::size_t i = 0; i < 10 && i < report.ranking.size(); ++i) {
    const auto& label = report.ranking[i].label;
    if (label == "Goldnet" || label == "Skynet" || label == "BcMine" ||
        label == "Unknown")
      ++botnet_rows;
  }
  EXPECT_GE(botnet_rows, 8);  // Table II: 10 of the top 10
}

TEST(ResolverTest, SilkRoadNearRank18) {
  const auto& report = resolved().report;
  int rank = 0;
  for (std::size_t i = 0; i < report.ranking.size(); ++i)
    if (report.ranking[i].label == "SilkRoad") rank = static_cast<int>(i) + 1;
  ASSERT_GT(rank, 0);
  EXPECT_GE(rank, 12);
  EXPECT_LE(rank, 26);
}

TEST(ResolverTest, RelativeOrderOfNamedServices) {
  const auto& report = resolved().report;
  const auto rank_of = [&](const std::string& label) {
    for (std::size_t i = 0; i < report.ranking.size(); ++i)
      if (report.ranking[i].label == label) return static_cast<int>(i);
    return -1;
  };
  const int silkroad = rank_of("SilkRoad");
  const int freedom = rank_of("FreedomHosting");
  const int bmr = rank_of("BlackMarketReloaded");
  const int ddg = rank_of("DuckDuckGo");
  ASSERT_GE(silkroad, 0);
  ASSERT_GE(freedom, 0);
  ASSERT_GE(bmr, 0);
  ASSERT_GE(ddg, 0);
  // Paper order: SilkRoad (18) < FreedomHosting (27) < BMR (62) < DDG (157).
  EXPECT_LT(silkroad, freedom);
  EXPECT_LT(freedom, bmr);
  EXPECT_LT(bmr, ddg);
}

TEST(ResolverTest, RequestCountsApproximateTable2) {
  const auto& report = resolved().report;
  for (const auto& row : report.ranking) {
    if (row.paper_rank == 1) {
      EXPECT_NEAR(static_cast<double>(row.requests), 13714.0, 700.0);
    }
    if (row.paper_rank == 18) {
      EXPECT_NEAR(static_cast<double>(row.requests), 1175.0, 200.0);
    }
  }
}

TEST(ResolverTest, ResolvedOnionsExistInPopulation) {
  const auto& report = resolved().report;
  const auto& pop = test_population();
  for (const auto& row : report.ranking)
    EXPECT_TRUE(pop.find(row.onion).has_value()) << row.onion;
}

TEST(ResolverTest, EmptyStreamProducesEmptyReport) {
  DescriptorResolver resolver;
  resolver.build_dictionary(test_population());
  RequestStream empty;
  const auto report = resolver.resolve(empty, test_population());
  EXPECT_EQ(report.total_requests, 0);
  EXPECT_EQ(report.resolved_onions, 0);
  EXPECT_TRUE(report.ranking.empty());
  EXPECT_DOUBLE_EQ(report.unresolved_request_share(), 0.0);
}

}  // namespace
}  // namespace torsim::popularity

// ---------------------------------------------------------------------
// botnet-infrastructure inference (the "Goldnet" detective work)
// ---------------------------------------------------------------------
#include "popularity/botnet_inference.hpp"

namespace torsim::popularity {
namespace {

TEST(BotnetInferenceTest, FindsGoldnetFronts) {
  const auto report =
      infer_botnet_infrastructure(resolved().report, test_population());
  // All nine Goldnet/Unknown fronts match the C&C fingerprint.
  EXPECT_EQ(report.cnc_candidates.size(), 9u);
  for (const auto& fp : report.cnc_candidates) {
    EXPECT_TRUE(fp.http_503);
    EXPECT_TRUE(fp.server_status_exposed);
    EXPECT_NEAR(fp.traffic_bytes_per_sec, 330.0 * 1024.0, 10000.0);
    EXPECT_NEAR(fp.requests_per_sec, 10.0, 1.5);
  }
}

TEST(BotnetInferenceTest, GroupsIntoTwoPhysicalServers) {
  const auto report =
      infer_botnet_infrastructure(resolved().report, test_population());
  ASSERT_EQ(report.physical_servers.size(), 2u);
  std::size_t total = 0;
  for (const auto& server : report.physical_servers) {
    EXPECT_GE(server.onions.size(), 4u);
    total += server.onions.size();
    EXPECT_GT(server.apache_uptime_seconds, 0);
  }
  EXPECT_EQ(total, 9u);
  EXPECT_NE(report.physical_servers[0].apache_uptime_seconds,
            report.physical_servers[1].apache_uptime_seconds);
}

TEST(BotnetInferenceTest, OrdinaryPopularServicesNotFlagged) {
  const auto report =
      infer_botnet_infrastructure(resolved().report, test_population());
  for (const auto& fp : report.cnc_candidates) {
    const auto svc = test_population().find(fp.onion);
    ASSERT_TRUE(svc.has_value());
    EXPECT_EQ(svc->klass(), population::ServiceClass::kGoldnetCnC)
        << fp.onion << " labeled " << svc->label();
  }
}

TEST(BotnetInferenceTest, EmptyRankingYieldsEmptyReport) {
  ResolutionReport empty;
  const auto report =
      infer_botnet_infrastructure(empty, test_population());
  EXPECT_TRUE(report.cnc_candidates.empty());
  EXPECT_TRUE(report.physical_servers.empty());
}

}  // namespace
}  // namespace torsim::popularity

// ---------------------------------------------------------------------
// request-rate time series (the "traffic remained constant" observation)
// ---------------------------------------------------------------------
#include "popularity/timeseries.hpp"

namespace torsim::popularity {
namespace {

TEST(TimeSeriesTest, GoldnetRatesAreSteady) {
  const auto report =
      build_time_series(test_stream(), resolved().resolver);
  ASSERT_FALSE(report.series.empty());
  // The highest-volume series is the rank-1 Goldnet front; its per-window
  // rate is machine-steady (Poisson arrivals around a constant mean).
  const auto& head = report.series.front();
  EXPECT_GT(head.mean_rate, 1000.0);
  EXPECT_LT(head.cv, 0.15);
  const auto svc = test_population().find(head.onion);
  ASSERT_TRUE(svc.has_value());
  EXPECT_EQ(svc->paper_rank(), 1);
}

TEST(TimeSeriesTest, WindowCountsSumToResolvedVolume) {
  const auto report =
      build_time_series(test_stream(), resolved().resolver,
                        TimeSeriesConfig{.windows = 4, .min_requests = 1});
  std::int64_t total = 0;
  for (const auto& series : report.series) {
    EXPECT_EQ(series.per_window.size(), 4u);
    for (const auto c : series.per_window) total += c;
  }
  EXPECT_EQ(total, resolved().report.resolved_requests);
}

TEST(TimeSeriesTest, MinRequestFilterApplies) {
  const auto strict =
      build_time_series(test_stream(), resolved().resolver,
                        TimeSeriesConfig{.windows = 6, .min_requests = 500});
  for (const auto& series : strict.series) {
    std::int64_t total = 0;
    for (const auto c : series.per_window) total += c;
    EXPECT_GE(total, 500);
  }
}

TEST(TimeSeriesTest, OrderingIsTotalAndStableAcrossRuns) {
  // Regression for a latent order dependence: series used to be sorted
  // by mean_rate alone, so equal-rate services appeared in hash order of
  // the bucket map. The sort now tie-breaks on the onion address; the
  // report order must be a total order with no hash-order residue.
  const TimeSeriesConfig config{.windows = 4, .min_requests = 1};
  const auto report =
      build_time_series(test_stream(), resolved().resolver, config);
  ASSERT_GT(report.series.size(), 1u);
  for (std::size_t i = 1; i < report.series.size(); ++i) {
    const auto& prev = report.series[i - 1];
    const auto& cur = report.series[i];
    const bool ordered =
        prev.mean_rate > cur.mean_rate ||
        (prev.mean_rate == cur.mean_rate && prev.onion < cur.onion);
    EXPECT_TRUE(ordered) << "series[" << i - 1 << "]=" << prev.onion
                         << " rate " << prev.mean_rate << " vs series["
                         << i << "]=" << cur.onion << " rate "
                         << cur.mean_rate;
  }
  // And the full ordering replays identically.
  const auto again =
      build_time_series(test_stream(), resolved().resolver, config);
  ASSERT_EQ(again.series.size(), report.series.size());
  for (std::size_t i = 0; i < report.series.size(); ++i)
    EXPECT_EQ(again.series[i].onion, report.series[i].onion);
}

TEST(TimeSeriesTest, EmptyStream) {
  RequestStream empty;
  const auto report = build_time_series(empty, resolved().resolver);
  EXPECT_TRUE(report.series.empty());
}

}  // namespace
}  // namespace torsim::popularity

namespace torsim::popularity {
namespace {

TEST(CategorySharesTest, BotnetsDominateRequestVolume) {
  const auto shares =
      category_shares(resolved().report, test_population());
  EXPECT_GT(shares.total_requests, 0);
  // The paper's conclusion: the most popular services are botnet C&C.
  EXPECT_GT(shares.botnet, 0.60);
  EXPECT_GT(shares.botnet, shares.adult);
  EXPECT_GT(shares.adult, shares.market);
  EXPECT_NEAR(shares.botnet + shares.adult + shares.market + shares.other,
              1.0, 1e-9);
}

}  // namespace
}  // namespace torsim::popularity
