// Differential gate for RequestGenerator's per-period id derivation:
// the generator derives each requested service's ids once per period
// and picks a replica from that list. The oracle is the plain loop it
// replaced — one crypto::descriptor_id per request, with the same RNG
// draws in the same order. Real requests only (phantom share 0), whole
// streams compared: every id and every time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "crypto/digest.hpp"
#include "popularity/request_generator.hpp"
#include "population/population.hpp"
#include "util/rng.hpp"

namespace torsim::popularity {
namespace {

using population::Population;

const Population& test_population() {
  static const Population pop = [] {
    population::PopulationConfig config;
    config.seed = 321;
    config.scale = 0.05;
    return Population::generate(config);
  }();
  return pop;
}

struct OracleStream {
  RequestStream stream;
  /// Requested services whose period changed inside the window (skewed
  /// clocks aside).
  int rotating_services = 0;
};

OracleStream oracle_generate(const RequestGeneratorConfig& config,
                             const Population& pop) {
  util::Rng rng(config.seed);
  OracleStream out;
  RequestStream& stream = out.stream;
  const util::UnixTime t0 = config.window_start;
  const double window_2h_units =
      static_cast<double>(config.window_length) /
      static_cast<double>(2 * util::kSecondsPerHour);
  for (const Population::ServiceRef svc : pop.services()) {
    if (svc.requests_per_2h() <= 0.0) continue;
    const std::int64_t n =
        rng.poisson(svc.requests_per_2h() * window_2h_units);
    if (n == 0) continue;
    ++stream.real_ids;
    const auto permanent_id =
        crypto::permanent_id_from_fingerprint(svc.key().fingerprint());
    std::set<std::uint32_t> window_periods;
    for (std::int64_t i = 0; i < n; ++i) {
      DescriptorRequest req;
      req.time = t0 + rng.uniform_int(0, config.window_length - 1);
      util::UnixTime derive_time = req.time;
      const double clock_roll = rng.uniform01();
      if (clock_roll < 0.01)
        derive_time -= util::kSecondsPerDay;
      else if (clock_roll < 0.02)
        derive_time += util::kSecondsPerDay;
      const auto replica = static_cast<std::uint8_t>(
          rng.uniform_int(0, crypto::kNumReplicas - 1));
      window_periods.insert(crypto::time_period(req.time, permanent_id));
      req.descriptor_id = crypto::descriptor_id(
          permanent_id, crypto::time_period(derive_time, permanent_id),
          replica);
      stream.requests.push_back(req);
      ++stream.real_requests;
    }
    if (window_periods.size() > 1) ++out.rotating_services;
  }
  std::sort(stream.requests.begin(), stream.requests.end(),
            [](const DescriptorRequest& a, const DescriptorRequest& b) {
              return a.time < b.time;
            });
  return out;
}

void expect_same_stream(const RequestStream& got, const RequestStream& want) {
  EXPECT_EQ(got.real_requests, want.real_requests);
  EXPECT_EQ(got.real_ids, want.real_ids);
  EXPECT_EQ(got.phantom_requests, 0);
  EXPECT_EQ(got.phantom_ids, 0);
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    ASSERT_EQ(got.requests[i].time, want.requests[i].time) << "request " << i;
    ASSERT_EQ(got.requests[i].descriptor_id, want.requests[i].descriptor_id)
        << "request " << i;
  }
}

TEST(RequestGeneratorDiffTest, PaperWindowMatchesPerRequestDerivation) {
  for (const std::uint64_t seed : {1305u, 78u}) {
    RequestGeneratorConfig config;
    config.seed = seed;
    config.window_start = util::make_utc(2013, 2, 4, 10, 0, 0);
    config.phantom_request_share = 0.0;
    const OracleStream want = oracle_generate(config, test_population());
    ASSERT_GT(want.stream.real_requests, 0);
    expect_same_stream(RequestGenerator(config).generate(test_population()),
                       want.stream);
  }
}

TEST(RequestGeneratorDiffTest, PeriodsRotatingInsideWindowMatch) {
  // An 8 h window from 20:00: services rotate at times spread over the
  // day by their first id byte, so about a third of them change period
  // inside it, and with +-1 day of clock skew one service can ask for
  // up to four periods. A wrong replica, or a period served from the
  // wrong list entry, changes some request's id.
  RequestGeneratorConfig config;
  config.seed = 9;
  config.window_start = util::make_utc(2013, 2, 4, 20, 0, 0);
  config.window_length = 8 * util::kSecondsPerHour;
  config.phantom_request_share = 0.0;
  const OracleStream want = oracle_generate(config, test_population());
  ASSERT_GT(want.stream.real_ids, 0);
  EXPECT_GT(want.rotating_services * 5, want.stream.real_ids)
      << "a fifth of the requested services should rotate in the window";
  expect_same_stream(RequestGenerator(config).generate(test_population()),
                     want.stream);
}

}  // namespace
}  // namespace torsim::popularity
