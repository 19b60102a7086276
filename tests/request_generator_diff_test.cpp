// Differential gate for RequestGenerator: the generator derives each
// requested service's ids once per period, hashes the phantom keys and
// ids in SHA-1 lanes, and radix-sorts compact records by time. The
// oracle is the plain loop it replaced — one crypto::descriptor_id per
// real request, one KeyPair::generate and one descriptor_id per phantom
// id, with the same RNG draws in the same order — and a std::stable_sort
// by time (the stream's documented order: ties in generation order).
// Whole streams are compared: every id and every time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "crypto/keypair.hpp"

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
  /// Distinct periods the phantom ids were derived for.
  std::set<std::uint32_t> phantom_periods;
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

  const double share = std::clamp(config.phantom_request_share, 0.0, 0.999);
  const auto phantom_total = static_cast<std::int64_t>(
      static_cast<double>(stream.real_requests) * share / (1.0 - share));
  stream.phantom_ids =
      phantom_total <= 0
          ? std::int64_t{0}
          : std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(stream.real_ids) *
                       config.phantom_id_ratio));
  std::vector<crypto::DescriptorId> ids;
  for (std::int64_t i = 0; i < stream.phantom_ids; ++i) {
    const auto key = crypto::KeyPair::generate(rng);
    const auto pid = crypto::permanent_id_from_fingerprint(key.fingerprint());
    out.phantom_periods.insert(crypto::time_period(t0, pid));
    ids.push_back(crypto::descriptor_id(
        pid, crypto::time_period(t0, pid),
        static_cast<std::uint8_t>(rng.uniform_int(0, 1))));
  }
  std::vector<double> weights(ids.size());
  double weight_total = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
    weight_total += weights[i];
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto n = rng.poisson(static_cast<double>(phantom_total) *
                               weights[i] / weight_total);
    for (std::int64_t j = 0; j < n; ++j) {
      DescriptorRequest req;
      req.descriptor_id = ids[i];
      req.time = t0 + rng.uniform_int(0, config.window_length - 1);
      stream.requests.push_back(req);
      ++stream.phantom_requests;
    }
  }
  std::stable_sort(stream.requests.begin(), stream.requests.end(),
            [](const DescriptorRequest& a, const DescriptorRequest& b) {
              return a.time < b.time;
            });
  return out;
}

void expect_same_stream(const RequestStream& got, const RequestStream& want) {
  EXPECT_EQ(got.real_requests, want.real_requests);
  EXPECT_EQ(got.real_ids, want.real_ids);
  EXPECT_EQ(got.phantom_requests, want.phantom_requests);
  EXPECT_EQ(got.phantom_ids, want.phantom_ids);
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


TEST(RequestGeneratorDiffTest, PhantomStreamsMatchScalarKeyLoop) {
  // The default share of 0.8: four in five requests are phantom. At the
  // paper's 10:00 UTC start the phantom ids fall in two periods (ids
  // whose first byte is >= 150 have rotated already); at midnight in
  // one.
  struct Case {
    std::uint64_t seed;
    util::UnixTime window_start;
    std::size_t phantom_periods;
  };
  for (const Case c : {Case{1305, util::make_utc(2013, 2, 4, 10, 0, 0), 2},
                       Case{78, util::make_utc(2013, 2, 4, 10, 0, 0), 2},
                       Case{5, util::make_utc(2013, 2, 5, 0, 0, 0), 1}}) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    RequestGeneratorConfig config;
    config.seed = c.seed;
    config.window_start = c.window_start;
    const OracleStream want = oracle_generate(config, test_population());
    ASSERT_GT(want.stream.phantom_requests, 3 * want.stream.real_requests);
    EXPECT_EQ(want.phantom_periods.size(), c.phantom_periods);
    expect_same_stream(RequestGenerator(config).generate(test_population()),
                       want.stream);
  }
}

TEST(RequestGeneratorDiffTest, TwoDigitWindowMatches) {
  // A 19 h window: offsets reach past 2^16 s, so the radix sort takes
  // its second pass, which must keep the first pass's tie order.
  RequestGeneratorConfig config;
  config.seed = 12;
  config.window_start = util::make_utc(2013, 2, 4, 3, 0, 0);
  config.window_length = 19 * util::kSecondsPerHour;
  config.phantom_request_share = 0.5;
  const OracleStream want = oracle_generate(config, test_population());
  ASSERT_GT(want.stream.requests.back().time - config.window_start, 1 << 16);
  expect_same_stream(RequestGenerator(config).generate(test_population()),
                     want.stream);
}

}  // namespace
}  // namespace torsim::popularity
