// Sec. V: the client descriptor-request stream an attacker-controlled
// HSDir ring observes over a measurement window.
//
// Real services generate Poisson request streams at their popularity
// rate (Table II head pinned, Zipf tail). On top of that, the paper
// found that ~80% of all requests asked for descriptor IDs that were
// *never published* (dead services, stale search-engine databases);
// these "phantom" requests are generated against onion addresses outside
// the population.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/digest.hpp"
#include "obs/metrics.hpp"
#include "population/population.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace torsim::popularity {

struct DescriptorRequest {
  crypto::DescriptorId descriptor_id{};
  util::UnixTime time = 0;
};

/// Validated by the RequestGenerator constructor, which throws
/// std::invalid_argument unless window_length is in [1, 2^32] s,
/// phantom_request_share is finite and in [0, 1), and phantom_id_ratio
/// is finite and >= 0.
struct RequestGeneratorConfig {
  std::uint64_t seed = 1305;
  /// Window start; 0 means the paper's 2013-02-04 10:00 UTC.
  util::UnixTime window_start = 0;
  util::Seconds window_length = 2 * util::kSecondsPerHour;
  /// Target share of requests aimed at never-published descriptors.
  double phantom_request_share = 0.80;
  /// Unique phantom descriptor IDs, as a multiple of the number of
  /// requested real services. The paper saw 23,010 unresolved unique IDs
  /// against 6,113 resolved; each requested service resolves ~2.2 IDs
  /// (two replicas plus clock-skewed derivations) and the Zipf tail of
  /// the phantom pool draws no requests at all, so the pool multiple
  /// must sit well above the 23,010/6,113 = 3.8 headline ratio.
  double phantom_id_ratio = 8.0;
  /// Optional metrics sink ("requests.*" counters). Must outlive the
  /// generator. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
};

struct RequestStream {
  /// Sorted by time; requests with equal times keep the order they were
  /// generated (or, from fetch logs, logged) in.
  std::vector<DescriptorRequest> requests;
  std::int64_t real_requests = 0;
  std::int64_t phantom_requests = 0;
  std::int64_t real_ids = 0;
  std::int64_t phantom_ids = 0;
};

class RequestGenerator {
 public:
  explicit RequestGenerator(RequestGeneratorConfig config = {});

  /// Generates the full request stream for the window: sorted by time,
  /// ties in generation order (real requests service by service, then
  /// phantom requests id by id).
  RequestStream generate(const population::Population& pop) const;

 private:
  RequestGeneratorConfig config_;
};

}  // namespace torsim::popularity
