#include "popularity/request_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "crypto/keypair.hpp"
#include "crypto/sha1_batch.hpp"

namespace torsim::popularity {

namespace {

/// A request before the time sort: a slot into the generator's id table
/// and the request time minus the window start.
struct PendingRequest {
  std::uint32_t slot;
  std::uint32_t offset;
};

/// Digit width of the radix sort over time offsets: one pass covers the
/// paper's 2 h window, two cover any window up to 2^32 s.
constexpr int kDigitBits = 16;
constexpr std::size_t kDigits = std::size_t{1} << kDigitBits;

/// Appends `count` phantom descriptor ids to `ids`, drawing from `rng`
/// exactly as `count` rounds of KeyPair::generate then
/// uniform_int(0, 1) (the replica) would, and deriving each id for its
/// period at `t0`. Keys are fingerprinted and ids combined kSha1Lanes at
/// a time off an empty midstate; the secrets come from one table over
/// t0's one or two periods.
void append_phantom_ids(util::Rng& rng, util::UnixTime t0, std::size_t count,
                        std::vector<crypto::DescriptorId>& ids) {
  if (count == 0) return;
  constexpr std::size_t kLanes = crypto::kSha1Lanes;
  constexpr std::size_t kPidBytes = std::tuple_size_v<crypto::PermanentId>;
  constexpr std::size_t kCombineBytes =
      kPidBytes + std::tuple_size_v<crypto::Sha1Digest>;
  crypto::PermanentId low{};
  crypto::PermanentId high{};
  high[0] = 0xff;
  const std::uint32_t first_period = crypto::time_period(t0, low);
  const std::vector<crypto::Sha1Digest> secrets = crypto::secret_id_parts(
      first_period,
      std::size_t{crypto::time_period(t0, high) - first_period} + 1);

  const crypto::Sha1Midstate empty;
  std::uint8_t keys[kLanes][crypto::kPublicKeyBytes] = {};
  std::uint8_t combine[kLanes][kCombineBytes] = {};
  std::uint8_t replicas[kLanes] = {};
  std::span<const std::uint8_t> messages[kLanes];
  crypto::Sha1Digest fingerprints[kLanes] = {};
  const std::size_t first = ids.size();
  ids.resize(first + count);
  for (std::size_t base = 0; base < count; base += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - base);
    for (std::size_t l = 0; l < lanes; ++l) {
      rng.fill_bytes(keys[l], crypto::kPublicKeyBytes);
      replicas[l] = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
      messages[l] = std::span<const std::uint8_t>(keys[l]);
    }
    const std::span<const std::span<const std::uint8_t>> group(messages,
                                                               lanes);
    crypto::sha1_finish_lanes(empty, group,
                              std::span<crypto::Sha1Digest>(fingerprints));
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto pid = crypto::permanent_id_from_fingerprint(fingerprints[l]);
      const std::size_t secret =
          (crypto::time_period(t0, pid) - first_period) * crypto::kNumReplicas +
          replicas[l];
      std::memcpy(combine[l], pid.data(), kPidBytes);
      std::memcpy(combine[l] + kPidBytes, secrets[secret].data(),
                  kCombineBytes - kPidBytes);
      messages[l] = std::span<const std::uint8_t>(combine[l]);
    }
    crypto::sha1_finish_lanes(
        empty, group, std::span(ids).subspan(first + base, lanes));
  }
}

/// Writes the pending requests to `out` (sized to match) ordered by
/// time, ties in input order: a stable LSD radix sort on the offset,
/// kDigitBits per pass, whose last pass scatters straight into `out`.
void sort_by_time(std::span<const PendingRequest> pending,
                  std::span<const crypto::DescriptorId> ids,
                  util::UnixTime t0, util::Seconds window_length,
                  std::span<DescriptorRequest> out) {
  std::vector<std::size_t> next(kDigits);
  const auto place = [&](std::span<const PendingRequest> in, int shift,
                         auto&& write) {
    std::fill(next.begin(), next.end(), 0);
    const auto digit = [shift](const PendingRequest& r) {
      return (r.offset >> shift) & (kDigits - 1);
    };
    for (const PendingRequest& r : in) ++next[digit(r)];
    std::size_t at = 0;
    for (std::size_t& slot : next) at += std::exchange(slot, at);
    for (const PendingRequest& r : in) write(next[digit(r)]++, r);
  };
  const auto emit = [&](std::size_t at, const PendingRequest& r) {
    out[at] = DescriptorRequest{ids[r.slot], t0 + r.offset};
  };
  if (window_length <= static_cast<util::Seconds>(kDigits)) {
    place(pending, 0, emit);
    return;
  }
  std::vector<PendingRequest> low(pending.size());
  place(pending, 0,
        [&](std::size_t at, const PendingRequest& r) { low[at] = r; });
  place(low, kDigitBits, emit);
}

}  // namespace

RequestGenerator::RequestGenerator(RequestGeneratorConfig config)
    : config_(config) {
  if (config_.window_length < 1 ||
      config_.window_length > std::int64_t{1} << 32)
    throw std::invalid_argument(
        "RequestGeneratorConfig: window_length must be in [1, 2^32] s");
  if (!std::isfinite(config_.phantom_request_share) ||
      config_.phantom_request_share < 0.0 ||
      config_.phantom_request_share >= 1.0)
    throw std::invalid_argument(
        "RequestGeneratorConfig: phantom_request_share must be in [0, 1)");
  if (!std::isfinite(config_.phantom_id_ratio) ||
      config_.phantom_id_ratio < 0.0)
    throw std::invalid_argument(
        "RequestGeneratorConfig: phantom_id_ratio must be finite and >= 0");
  if (config_.window_start == 0)
    config_.window_start = util::make_utc(2013, 2, 4, 10, 0, 0);
}

RequestStream RequestGenerator::generate(
    const population::Population& pop) const {
  util::Rng rng(config_.seed);
  RequestStream stream;
  const util::UnixTime t0 = config_.window_start;
  const double window_2h_units =
      static_cast<double>(config_.window_length) /
      static_cast<double>(2 * util::kSecondsPerHour);
  // Volume chosen so phantom/total ~= phantom_request_share.
  const double share = std::clamp(config_.phantom_request_share, 0.0, 0.999);
  // Every request names its id by a slot into `ids`: the real services'
  // per-period ids, then the phantom ids.
  std::vector<crypto::DescriptorId> ids;
  std::vector<PendingRequest> pending;
  // Sized once for the expected volume (2% over the Poisson means), so
  // the records are not regrown: the freed buffers of a doubling vector
  // stay resident as heap holes and raise the process's peak RSS.
  double expected_real = 0.0;
  for (const population::Population::ServiceRef svc : pop.services())
    if (svc.requests_per_2h() > 0.0)
      expected_real += svc.requests_per_2h() * window_2h_units;
  pending.reserve(
      static_cast<std::size_t>(expected_real / (1.0 - share) * 1.02) + 1024);
  const auto draw_offset = [&] {
    return static_cast<std::uint32_t>(
        rng.uniform_int(0, config_.window_length - 1));
  };

  // --- Real requests: Poisson per requested service -----------------
  // Each service's ids are derived once per period it is asked for: a
  // 2 h window plus +-1 day of clock skew touches at most 4 periods, so
  // a linear scan of this list beats any lookup structure.
  struct PeriodSlots {
    std::uint32_t period;
    std::uint32_t first_slot;  ///< replica r is first_slot + r
  };
  std::vector<PeriodSlots> derived;
  for (const population::Population::ServiceRef svc : pop.services()) {
    if (svc.requests_per_2h() <= 0.0) continue;
    const std::int64_t n =
        rng.poisson(svc.requests_per_2h() * window_2h_units);
    if (n == 0) continue;
    ++stream.real_ids;  // counts requested services; ids tallied below
    const auto permanent_id =
        crypto::permanent_id_from_fingerprint(svc.key().fingerprint());
    derived.clear();
    const auto slot_for = [&](std::uint32_t period) {
      for (const PeriodSlots& entry : derived)
        if (entry.period == period) return entry.first_slot;
      const auto first_slot = static_cast<std::uint32_t>(ids.size());
      const auto period_ids =
          crypto::descriptor_ids_for_period(permanent_id, period);
      ids.insert(ids.end(), period_ids.begin(), period_ids.end());
      derived.push_back({period, first_slot});
      return first_slot;
    };
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint32_t offset = draw_offset();
      // Clients ask a random replica; a few run with a skewed clock and
      // derive yesterday's/tomorrow's period (the paper resolved against
      // several days of derived IDs for exactly this reason).
      util::UnixTime derive_time = t0 + offset;
      const double clock_roll = rng.uniform01();
      if (clock_roll < 0.01)
        derive_time -= util::kSecondsPerDay;
      else if (clock_roll < 0.02)
        derive_time += util::kSecondsPerDay;
      const auto replica = static_cast<std::uint32_t>(
          rng.uniform_int(0, crypto::kNumReplicas - 1));
      pending.push_back(
          {slot_for(crypto::time_period(derive_time, permanent_id)) + replica,
           offset});
      ++stream.real_requests;
    }
  }

  // --- Phantom requests: never-published descriptor IDs --------------
  const auto phantom_total = static_cast<std::int64_t>(
      static_cast<double>(stream.real_requests) * share / (1.0 - share));
  // Volume and ID count degrade together: a window with no phantom
  // traffic fabricates no phantom IDs either (a lone zero-request
  // phantom id would skew the Table II denominators at small --scale).
  const auto phantom_ids =
      phantom_total <= 0
          ? std::int64_t{0}
          : std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(stream.real_ids) *
                       config_.phantom_id_ratio));
  stream.phantom_ids = phantom_ids;

  // Phantom IDs: descriptor IDs of onion addresses that never existed
  // (random keys outside the population). Request volume per phantom id
  // is Zipf-ish: a few dead-but-famous services soak most of it.
  const auto first_phantom = static_cast<std::uint32_t>(ids.size());
  const auto count = static_cast<std::size_t>(phantom_ids);
  append_phantom_ids(rng, t0, count, ids);
  std::vector<double> weights(count);
  double weight_total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
    weight_total += weights[i];
  }
  for (std::size_t i = 0; i < count; ++i) {
    const auto n = rng.poisson(static_cast<double>(phantom_total) *
                               weights[i] / weight_total);
    const auto slot = first_phantom + static_cast<std::uint32_t>(i);
    for (std::int64_t j = 0; j < n; ++j) {
      pending.push_back({slot, draw_offset()});
      ++stream.phantom_requests;
    }
  }

  stream.requests.resize(pending.size());
  sort_by_time(pending, ids, t0, config_.window_length, stream.requests);
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("requests.real").inc(stream.real_requests);
    m.counter("requests.phantom").inc(stream.phantom_requests);
    m.counter("requests.real_ids").inc(stream.real_ids);
    m.counter("requests.phantom_ids").inc(stream.phantom_ids);
  }
  return stream;
}

}  // namespace torsim::popularity
