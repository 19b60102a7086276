#include "popularity/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "stats/descriptive.hpp"

namespace torsim::popularity {

TimeSeriesReport build_time_series(const RequestStream& stream,
                                   const DescriptorResolver& resolver,
                                   const TimeSeriesConfig& config) {
  TimeSeriesReport report;
  report.windows = config.windows;
  if (stream.requests.empty() || config.windows <= 0) return report;

  const util::UnixTime start = stream.requests.front().time;
  const util::UnixTime end = stream.requests.back().time + 1;
  report.window_length =
      std::max<util::Seconds>(1, (end - start + config.windows - 1) /
                                     config.windows);

  std::vector<crypto::DescriptorId> ids;
  ids.reserve(stream.requests.size());
  for (const DescriptorRequest& req : stream.requests)
    ids.push_back(req.descriptor_id);
  const std::vector<std::uint32_t> owners = resolver.resolve_ids(ids);
  // Windows per resolved onion, keyed by its input position.
  std::map<std::uint32_t, std::vector<std::int64_t>> buckets;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DescriptorRequest& req = stream.requests[i];
    if (owners[i] == DescriptorResolver::kUnresolved)
      continue;  // phantom / unresolvable
    auto& windows = buckets[owners[i]];
    if (windows.empty())
      windows.assign(static_cast<std::size_t>(config.windows), 0);
    const auto index = std::min<std::int64_t>(
        config.windows - 1, (req.time - start) / report.window_length);
    ++windows[static_cast<std::size_t>(index)];
  }

  for (const auto& [owner, windows] : buckets) {
    std::int64_t total = 0;
    for (std::int64_t c : windows) total += c;
    if (total < config.min_requests) continue;
    RateSeries series;
    series.onion = resolver.onion(owner);
    series.per_window = windows;
    std::vector<double> values(windows.begin(), windows.end());
    series.mean_rate = stats::mean(values);
    series.cv = series.mean_rate > 0.0
                    ? stats::stddev(values) / series.mean_rate
                    : 0.0;
    report.series.push_back(std::move(series));
  }
  // Tie-break equal rates by onion so the emitted order never depends
  // on bucket iteration order.
  std::sort(report.series.begin(), report.series.end(),
            [](const RateSeries& a, const RateSeries& b) {
              if (a.mean_rate != b.mean_rate) return a.mean_rate > b.mean_rate;
              return a.onion < b.onion;
            });
  return report;
}

}  // namespace torsim::popularity
