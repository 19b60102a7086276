#include "popularity/resolver.hpp"

#include <algorithm>
#include <functional>

#include "util/parallel.hpp"

namespace torsim::popularity {

namespace {

/// Buckets of the ring sort: one per value of an id's top 16 bits.
constexpr std::size_t kRingBuckets = std::size_t{1} << 16;

/// Writes the `n` items `item(0)`, ..., `item(n - 1)` to `out` sorted by
/// operator<, which must order items by `id_of(item)` first (ring order).
/// A counting pass scatters the items into kRingBuckets buckets by the
/// id's top 16 bits, then std::sort orders each bucket. Descriptor ids
/// are SHA-1 outputs, uniform on the ring, so a bucket holds a few dozen
/// items and the whole sort is close to two linear passes. `out` has `n`
/// slots and `starts` kRingBuckets + 1; nothing is allocated.
template <typename T, typename Item, typename IdOf>
void ring_sort(std::size_t n, Item item, IdOf id_of, std::span<T> out,
               std::span<std::size_t> starts) {
  const auto bucket = [&](const T& value) {
    const crypto::DescriptorId& id = std::invoke(id_of, value);
    return std::size_t{id[0]} << 8 | id[1];
  };
  std::fill(starts.begin(), starts.end(), 0);
  for (std::size_t i = 0; i < n; ++i) ++starts[bucket(item(i)) + 1];
  for (std::size_t b = 1; b < starts.size(); ++b) starts[b] += starts[b - 1];
  // Scatter; afterwards starts[b] is the end of bucket b.
  for (std::size_t i = 0; i < n; ++i) {
    const T value = item(i);
    out[starts[bucket(value)]++] = value;
  }
  std::size_t begin = 0;
  for (std::size_t b = 0; b < kRingBuckets; ++b) {
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
              out.begin() + static_cast<std::ptrdiff_t>(starts[b]));
    begin = starts[b];
  }
}

}  // namespace

DescriptorResolver::DescriptorResolver(ResolverConfig config)
    : config_(config) {
  if (config_.derive_from == 0)
    config_.derive_from = util::make_utc(2013, 1, 28);
  if (config_.derive_to == 0)
    config_.derive_to = util::make_utc(2013, 2, 9);
}

void DescriptorResolver::build_dictionary(
    const population::Population& pop) {
  std::vector<std::string> onions;
  onions.reserve(pop.size());
  for (const population::Population::ServiceRef svc : pop.services())
    onions.emplace_back(svc.onion());
  build_dictionary_from_onions(onions);
}

void DescriptorResolver::build_dictionary_from_onions(
    const std::vector<std::string>& onions) {
  // The SHA-1 derivations per onion are independent: fan them out into
  // per-onion slots of one flat array (onion-major, then period-major,
  // replica-minor — the order the serial per-period loop produced). The
  // time-period function shifts per-service, so derive once per day in
  // the window; duplicate ids are dropped below.
  std::vector<util::UnixTime> days;
  for (util::UnixTime t = config_.derive_from; t < config_.derive_to;
       t += util::kSecondsPerDay)
    days.push_back(t);
  const std::size_t replicas = static_cast<std::size_t>(crypto::kNumReplicas);
  const std::size_t per_onion = days.size() * replicas;
  std::vector<crypto::DescriptorId> derived(onions.size() * per_onion);
  if (!days.empty()) {
    // A public onion's secret-id-parts depend only on (period, replica),
    // and its period steps by exactly one per day. Every onion's periods
    // lie between the first day's period for id[0] = 0x00 and the last
    // day's for id[0] = 0xff, so that range's secrets are hashed once;
    // each onion reads its run of days.size() periods from the table.
    crypto::PermanentId low{};
    crypto::PermanentId high{};
    high[0] = 0xff;
    const std::uint32_t first_period = crypto::time_period(days.front(), low);
    const std::uint32_t last_period = crypto::time_period(days.back(), high);
    const std::vector<crypto::Sha1Digest> secrets = crypto::secret_id_parts(
        first_period, std::size_t{last_period - first_period} + 1);
    util::parallel_for(onions.size(), config_.threads, [&](std::size_t index) {
      const auto pid = crypto::parse_onion_address(onions[index]);
      const std::size_t offset =
          (crypto::time_period(days.front(), pid) - first_period) * replicas;
      crypto::descriptor_ids_for_periods(
          pid, std::span(secrets).subspan(offset, per_onion),
          std::span(derived).subspan(index * per_onion, per_onion));
    });
  }

  // Interning happens here, in the serial fold — never in the parallel
  // derivation above (the interner's contract, docs/data-layout.md).
  std::vector<util::StringInterner::Id> interned;
  interned.reserve(onions.size());
  for (const std::string& onion : onions)
    interned.push_back(util::global_interner().intern(onion));
  onions_ = interned;
  std::sort(onions_.begin(), onions_.end());
  onions_.erase(std::unique(onions_.begin(), onions_.end()), onions_.end());

  // Entries carry their onion's input position until the sort: ordered
  // by (id, position), the last entry of each equal-id run is the last
  // writer in input order — the rule of a serial map insert.
  dictionary_.resize(derived.size());
  std::vector<std::size_t> starts(kRingBuckets + 1);
  ring_sort(
      derived.size(),
      [&](std::size_t i) {
        return Entry{derived[i], static_cast<std::uint32_t>(i / per_onion)};
      },
      &Entry::id, std::span<Entry>(dictionary_), starts);
  derived = {};

  std::size_t kept = 0;
  for (const Entry& entry : dictionary_) {
    if (kept > 0 && dictionary_[kept - 1].id == entry.id) --kept;
    dictionary_[kept++] = entry;
  }
  dictionary_.resize(kept);
  // Input position -> onion slot.
  std::vector<std::uint32_t> slot_of(interned.size());
  for (std::size_t i = 0; i < interned.size(); ++i)
    slot_of[i] = static_cast<std::uint32_t>(
        std::lower_bound(onions_.begin(), onions_.end(), interned[i]) -
        onions_.begin());
  for (Entry& entry : dictionary_) entry.onion = slot_of[entry.onion];

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("resolver.onions_derived")
        .inc(static_cast<std::int64_t>(onions.size()));
    m.gauge("resolver.dictionary_size")
        .set(static_cast<std::int64_t>(dictionary_.size()));
  }
}

std::optional<std::string> DescriptorResolver::resolve_id(
    const crypto::DescriptorId& id) const {
  const auto it = std::lower_bound(
      dictionary_.begin(), dictionary_.end(), id,
      [](const Entry& e, const crypto::DescriptorId& key) {
        return e.id < key;
      });
  if (it == dictionary_.end() || it->id != id) return std::nullopt;
  return std::string(util::global_interner().view(onions_[it->onion]));
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream) const {
  return resolve_internal(stream, nullptr);
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream, const population::Population& pop) const {
  return resolve_internal(stream, &pop);
}

// The request-log join is the resolver's measured inner loop: sort the
// request ids, count each run, and walk the sorted dictionary alongside
// (a merge join). Everything allocator-visible (the scratch storage, the
// ranking rows, label lookups) stays in resolve_internal.
// detlint: hot
void DescriptorResolver::tally_requests(
    const RequestStream& stream, std::span<crypto::DescriptorId> sorted,
    std::span<std::size_t> starts, std::span<std::int64_t> onion_counts,
    ResolutionReport& report) const {
  ring_sort(
      stream.requests.size(),
      [&](std::size_t i) { return stream.requests[i].descriptor_id; },
      std::identity{}, sorted, starts);
  auto entry = dictionary_.begin();
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t end = i + 1;
    while (end < sorted.size() && sorted[end] == sorted[i]) ++end;
    const auto count = static_cast<std::int64_t>(end - i);
    ++report.unique_descriptor_ids;
    while (entry != dictionary_.end() && entry->id < sorted[i]) ++entry;
    if (entry != dictionary_.end() && entry->id == sorted[i]) {
      ++report.resolved_descriptor_ids;
      report.resolved_requests += count;
      onion_counts[entry->onion] += count;
    }
    i = end;
  }
}

ResolutionReport DescriptorResolver::resolve_internal(
    const RequestStream& stream, const population::Population* pop) const {
  ResolutionReport report;
  report.total_requests = static_cast<std::int64_t>(stream.requests.size());

  std::vector<crypto::DescriptorId> sorted(stream.requests.size());
  std::vector<std::size_t> starts(kRingBuckets + 1);
  std::vector<std::int64_t> onion_counts(onions_.size(), 0);
  tally_requests(stream, sorted, starts, onion_counts, report);

  // Slot order is intern-id order, not lexicographic — harmless: the
  // sort below totally orders rows by (requests, onion).
  for (std::size_t slot = 0; slot < onions_.size(); ++slot) {
    const std::int64_t count = onion_counts[slot];
    if (count == 0) continue;
    const std::string_view onion = util::global_interner().view(onions_[slot]);
    RankedService row;
    row.onion = std::string(onion);
    row.requests = count;
    if (pop != nullptr) {
      if (const auto svc = pop->find(onion)) {
        row.label = std::string(svc->label());
        row.paper_alias = std::string(svc->paper_alias());
        row.paper_rank = svc->paper_rank();
      }
    }
    report.ranking.push_back(std::move(row));
  }
  report.resolved_onions = static_cast<std::int64_t>(report.ranking.size());
  std::sort(report.ranking.begin(), report.ranking.end(),
            [](const RankedService& a, const RankedService& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.onion < b.onion;
            });
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("resolver.requests_seen").inc(report.total_requests);
    m.counter("resolver.requests_resolved").inc(report.resolved_requests);
    m.counter("resolver.ids_resolved").inc(report.resolved_descriptor_ids);
    m.counter("resolver.ids_unresolved")
        .inc(report.unique_descriptor_ids - report.resolved_descriptor_ids);
    obs::Histogram& per_onion = m.histogram(
        "resolver.requests_per_onion",
        {0, 1, 2, 5, 10, 25, 50, 100, 250, 1000});
    for (const RankedService& row : report.ranking)
      per_onion.observe(row.requests);
  }
  return report;
}

}  // namespace torsim::popularity
