#include "popularity/resolver.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstring>
#include <utility>

#include "util/parallel.hpp"

namespace torsim::popularity {

namespace {

/// The ring sort's buckets: one per value of an id's top byte, each
/// split into sub-buckets by its next 12 bits.
constexpr std::size_t kTopBuckets = 256;
constexpr std::size_t kSubBuckets = 4096;
/// Ids one derivation task hashes into its stack buffer at a time (the
/// default window derives 24 per onion).
constexpr std::size_t kDerivedRun = 32;
/// Slots of the tally's hash table before it first grows.
constexpr std::size_t kInitialTallySlots = 4096;

// Words of an id: native-endian loads for hashing and equality,
// big-endian (a load and a byte swap) for ring order.
std::uint64_t load64(const std::uint8_t* bytes) {
  std::uint64_t value;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

std::uint32_t load32(const std::uint8_t* bytes) {
  std::uint32_t value;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

std::uint64_t load_be64(const std::uint8_t* bytes) {
  return kLittleEndian ? __builtin_bswap64(load64(bytes)) : load64(bytes);
}

std::uint32_t load_be32(const std::uint8_t* bytes) {
  return kLittleEndian ? __builtin_bswap32(load32(bytes)) : load32(bytes);
}

/// Ring order of two ids from their big-endian 64-, 64- and 32-bit
/// words instead of 20 byte compares.
std::strong_ordering compare_ids(const crypto::DescriptorId& a,
                                 const crypto::DescriptorId& b) {
  const std::uint8_t* x = a.data();
  const std::uint8_t* y = b.data();
  if (const auto c = load_be64(x) <=> load_be64(y); c != 0) return c;
  if (const auto c = load_be64(x + 8) <=> load_be64(y + 8); c != 0) return c;
  return load_be32(x + 16) <=> load_be32(y + 16);
}

bool same_id(const crypto::DescriptorId& a, const crypto::DescriptorId& b) {
  const std::uint8_t* x = a.data();
  const std::uint8_t* y = b.data();
  return ((load64(x) ^ load64(y)) | (load64(x + 8) ^ load64(y + 8)) |
          (load32(x + 16) ^ load32(y + 16))) == 0;
}

std::uint64_t mix64(std::uint64_t x) {  // SplitMix64's finalizer
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of all 20 bytes of an id. Ids are SHA-1 outputs, but a stream
/// can repeat crafted ids that share any window of bytes.
std::uint64_t hash_id(const crypto::DescriptorId& id) {
  const std::uint8_t* bytes = id.data();
  return mix64(load64(bytes) ^
               mix64(load64(bytes + 8) ^ mix64(load32(bytes + 16))));
}

}  // namespace

DescriptorResolver::DescriptorResolver(ResolverConfig config)
    : config_(config) {
  if (config_.derive_from == 0)
    config_.derive_from = util::make_utc(2013, 1, 28);
  if (config_.derive_to == 0)
    config_.derive_to = util::make_utc(2013, 2, 9);
}

void DescriptorResolver::ring_sort(std::span<Entry> entries, int threads) {
  // Pass 1, in place: permute the entries into buckets by the id's top
  // byte, following each displaced entry to its bucket's next free slot
  // (an American flag sort). No second array of entries is needed.
  std::array<std::size_t, kTopBuckets + 1> starts{};
  for (const Entry& entry : entries) ++starts[entry.id[0] + 1];
  for (std::size_t b = 1; b < starts.size(); ++b) starts[b] += starts[b - 1];
  std::array<std::size_t, kTopBuckets> next{};
  std::copy(starts.begin(), starts.end() - 1, next.begin());
  for (std::size_t b = 0; b < kTopBuckets; ++b) {
    while (next[b] < starts[b + 1]) {
      Entry entry = entries[next[b]];
      for (std::size_t to = entry.id[0]; to != b; to = entry.id[0])
        std::swap(entry, entries[next[to]++]);
      entries[next[b]++] = entry;
    }
  }

  // Pass 2, one task per top-byte bucket (a few thousand entries, cache
  // resident): scatter it by the next 12 bits into a scratch copy, sort
  // each sub-bucket (about one entry) by (id, position) with word
  // compares, and copy it back. Tasks touch disjoint slices of
  // `entries`; pass 1's order inside a bucket does not matter, since
  // (id, position) is a total order.
  const auto entry_less = [](const Entry& x, const Entry& y) {
    const auto c = compare_ids(x.id, y.id);
    return c != 0 ? c < 0 : x.onion < y.onion;
  };
  const auto sub_bucket = [](const Entry& entry) {
    return std::size_t{entry.id[1]} << 4 | entry.id[2] >> 4;
  };
  util::parallel_for(kTopBuckets, threads, [&](std::size_t top) {
    const std::span<Entry> bucket =
        entries.subspan(starts[top], starts[top + 1] - starts[top]);
    std::vector<Entry> scratch(bucket.size());
    std::vector<std::size_t> ends(kSubBuckets + 1);
    for (const Entry& entry : bucket) ++ends[sub_bucket(entry) + 1];
    for (std::size_t k = 1; k < ends.size(); ++k) ends[k] += ends[k - 1];
    // Afterwards ends[k] is the end of sub-bucket k.
    for (const Entry& entry : bucket)
      scratch[ends[sub_bucket(entry)]++] = entry;
    std::size_t begin = 0;
    for (std::size_t k = 0; k < kSubBuckets; begin = ends[k++]) {
      if (ends[k] - begin < 2) continue;
      std::sort(scratch.begin() + static_cast<std::ptrdiff_t>(begin),
                scratch.begin() + static_cast<std::ptrdiff_t>(ends[k]),
                entry_less);
    }
    std::copy(scratch.begin(), scratch.end(), bucket.begin());
  });
}

void DescriptorResolver::build_dictionary(
    const population::Population& pop) {
  std::vector<crypto::PermanentId> onions(pop.size());
  for (population::ServiceId id = 0; id < onions.size(); ++id)
    onions[id] = pop.permanent_id(id);
  build_dictionary(onions);
}

void DescriptorResolver::build_dictionary(
    std::span<const crypto::PermanentId> onions) {
  // The SHA-1 derivations per onion are independent: fan them out into
  // per-onion slots of the dictionary (onion-major, then period-major,
  // replica-minor — the order the serial per-period loop produced). Each
  // entry carries its onion's input position: ordered by (id, position),
  // the last entry of each equal-id run is the last writer in input
  // order — the rule of a serial map insert. A repeated onion derives
  // the same ids at each of its positions, so its last position owns
  // them all. The time-period function shifts per-service, so derive
  // once per day in the window; duplicate ids are dropped below.
  std::vector<util::UnixTime> days;
  for (util::UnixTime t = config_.derive_from; t < config_.derive_to;
       t += util::kSecondsPerDay)
    days.push_back(t);
  const std::size_t replicas = static_cast<std::size_t>(crypto::kNumReplicas);
  const std::size_t per_onion = days.size() * replicas;
  dictionary_.resize(onions.size() * per_onion);
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
      const crypto::PermanentId& pid = onions[index];
      const std::size_t offset =
          (crypto::time_period(days.front(), pid) - first_period) * replicas;
      std::array<crypto::DescriptorId, kDerivedRun> ids;
      for (std::size_t done = 0; done < per_onion; done += ids.size()) {
        const std::size_t n = std::min(ids.size(), per_onion - done);
        crypto::descriptor_ids_for_periods(
            pid, std::span(secrets).subspan(offset + done, n),
            std::span(ids).first(n));
        for (std::size_t k = 0; k < n; ++k)
          dictionary_[index * per_onion + done + k] =
              Entry{ids[k], static_cast<std::uint32_t>(index)};
      }
    });
  }

  onions_.assign(onions.begin(), onions.end());
  ring_sort(dictionary_, config_.threads);
  std::size_t kept = 0;
  for (const Entry& entry : dictionary_) {
    if (kept > 0 && same_id(dictionary_[kept - 1].id, entry.id)) --kept;
    dictionary_[kept++] = entry;
  }
  dictionary_.resize(kept);

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
  return crypto::onion_address(onions_[it->onion]);
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream) const {
  return resolve_internal(stream, nullptr);
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream, const population::Population& pop) const {
  return resolve_internal(stream, &pop);
}

DescriptorResolver::IdCount& DescriptorResolver::probe(
    std::span<IdCount> table, const crypto::DescriptorId& id) {
  const std::size_t mask = table.size() - 1;
  std::size_t at = static_cast<std::size_t>(hash_id(id)) & mask;
  while (table[at].count != 0 && !same_id(table[at].id, id))
    at = (at + 1) & mask;
  return table[at];
}

// The request-log join is the resolver's measured inner loop: count
// each distinct request id in a hash table, then sort the distinct ids
// (tens of thousands, not one per request) and walk the sorted
// dictionary alongside (a merge join). Everything allocator-visible
// (the table and its growth, the ranking rows, label lookups) stays in
// resolve_internal.
// detlint: hot
std::size_t DescriptorResolver::count_request_ids(
    std::span<const DescriptorRequest> requests, std::size_t from,
    std::span<IdCount> table, std::size_t& distinct) {
  for (std::size_t i = from; i < requests.size(); ++i) {
    IdCount& slot = probe(table, requests[i].descriptor_id);
    if (slot.count == 0) {
      if (2 * (distinct + 1) > table.size()) return i;
      slot.id = requests[i].descriptor_id;
      ++distinct;
    }
    ++slot.count;
  }
  return requests.size();
}

// detlint: hot
void DescriptorResolver::tally_requests(std::span<IdCount> table,
                                        std::span<std::int64_t> onion_counts,
                                        ResolutionReport& report) const {
  std::size_t distinct = 0;
  for (const IdCount& slot : table)
    if (slot.count != 0) table[distinct++] = slot;
  const std::span<IdCount> counted = table.first(distinct);
  std::sort(counted.begin(), counted.end(),
            [](const IdCount& a, const IdCount& b) {
              return compare_ids(a.id, b.id) < 0;
            });
  report.unique_descriptor_ids = static_cast<std::int64_t>(distinct);
  auto entry = dictionary_.begin();
  for (const IdCount& request : counted) {
    while (entry != dictionary_.end() &&
           compare_ids(entry->id, request.id) < 0)
      ++entry;
    if (entry != dictionary_.end() && same_id(entry->id, request.id)) {
      ++report.resolved_descriptor_ids;
      report.resolved_requests += request.count;
      onion_counts[entry->onion] += request.count;
    }
  }
}

ResolutionReport DescriptorResolver::resolve_internal(
    const RequestStream& stream, const population::Population* pop) const {
  ResolutionReport report;
  report.total_requests = static_cast<std::int64_t>(stream.requests.size());

  // The table doubles whenever counting stops at half load, so its size
  // stays within 4x the distinct ids (or kInitialTallySlots).
  std::vector<IdCount> table(kInitialTallySlots);
  std::size_t distinct = 0;
  for (std::size_t at = 0;
       (at = count_request_ids(stream.requests, at, table, distinct)) <
       stream.requests.size();) {
    std::vector<IdCount> grown(table.size() * 2);
    for (const IdCount& slot : table)
      if (slot.count != 0) probe(grown, slot.id) = slot;
    table.swap(grown);
  }
  std::vector<std::int64_t> onion_counts(onions_.size(), 0);
  tally_requests(table, onion_counts, report);

  // Slot order is input order, not lexicographic — harmless: the sort
  // below totally orders rows by (requests, onion).
  for (std::size_t slot = 0; slot < onions_.size(); ++slot) {
    const std::int64_t count = onion_counts[slot];
    if (count == 0) continue;
    RankedService row;
    row.onion = crypto::onion_address(onions_[slot]);
    row.requests = count;
    if (pop != nullptr) {
      if (const auto svc = pop->find(onions_[slot])) {
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
