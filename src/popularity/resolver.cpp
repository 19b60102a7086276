#include "popularity/resolver.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "util/parallel.hpp"

namespace torsim::popularity {

namespace {

/// Derive-and-probe tasks of a join, each a contiguous run of onion
/// positions; fixed, so no result depends on the thread count.
constexpr std::size_t kJoinTasks = 256;
/// Ids the derivation hashes into its stack buffer at a time (the
/// default window derives 24 per onion).
constexpr std::size_t kDerivedRun = 32;
/// Slots of the join's hash table before it first grows.
constexpr std::size_t kInitialTallySlots = 4096;

// Words of an id: native-endian loads for hashing and equality.
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

const crypto::DescriptorId& id_of(const DescriptorRequest& request) {
  return request.descriptor_id;
}

const crypto::DescriptorId& id_of(const crypto::DescriptorId& id) {
  return id;
}

/// A derived id found in the join's table: its slot and the input
/// position of the onion that derived it.
struct Hit {
  std::size_t slot = 0;
  std::uint32_t position = 0;
};

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
  onions_.resize(pop.size());
  for (population::ServiceId id = 0; id < onions_.size(); ++id)
    onions_[id] = pop.permanent_id(id);
}

void DescriptorResolver::build_dictionary(
    std::span<const crypto::PermanentId> onions) {
  onions_.assign(onions.begin(), onions.end());
}

std::size_t DescriptorResolver::slot_of(std::span<const IdCount> table,
                                        const crypto::DescriptorId& id) {
  const std::size_t mask = table.size() - 1;
  std::size_t at = static_cast<std::size_t>(hash_id(id)) & mask;
  while (table[at].count != 0 && !same_id(table[at].id, id))
    at = (at + 1) & mask;
  return at;
}

// The join is the resolver's measured inner loop: count each distinct
// requested id in a hash table, then probe every derived id into it.
// Everything allocator-visible (the table and its growth, the tasks'
// hit lists, the ranking rows, label lookups) stays outside the
// annotated kernels.
// detlint: hot
template <typename Item>
std::size_t DescriptorResolver::count_request_ids(std::span<const Item> items,
                                                  std::size_t from,
                                                  std::span<IdCount> table,
                                                  std::size_t& distinct) {
  for (std::size_t i = from; i < items.size(); ++i) {
    IdCount& slot = table[slot_of(table, id_of(items[i]))];
    if (slot.count == 0) {
      if (2 * (distinct + 1) > table.size()) return i;
      slot.id = id_of(items[i]);
      ++distinct;
    }
    ++slot.count;
  }
  return items.size();
}

template <typename Item>
std::vector<DescriptorResolver::IdCount> DescriptorResolver::count_ids(
    std::span<const Item> items) {
  // The table doubles whenever counting stops at half load, so its size
  // stays within 4x the distinct ids (or kInitialTallySlots).
  std::vector<IdCount> table(kInitialTallySlots);
  std::size_t distinct = 0;
  for (std::size_t at = 0;
       (at = count_request_ids(items, at, table, distinct)) < items.size();) {
    std::vector<IdCount> grown(table.size() * 2);
    for (const IdCount& slot : table)
      if (slot.count != 0) grown[slot_of(grown, slot.id)] = slot;
    table.swap(grown);
  }
  return table;
}

// detlint: hot
std::size_t DescriptorResolver::derive_and_probe(
    const crypto::PermanentId& pid, std::span<const crypto::Sha1Digest> secrets,
    std::span<const IdCount> table, std::span<std::size_t> hits) {
  std::array<crypto::DescriptorId, kDerivedRun> ids;
  std::size_t found = 0;
  for (std::size_t done = 0; done < secrets.size(); done += ids.size()) {
    const std::size_t n = std::min(ids.size(), secrets.size() - done);
    crypto::descriptor_ids_for_periods(pid, secrets.subspan(done, n),
                                       std::span(ids).first(n));
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = slot_of(table, ids[k]);
      if (table[slot].count != 0) hits[found++] = slot;
    }
  }
  return found;
}

void DescriptorResolver::join(std::span<IdCount> table) const {
  // The time-period function shifts per-service, so derive once per day
  // in the window; an id two days share is probed twice and found in
  // the same slot.
  std::vector<util::UnixTime> days;
  for (util::UnixTime t = config_.derive_from; t < config_.derive_to;
       t += util::kSecondsPerDay)
    days.push_back(t);
  if (config_.metrics != nullptr)
    config_.metrics->counter("resolver.onions_derived")
        .inc(static_cast<std::int64_t>(onions_.size()));
  if (days.empty() || onions_.empty()) return;

  // A public onion's secret-id-parts depend only on (period, replica),
  // and its period steps by exactly one per day. Every onion's periods
  // lie between the first day's period for id[0] = 0x00 and the last
  // day's for id[0] = 0xff, so that range's secrets are hashed once;
  // each onion reads its run of days.size() periods from the table.
  const std::size_t replicas = static_cast<std::size_t>(crypto::kNumReplicas);
  const std::size_t per_onion = days.size() * replicas;
  crypto::PermanentId low{};
  crypto::PermanentId high{};
  high[0] = 0xff;
  const std::uint32_t first_period = crypto::time_period(days.front(), low);
  const std::uint32_t last_period = crypto::time_period(days.back(), high);
  const std::vector<crypto::Sha1Digest> secrets = crypto::secret_id_parts(
      first_period, std::size_t{last_period - first_period} + 1);

  // Each task owns a contiguous run of positions and lists its hits in
  // ascending position, so folding the lists in task order visits every
  // hit in input order: the last position deriving an id owns it — the
  // rule of a serial map insert — at every thread count.
  std::vector<std::vector<Hit>> hits(kJoinTasks);
  util::parallel_for(kJoinTasks, config_.threads, [&](std::size_t task) {
    const std::size_t begin = onions_.size() * task / kJoinTasks;
    const std::size_t end = onions_.size() * (task + 1) / kJoinTasks;
    std::vector<std::size_t> slots(per_onion);
    for (std::size_t position = begin; position < end; ++position) {
      const crypto::PermanentId& pid = onions_[position];
      const std::size_t offset =
          (crypto::time_period(days.front(), pid) - first_period) * replicas;
      const std::size_t found = derive_and_probe(
          pid, std::span(secrets).subspan(offset, per_onion), table, slots);
      for (std::size_t k = 0; k < found; ++k)
        hits[task].push_back(
            {slots[k], static_cast<std::uint32_t>(position)});
    }
  });
  for (const std::vector<Hit>& task_hits : hits)
    for (const Hit& hit : task_hits) table[hit.slot].owner = hit.position;
}

// detlint: hot
void DescriptorResolver::tally_requests(std::span<const IdCount> table,
                                        std::span<std::int64_t> onion_counts,
                                        ResolutionReport& report) {
  for (const IdCount& slot : table) {
    if (slot.count == 0) continue;
    ++report.unique_descriptor_ids;
    if (slot.owner == kUnresolved) continue;
    ++report.resolved_descriptor_ids;
    report.resolved_requests += slot.count;
    onion_counts[slot.owner] += slot.count;
  }
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream) const {
  return resolve_internal(stream, nullptr);
}

ResolutionReport DescriptorResolver::resolve(
    const RequestStream& stream, const population::Population& pop) const {
  return resolve_internal(stream, &pop);
}

std::vector<std::uint32_t> DescriptorResolver::resolve_ids(
    std::span<const crypto::DescriptorId> ids) const {
  std::vector<IdCount> table = count_ids(ids);
  join(table);
  std::vector<std::uint32_t> owners(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    owners[i] = table[slot_of(table, ids[i])].owner;
  return owners;
}

ResolutionReport DescriptorResolver::resolve_internal(
    const RequestStream& stream, const population::Population* pop) const {
  ResolutionReport report;
  report.total_requests = static_cast<std::int64_t>(stream.requests.size());

  std::vector<IdCount> table =
      count_ids(std::span<const DescriptorRequest>(stream.requests));
  join(table);
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
