// Sec. V: resolving logged descriptor IDs back to onion addresses.
//
// The descriptor ID is a one-way function of (onion, day, replica), so
// the paper resolved its request log by deriving, for every harvested
// onion address, the descriptor IDs of *every day between 28 Jan and
// 8 Feb 2013* (to absorb client clock skew) and joining against the log.
// We implement exactly that method.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "obs/metrics.hpp"
#include "popularity/request_generator.hpp"

namespace torsim::popularity {

struct ResolverConfig {
  /// Derivation window (paper: 28 Jan – 8 Feb 2013). Zero means default.
  util::UnixTime derive_from = 0;
  util::UnixTime derive_to = 0;
  /// Worker threads for the per-onion multi-day descriptor-ID
  /// derivation and the dictionary's ring sort; <= 0 = one per hardware
  /// thread, 1 = serial. The dictionary is bit-identical for every value
  /// (see docs/concurrency.md).
  int threads = 0;
  /// Optional metrics sink ("resolver.*" counters). Must outlive the
  /// resolver. See docs/observability.md.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One row of the popularity ranking (Table II).
struct RankedService {
  std::string onion;
  std::string label;        ///< ground-truth class label, if pinned
  std::string paper_alias;  ///< Table II address this stands in for
  std::int64_t requests = 0;
  int paper_rank = 0;       ///< 0 when the service is not pinned
};

struct ResolutionReport {
  std::int64_t total_requests = 0;
  std::int64_t unique_descriptor_ids = 0;
  std::int64_t resolved_descriptor_ids = 0;
  std::int64_t resolved_onions = 0;
  std::int64_t resolved_requests = 0;
  /// Popularity ranking over resolved onions, descending by requests.
  std::vector<RankedService> ranking;

  double unresolved_request_share() const {
    return total_requests > 0
               ? 1.0 - static_cast<double>(resolved_requests) /
                           static_cast<double>(total_requests)
               : 0.0;
  }
};

class DescriptorResolver {
 public:
  explicit DescriptorResolver(ResolverConfig config = {});

  /// Builds the descriptor-id -> onion dictionary from the harvested
  /// address database (all onions in the population — the harvest
  /// collected addresses regardless of later availability).
  void build_dictionary(const population::Population& pop);

  /// Builds the dictionary from the permanent ids of bare onion
  /// addresses — exactly the paper's method: nothing but the harvested
  /// address list is needed to derive every descriptor ID in the
  /// window. A repeated id keeps its last position; its earlier copies
  /// resolve nothing.
  void build_dictionary(std::span<const crypto::PermanentId> onions);

  /// Resolves a request stream and produces the ranking. `pop` (when
  /// provided) only supplies ground-truth labels for the report.
  ResolutionReport resolve(const RequestStream& stream,
                           const population::Population& pop) const;
  ResolutionReport resolve(const RequestStream& stream) const;

  std::size_t dictionary_size() const { return dictionary_.size(); }

  /// Resolves one descriptor id to its onion address, if known.
  std::optional<std::string> resolve_id(const crypto::DescriptorId& id) const;

 private:
  /// One dictionary row: a derived descriptor id and the slot of the
  /// onion it resolves to (its input position, an index into onions_).
  struct Entry {
    crypto::DescriptorId id;
    std::uint32_t onion = 0;
  };

  /// One slot of the request tally's open-addressing table: a distinct
  /// request id and its request count; count 0 marks an empty slot.
  struct IdCount {
    crypto::DescriptorId id{};
    std::int64_t count = 0;
  };

  ResolutionReport resolve_internal(const RequestStream& stream,
                                    const population::Population* pop) const;

  /// Sorts `entries` by (id, position) in place: an in-place counting
  /// permutation on the id's top byte, then, for each of those 256
  /// buckets in parallel, a counting scatter on the next 12 bits and a
  /// sort of each sub-bucket (about one entry) with word compares.
  /// (id, position) is a total order, so the result is the same at
  /// every thread count.
  static void ring_sort(std::span<Entry> entries, int threads);

  /// The slot holding `id` in `table` (a power-of-two size, linear
  /// probing from a hash of all 20 bytes), or the empty slot where it
  /// belongs. The table must have an empty slot.
  static IdCount& probe(std::span<IdCount> table,
                        const crypto::DescriptorId& id);

  /// Counts requests[from], requests[from + 1], ... into `table`
  /// through probe() until done or until one more distinct id would
  /// fill it past half; returns the index it stopped at, so the caller
  /// grows the table and calls again from there.
  /// `distinct` is the number of occupied slots.
  static std::size_t count_request_ids(
      std::span<const DescriptorRequest> requests, std::size_t from,
      std::span<IdCount> table, std::size_t& distinct);

  /// The join (Sec. V method): packs the counted ids of `table` to its
  /// front, sorts them by id and merge-joins them against the sorted
  /// dictionary, adding each resolved id's count to
  /// `onion_counts[slot]` (sized onions_.size()). All storage is the
  /// caller's; `table` is left reordered.
  void tally_requests(std::span<IdCount> table,
                      std::span<std::int64_t> onion_counts,
                      ResolutionReport& report) const;

  ResolverConfig config_;
  /// Sorted by descriptor id, one contiguous 24-byte entry per distinct
  /// derived id: binary-searched by resolve_id, merge-joined by the
  /// tally.
  std::vector<Entry> dictionary_;
  /// The input permanent ids in input order; rendered as onion text
  /// only for the rows of a report.
  std::vector<crypto::PermanentId> onions_;
};

}  // namespace torsim::popularity
