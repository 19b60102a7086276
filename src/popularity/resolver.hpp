// Sec. V: resolving logged descriptor IDs back to onion addresses.
//
// The descriptor ID is a one-way function of (onion, day, replica), so
// the paper resolved its request log by deriving, for every harvested
// onion address, the descriptor IDs of *every day between 28 Jan and
// 8 Feb 2013* (to absorb client clock skew) and joining against the log.
// We implement exactly that method as a hash join built on the small
// side: the distinct requested ids (tens of thousands) are counted into
// a hash table, and every onion's derived ids stream through it. No
// dictionary of derived ids (harvest x window, ~1M at paper scale) is
// ever stored; each join derives them again.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Worker threads for the join's derive-and-probe tasks (a fixed
  /// number of contiguous runs of onions, whatever this value); <= 0 =
  /// one per hardware thread, 1 = serial. Every report is bit-identical
  /// for every value (see docs/concurrency.md).
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

  /// Records the harvested address database (all onions in the
  /// population — the harvest collected addresses regardless of later
  /// availability) for the joins of resolve() and resolve_ids().
  void build_dictionary(const population::Population& pop);

  /// Records the permanent ids of bare onion addresses — exactly the
  /// paper's method: nothing but the harvested address list is needed
  /// to derive every descriptor ID in the window. A repeated id keeps
  /// its last position; its earlier copies resolve nothing.
  void build_dictionary(std::span<const crypto::PermanentId> onions);

  /// Resolves a request stream and produces the ranking. `pop` (when
  /// provided) only supplies ground-truth labels for the report. Each
  /// call derives every recorded onion's ids again.
  ResolutionReport resolve(const RequestStream& stream,
                           const population::Population& pop) const;
  ResolutionReport resolve(const RequestStream& stream) const;

  /// What resolve_ids() returns for an id no recorded onion derives.
  static constexpr std::uint32_t kUnresolved = UINT32_MAX;

  /// Resolves each of `ids` to the input position of the recorded onion
  /// that derives it, or kUnresolved: one join over the distinct ids,
  /// out[i] for ids[i]. Nothing is rendered; onion() renders a position.
  std::vector<std::uint32_t> resolve_ids(
      std::span<const crypto::DescriptorId> ids) const;

  /// The onion address recorded at input `position`.
  std::string onion(std::uint32_t position) const {
    return crypto::onion_address(onions_.at(position));
  }

 private:
  /// One slot of the join's open-addressing table: a distinct requested
  /// id, its request count (0 marks an empty slot) and the input
  /// position of the onion that derives it (kUnresolved if none does).
  struct IdCount {
    crypto::DescriptorId id{};
    std::uint32_t owner = kUnresolved;
    std::int64_t count = 0;
  };

  ResolutionReport resolve_internal(const RequestStream& stream,
                                    const population::Population* pop) const;

  /// The index of the slot holding `id` in `table` (a power-of-two
  /// size, linear probing from a hash of all 20 bytes), or of the empty
  /// slot where it belongs. The table must have an empty slot.
  static std::size_t slot_of(std::span<const IdCount> table,
                             const crypto::DescriptorId& id);

  /// Counts the ids of items[from], items[from + 1], ... (requests or
  /// bare ids) into `table` until done or until one more distinct id
  /// would fill it past half; returns the index it stopped at, so the
  /// caller grows the table and calls again from there.
  /// `distinct` is the number of occupied slots.
  template <typename Item>
  static std::size_t count_request_ids(std::span<const Item> items,
                                       std::size_t from,
                                       std::span<IdCount> table,
                                       std::size_t& distinct);

  /// The table of the distinct ids of `items`, counted, no owners yet.
  template <typename Item>
  static std::vector<IdCount> count_ids(std::span<const Item> items);

  /// Derives one onion's ids, SHA1(pid || secrets[i]) for each secret,
  /// and probes each into `table`; writes the slot index of every id
  /// the table holds to `hits` (sized at least secrets.size()) and
  /// returns how many it wrote.
  static std::size_t derive_and_probe(const crypto::PermanentId& pid,
                                      std::span<const crypto::Sha1Digest>
                                          secrets,
                                      std::span<const IdCount> table,
                                      std::span<std::size_t> hits);

  /// The join (Sec. V method): sets the owner of every slot of `table`
  /// that a recorded onion derives in the window. Tasks over contiguous
  /// runs of onions derive and probe in parallel, then a serial fold in
  /// task order assigns owners, so the last input position wins.
  void join(std::span<IdCount> table) const;

  /// Adds each owned slot's count to `onion_counts[owner]` (sized
  /// onions_.size()) and to the report's resolved totals.
  static void tally_requests(std::span<const IdCount> table,
                             std::span<std::int64_t> onion_counts,
                             ResolutionReport& report);

  ResolverConfig config_;
  /// The input permanent ids in input order; rendered as onion text
  /// only for the rows of a report.
  std::vector<crypto::PermanentId> onions_;
};

}  // namespace torsim::popularity
