// Flat "one key -> one row" lookup table for the naive-Bayes scorers,
// and the register-resident running sum both scorers add rows into.
//
// LanguageDetector and TopicClassifier both score a document by summing,
// per class, one log-probability per feature (a byte n-gram or a word).
// Instead of one hash map per class — a probe per feature per class —
// every feature owns one contiguous row holding all classes' values, so
// scoring is one row lookup per feature plus one RowSum::add. Features
// in no class's vocabulary share the fallback row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

namespace torsim::content {

/// Lookup-only (never iterated) open-addressing index over rows of
/// `Width` doubles. `KeyOps` supplies `static std::size_t hash(probe)`
/// and `static bool equal(const Key&, probe)`, where a probe is a key
/// or a heterogeneous stand-in such as a std::string_view for
/// std::string keys. Keep both inline and call-free: every vector
/// register is caller-saved, so a call inside a scoring loop would
/// spill its RowSum on every feature.
template <typename Key, typename KeyOps, std::size_t Width>
class RowTable {
 public:
  using Row = std::array<double, Width>;

  RowTable() = default;

  /// One slot per entry of `rows`; every other key resolves to
  /// `fallback`. Load factor stays at or below one half.
  RowTable(const std::map<Key, Row>& rows, const Row& fallback) {
    std::size_t capacity = 16;
    while (capacity < 2 * rows.size()) capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, Slot{});
    rows_.reserve(rows.size() + 1);
    rows_.push_back(fallback);
    for (const auto& [key, row] : rows) {
      std::size_t s = KeyOps::hash(key) & mask_;
      while (slots_[s].row != 0) s = (s + 1) & mask_;
      slots_[s] = {key, static_cast<std::uint32_t>(rows_.size())};
      rows_.push_back(row);
    }
  }

  /// The row of `key`, or the fallback row when the key is absent.
  /// Requires a table built by the row constructor.
  // detlint: hot
  template <typename Probe>
  const Row& find(const Probe& key) const {
    for (std::size_t s = KeyOps::hash(key) & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == 0) return rows_[0];
      if (KeyOps::equal(slot.key, key)) return rows_[slot.row];
    }
  }

 private:
  struct Slot {
    Key key{};
    std::uint32_t row = 0;  ///< index into rows_; 0 marks an empty slot
  };

  std::size_t mask_ = 0;
  std::vector<Slot> slots_;
  std::vector<Row> rows_;  ///< rows_[0] is the fallback row
};

/// Per-class running sums of rows of `Width` doubles, kept in vector
/// registers for the whole of one document: Width / 2 double pairs
/// (SSE2 on x86-64) plus a scalar tail when Width is odd. Each class's
/// sum takes its terms in add() order with plain IEEE adds — there is
/// no multiply to contract into an FMA, and no lane ever meets another —
/// so the sums are bit-identical to a scalar `sum[k] += row[k]` loop.
/// Keep the object local to the scoring loop: the unrolled loops below
/// only index the pairs with constants, which lets the compiler hold
/// them in registers instead of reloading and storing every sum per row.
template <std::size_t Width>
class RowSum {
 public:
  using Row = std::array<double, Width>;

  explicit RowSum(const Row& start) {
#pragma GCC unroll 16
    for (std::size_t p = 0; p < kPairs; ++p)
      pairs_[p] = load(start.data() + 2 * p);
    if constexpr (kTail) tail_ = start[Width - 1];
  }

  /// Adds `row` to the sums, lane by lane.
  // detlint: hot
  void add(const Row& row) {
#pragma GCC unroll 16
    for (std::size_t p = 0; p < kPairs; ++p)
      pairs_[p] += load(row.data() + 2 * p);
    if constexpr (kTail) tail_ += row[Width - 1];
  }

  /// Writes the sums to `out`.
  void store(Row& out) const {
#pragma GCC unroll 16
    for (std::size_t p = 0; p < kPairs; ++p)
      std::memcpy(out.data() + 2 * p, &pairs_[p], sizeof(Pair));
    if constexpr (kTail) out[Width - 1] = tail_;
  }

 private:
  using Pair = double __attribute__((vector_size(16)));
  static constexpr std::size_t kPairs = Width / 2;
  static constexpr bool kTail = Width % 2 != 0;

  static Pair load(const double* from) {
    Pair pair;
    std::memcpy(&pair, from, sizeof(Pair));
    return pair;
  }

  std::array<Pair, kPairs> pairs_{};
  double tail_ = 0.0;
};

}  // namespace torsim::content
