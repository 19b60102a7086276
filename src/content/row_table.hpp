// Flat "one key -> one row" lookup table for the naive-Bayes scorers.
//
// LanguageDetector and TopicClassifier both score a document by summing,
// per class, one log-probability per feature (a byte n-gram or a word).
// Instead of one hash map per class — a probe per feature per class —
// every feature owns one contiguous row holding all classes' values, so
// scoring is one probe plus a Width-wide add per feature. Features in no
// class's vocabulary share the fallback row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace torsim::content {

/// Lookup-only (never iterated) open-addressing index over rows of
/// `Width` doubles. `Hash` maps a key — or a heterogeneous probe such as
/// a std::string_view for std::string keys — to a std::size_t.
template <typename Key, typename Hash, std::size_t Width>
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
      std::size_t s = Hash{}(key) & mask_;
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
    for (std::size_t s = Hash{}(key) & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == 0) return rows_[0];
      if (slot.key == key) return rows_[slot.row];
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

}  // namespace torsim::content
