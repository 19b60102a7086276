// Append-only byte-string table behind hsdir::KeyTable: each distinct
// service public key is stored once and named by a dense 4-byte id.
//
// Ids are handed out in insertion order, so a fixed sequence of
// inserts assigns identical ids on every run. Storage is chunked: a
// returned std::string_view stays valid for the interner's lifetime,
// across later inserts (tests/data_layout_test.cpp pins both
// properties).
//
// Not thread-safe: intern() only from serial sections; view() and
// size() are const and safe to share once inserts are done.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace torsim::util {

class StringInterner {
 public:
  /// Insertion-ordered id; dense from 0.
  using Id = std::uint32_t;

  /// The id for `text`, inserting it on first sight. Views previously
  /// returned by view() stay valid across the insert (chunked storage
  /// never reallocates filled blocks).
  Id intern(std::string_view text);

  /// The interned bytes behind `id`. Valid for the interner's lifetime.
  std::string_view view(Id id) const { return views_[id]; }

  /// Number of distinct strings interned.
  std::size_t size() const { return views_.size(); }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// Copies `text` into stable chunk storage and returns the view.
  std::string_view store(std::string_view text);

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_used_ = 0;   ///< bytes used in blocks_.back()
  std::size_t block_size_ = 0;   ///< capacity of blocks_.back()
  std::vector<std::string_view> views_;  ///< id -> stable view
  /// Lookup-only index (never iterated): hash map is safe and fast.
  /// Keys are views into blocks_, so they never dangle.
  std::unordered_map<std::string_view, Id> index_;
};

}  // namespace torsim::util
