// The descriptor store one HSDir relay operates, including the fetch log
// an attacker-controlled HSDir keeps (the data source for the paper's
// popularity measurement, Sec. V).
//
// Storage layout (docs/data-layout.md): a store is a vector of
// fixed-size records sorted by descriptor id. A record carries its
// introduction points inline (at most kMaxIntroPoints) and its service
// public key as a handle into a KeyTable that the whole
// DirectoryNetwork shares. The caller adds each key to the table once
// and names it by that handle from then on, so a key is held once
// however many directories and replicas carry it. Nothing is allocated
// per record. Writes arrive as runs: DirectoryNetwork queues its
// uploads and merges each directory's run into its store in two
// passes (refresh, then insert_fresh); a run of one, and a single
// store(), is one put().
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hsdir/descriptor.hpp"

namespace torsim::hsdir {

/// One descriptor-fetch request as logged by an HSDir operator.
struct FetchRecord {
  crypto::DescriptorId descriptor_id{};
  util::UnixTime time = 0;
  bool found = false;
};

/// How long an HSDir retains a descriptor after publication; HSDirs for
/// the previous period erase descriptors once they rotate out.
inline constexpr util::Seconds kDescriptorLifetime = 24 * util::kSecondsPerHour;

/// The most introduction points a stored descriptor carries — the
/// number sim::World::publish picks.
inline constexpr std::size_t kMaxIntroPoints = 3;

/// Service public keys in one append-only table. A DirectoryNetwork
/// owns one table for all its stores; sim::World adds each service's
/// key once, so a service's index is its key's handle. The table never
/// hashes or compares key bytes: adding the same bytes twice yields two
/// handles.
class KeyTable {
 public:
  /// Dense from 0, in insertion order.
  using Handle = std::uint32_t;

  /// Appends `key`; returns its handle, the table's size before the add.
  Handle add(std::span<const std::uint8_t> key) {
    const auto handle = static_cast<Handle>(ends_.size());
    bytes_.insert(bytes_.end(), key.begin(), key.end());
    ends_.push_back(bytes_.size());
    return handle;
  }

  /// True when `handle` names a key in the table.
  bool contains(Handle handle) const { return handle < ends_.size(); }

  /// The key bytes behind `handle`, which must be contained. Valid
  /// until the next add().
  std::span<const std::uint8_t> bytes(Handle handle) const {
    const std::size_t begin = handle == 0 ? 0 : ends_[handle - 1];
    return {bytes_.data() + begin, ends_[handle] - begin};
  }

  /// Number of keys held.
  std::size_t size() const { return ends_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;  ///< every key, back to back
  std::vector<std::size_t> ends_;    ///< handle -> one past its last byte
};

/// A held descriptor as DescriptorStore::for_each_descriptor shows it:
/// the key bytes are read in place from the key table, and `key` is
/// their handle there.
struct DescriptorView {
  const crypto::DescriptorId& descriptor_id;
  util::UnixTime published = 0;
  std::span<const std::uint8_t> service_public_key;
  KeyTable::Handle key = 0;
};

/// One upload DirectoryNetwork::publish queued: queued descriptor
/// record `record` (its visible_after included) goes to the store of
/// relay `directory`. `id_prefix` is crypto::prefix64 of the record's
/// id, so a store sorts its run without reading the records.
struct QueuedUpload {
  std::uint64_t id_prefix = 0;
  std::uint32_t directory = 0;
  std::uint32_t record = 0;
  /// Set by DescriptorStore::refresh for an id the store does not hold:
  /// the index of the first held record above it.
  std::uint32_t at = 0;
};

class DirectoryNetwork;

class DescriptorStore {
 public:
  /// A store whose keys live in `keys`, which must outlive it.
  explicit DescriptorStore(KeyTable& keys) : keys_(&keys) {}

  /// Stores (or refreshes) a descriptor whose service key is the key
  /// table's entry `key`; descriptor.service_public_key is not read.
  /// Throws, leaving the store unchanged, std::out_of_range when the
  /// table holds no entry `key` and std::invalid_argument when the
  /// descriptor carries more than kMaxIntroPoints introduction points.
  void store(const Descriptor& descriptor, KeyTable::Handle key);

  /// Looks a descriptor up by id, honouring expiry at time `now`.
  /// If logging is enabled the request is recorded either way.
  std::optional<Descriptor> fetch(const crypto::DescriptorId& id,
                                  util::UnixTime now);

  /// True when fetch(id, now) would find the descriptor — same expiry
  /// and visible_after rules — but without logging or copying. The
  /// const read-only probe the serving layer fans out across threads
  /// (a fetch would race on the log; see docs/serving.md).
  bool contains(const crypto::DescriptorId& id, util::UnixTime now) const;

  /// Drops descriptors published more than kDescriptorLifetime before
  /// `now` (the paper: directories "erase its descriptor from memory"
  /// after the responsibility period). Returns without walking the
  /// store while its oldest `published` time is still within the
  /// lifetime; otherwise one pass both compacts the store and finds
  /// the new oldest time.
  void expire(util::UnixTime now);

  /// Enables request logging (what a measuring/malicious HSDir does).
  void enable_logging(bool enabled) { logging_ = enabled; }
  bool logging_enabled() const { return logging_; }

  const std::vector<FetchRecord>& fetch_log() const { return fetch_log_; }
  void clear_fetch_log() { fetch_log_.clear(); }

  /// Calls visit(DescriptorView) for every descriptor currently held,
  /// in id order, without copying payloads (the harvesting attack reads
  /// its own relays' stores this way). `visit` must not modify the
  /// store.
  template <typename Visit>
  void for_each_descriptor(Visit&& visit) const {
    for (const Record& r : records_)
      visit(DescriptorView{r.descriptor_id, r.published,
                           keys_->bytes(r.key), r.key});
  }

  std::size_t size() const { return records_.size(); }

 private:
  friend class DirectoryNetwork;

  struct Record {
    crypto::DescriptorId descriptor_id{};
    crypto::PermanentId permanent_id{};
    std::uint8_t replica = 0;
    std::uint8_t intro_count = 0;
    std::uint32_t time_period = 0;
    KeyTable::Handle key = 0;
    util::UnixTime published = 0;
    util::UnixTime visible_after = 0;
    std::array<crypto::Fingerprint, kMaxIntroPoints> introduction_points{};
  };

  /// The record for `descriptor` under key handle `key`; checks
  /// nothing (store() and DirectoryNetwork::publish check first).
  static Record to_record(const Descriptor& descriptor,
                          KeyTable::Handle key);

  /// A run of one upload: one binary search, then an overwrite or one
  /// shift of the records above it. May allocate.
  void put(const Record& record);

  // A longer run of uploads is merged in two passes, with the store
  // grown by exactly the number of new ids in between. Neither pass
  // allocates, so DirectoryNetwork fans both out across the stores; it
  // grows them on its own thread.

  /// The first pass: sorts `run` by id and queue order in place and
  /// applies, of each id, only its last upload (queued[u.record]). A
  /// held id is refreshed where it sits; the uploads of new ids move,
  /// still sorted, to the front of the run with their insertion points
  /// in `at`. Returns how many ids are new.
  std::size_t refresh(std::span<QueuedUpload> run,
                      std::span<const Record> queued);

  /// Appends `slots` records for the next insert_fresh().
  void grow(std::size_t slots) { records_.resize(records_.size() + slots); }

  /// The second pass, after grow(fresh.size()): inserts the new ids
  /// refresh() put at the front of the run, from the back, so each
  /// held record moves at most once, straight to its final slot.
  void insert_fresh(std::span<const QueuedUpload> fresh,
                    std::span<const Record> queued);

  /// The record for `id`, or nullptr.
  const Record* find(const crypto::DescriptorId& id) const;
  static bool visible(const Record& r, util::UnixTime now) {
    return now - r.published <= kDescriptorLifetime &&
           now >= r.visible_after;
  }

  KeyTable* keys_;
  std::vector<Record> records_;  ///< sorted by descriptor_id
  /// Lower bound on the `published` time of every held descriptor
  /// (exact after each expiry walk; a refresh may leave it low, which
  /// only costs one extra walk). Meaningless while the store is empty.
  util::UnixTime oldest_published_ = 0;
  std::vector<FetchRecord> fetch_log_;
  bool logging_ = false;
};

}  // namespace torsim::hsdir
