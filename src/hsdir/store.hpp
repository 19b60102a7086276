// The descriptor store one HSDir relay operates, including the fetch log
// an attacker-controlled HSDir keeps (the data source for the paper's
// popularity measurement, Sec. V).
//
// Storage layout (ROADMAP item 3, docs/data-layout.md): the map holds
// fixed-size StoredDescriptor metadata; the variable-length payloads
// (service public key, introduction-point list) live in a per-store
// util::ByteArena addressed by offset. Re-publishing a descriptor
// appends fresh payload bytes and orphans the old span; the arena is
// compacted when a new consensus generation is observed and the dead
// share has grown past the live bytes (see observe_epoch()).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "hsdir/descriptor.hpp"
#include "util/arena.hpp"

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

/// A held descriptor as DescriptorStore::for_each_descriptor shows it:
/// the key bytes are read in place from the store's payload arena and
/// are valid only for the duration of the visit.
struct DescriptorView {
  const crypto::DescriptorId& descriptor_id;
  util::UnixTime published = 0;
  std::span<const std::uint8_t> service_public_key;
};

class DescriptorStore {
 public:
  /// Stores (or refreshes) a descriptor.
  void store(const Descriptor& descriptor);

  /// Looks a descriptor up by id, honouring expiry at time `now`.
  /// If logging is enabled the request is recorded either way.
  /// The returned Descriptor owns its payloads (copied out of the
  /// arena) — callers never hold arena pointers across a compaction.
  std::optional<Descriptor> fetch(const crypto::DescriptorId& id,
                                  util::UnixTime now);

  /// True when fetch(id, now) would find the descriptor — same expiry
  /// and visible_after rules — but without logging or copying. The
  /// const read-only probe the serving layer fans out across threads
  /// (a fetch would race on the log; see docs/serving.md).
  bool contains(const crypto::DescriptorId& id, util::UnixTime now) const;

  /// Drops descriptors published more than kDescriptorLifetime before
  /// `now` (the paper: directories "erase its descriptor from memory"
  /// after the responsibility period). Payload bytes become dead arena
  /// space, reclaimed at the next compacting epoch observation. Returns
  /// without walking the store while its oldest `published` time is
  /// still within the lifetime.
  void expire(util::UnixTime now);

  /// Tells the store which consensus generation the current publish
  /// round runs under. On a generation change the store compacts its
  /// payload arena iff dead bytes exceed live bytes — a deterministic
  /// byte-count rule, independent of wall clock and call pattern
  /// within a generation. Generation semantics (copy restamps, move
  /// transfers and zeroes the source — dirauth/consensus.hpp) make the
  /// stamp usable only for equality, which is all this needs: any
  /// *change* is a safe compaction point, and generation 0 (moved-from
  /// consensus) never reaches here because a gen-0 consensus is empty
  /// and routes no publishes (pinned by tests/data_layout_test.cpp).
  void observe_epoch(std::uint64_t generation);

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
    for (const auto& [id, s] : descriptors_)
      visit(DescriptorView{
          id, s.published,
          std::span<const std::uint8_t>(arena_.at(s.key_offset), s.key_size)});
  }

  std::size_t size() const { return descriptors_.size(); }

  /// Arena telemetry for the BENCH JSON "population" section.
  std::size_t arena_bytes() const { return arena_.bytes_used(); }
  std::size_t live_payload_bytes() const { return live_payload_bytes_; }
  std::uint64_t observed_epoch() const { return epoch_; }
  std::int64_t compactions() const { return compactions_; }

 private:
  /// Fixed-size metadata; variable-length payloads are arena spans.
  struct StoredDescriptor {
    crypto::PermanentId permanent_id{};
    std::uint8_t replica = 0;
    std::uint32_t time_period = 0;
    util::UnixTime published = 0;
    util::UnixTime visible_after = 0;
    util::ByteArena::Offset key_offset = 0;
    std::uint32_t key_size = 0;
    util::ByteArena::Offset intro_offset = 0;
    std::uint32_t intro_count = 0;
  };

  std::size_t payload_bytes(const StoredDescriptor& s) const {
    return s.key_size + s.intro_count * sizeof(crypto::Fingerprint);
  }
  Descriptor materialize(const crypto::DescriptorId& id,
                         const StoredDescriptor& s) const;
  void compact();

  std::map<crypto::DescriptorId, StoredDescriptor> descriptors_;
  /// Lower bound on the `published` time of every held descriptor
  /// (exact after each expiry walk; a refresh may leave it low, which
  /// only costs one extra walk). Meaningless while the store is empty.
  util::UnixTime oldest_published_ = 0;
  util::ByteArena arena_;
  std::size_t live_payload_bytes_ = 0;
  std::uint64_t epoch_ = 0;
  std::int64_t compactions_ = 0;
  std::vector<FetchRecord> fetch_log_;
  bool logging_ = false;
};

}  // namespace torsim::hsdir
