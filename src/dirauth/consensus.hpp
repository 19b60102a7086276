// The network consensus: the hourly signed snapshot of active relays
// that clients, hidden services, and attackers all compute from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/keypair.hpp"
#include "dirauth/flags.hpp"
#include "dirauth/ring_index.hpp"
#include "util/ipv4.hpp"
#include "relay/relay.hpp"
#include "util/time.hpp"

namespace torsim::dirauth {

/// One router-status entry.
struct ConsensusEntry {
  /// Simulator ground-truth handle. The *protocol* never uses this (it
  /// only sees fingerprints); it exists so experiments can join measured
  /// results against ground truth.
  relay::RelayId relay = relay::kInvalidRelayId;
  crypto::Fingerprint fingerprint{};
  std::string nickname;
  util::Ipv4 address;
  std::uint16_t or_port = 0;
  double bandwidth_kbps = 0.0;
  FlagSet flags = 0;
};

/// An hourly consensus document.
class Consensus {
 public:
  Consensus() = default;
  Consensus(util::UnixTime valid_after, std::vector<ConsensusEntry> entries);

  // Generation semantics (see generation() below): a copy owns a fresh
  // entries buffer, so it gets a fresh stamp; a move steals the buffer,
  // so it keeps the stamp and the source decays to the empty 0.
  Consensus(const Consensus& other);
  Consensus& operator=(const Consensus& other);
  Consensus(Consensus&& other) noexcept;
  Consensus& operator=(Consensus&& other) noexcept;

  /// Identity stamp for ring-lookup caches: entry pointers cached under
  /// one generation stay valid exactly as long as this consensus (or a
  /// move-destination of it) is alive — two Consensus objects share a
  /// generation only when they share the same entries() storage. The
  /// stamp comes from a process-wide counter, so its *value* depends on
  /// construction order; it is only ever compared for equality and
  /// never emitted. 0 = the empty default consensus.
  std::uint64_t generation() const { return generation_; }

  util::UnixTime valid_after() const { return valid_after_; }

  /// All entries, sorted ascending by fingerprint (the HSDir ring order).
  const std::vector<ConsensusEntry>& entries() const { return entries_; }

  std::size_t size() const { return entries_.size(); }

  /// Indexes into entries() for relays carrying the HSDir flag, in ring
  /// (fingerprint) order.
  const std::vector<std::size_t>& hsdir_indices() const {
    return hsdir_indices_;
  }

  std::size_t hsdir_count() const { return hsdir_indices_.size(); }

  /// Indexes into entries() for relays carrying the Fast flag, in
  /// entries() order (what with_flag(kFast) lists) — the pool that
  /// introduction points, middle hops and rendezvous points are
  /// sampled from.
  const std::vector<std::size_t>& fast_indices() const {
    return fast_indices_;
  }

  /// Entry lookup by fingerprint (nullptr if absent).
  const ConsensusEntry* find(const crypto::Fingerprint& fingerprint) const;

  /// Entry lookup by simulator relay id (nullptr if absent).
  const ConsensusEntry* find_relay(relay::RelayId id) const;

  /// The kHsDirsPerReplica HSDir entries whose fingerprints follow
  /// `descriptor_id` clockwise on the ring (wrapping), in order — the
  /// "responsible hidden service directories" for one replica. Routes
  /// through the eytzinger RingIndex when ring_index_enabled(), through
  /// responsible_hsdirs_scan() otherwise; the two are byte-identical by
  /// contract (tests/ring_index_diff_test.cpp).
  std::vector<const ConsensusEntry*> responsible_hsdirs(
      const crypto::DescriptorId& descriptor_id) const;

  /// Allocation-free responsible_hsdirs: writes up to `capacity` entry
  /// pointers into `out` and returns the count written (the same
  /// entries, in the same order, as responsible_hsdirs truncated to
  /// `capacity`). Hot-path form used by ring caches.
  std::size_t responsible_hsdirs_into(const crypto::DescriptorId& descriptor_id,
                                      const ConsensusEntry** out,
                                      std::size_t capacity) const;

  /// Pre-index reference implementation: binary search over
  /// hsdir_indices() dereferencing full entries per probe. Kept as the
  /// oracle for the differential suite and the cold-path benches; not
  /// for production call sites.
  std::vector<const ConsensusEntry*> responsible_hsdirs_scan(
      const crypto::DescriptorId& descriptor_id) const;

  /// Batched ring lookup: responsible_hsdirs for every id, in input
  /// order, fanned out across up to `threads` workers (<= 0 = one per
  /// hardware thread). With the index enabled each worker sorts its
  /// slice of query ids and resolves them in one merge walk over the
  /// ring, then results are committed in caller order; lookups are pure
  /// reads of this consensus, so the result is identical to the serial
  /// per-id loop for every thread count and for both index settings.
  std::vector<std::vector<const ConsensusEntry*>> responsible_hsdirs_batch(
      const std::vector<crypto::DescriptorId>& ids, int threads = 0) const;

  /// The eytzinger ring index (built at construction; empty when there
  /// are no HSDirs).
  const RingIndex& ring_index() const { return ring_index_; }

  /// Entries with a given flag. Allocates; the per-publish and
  /// per-circuit samplers use fast_indices() instead.
  std::vector<const ConsensusEntry*> with_flag(Flag flag) const;

 private:
  void build_ring_index();

  util::UnixTime valid_after_ = 0;
  std::vector<ConsensusEntry> entries_;       // sorted by fingerprint
  std::vector<std::size_t> hsdir_indices_;    // ring order
  std::vector<std::size_t> fast_indices_;     // entries() order
  RingIndex ring_index_;                      // eytzinger over the ring
  std::uint64_t generation_ = 0;              // 0 = empty default
};

}  // namespace torsim::dirauth
