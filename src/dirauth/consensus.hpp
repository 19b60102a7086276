// The network consensus: the hourly signed snapshot of active relays
// that clients, hidden services, and attackers all compute from.
#pragma once

#include <array>
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

/// The responsible HSDirs of one descriptor id: up to kHsDirsPerReplica
/// directory entries, in ring order (see
/// Consensus::responsible_hsdirs_into).
struct ResponsibleSet {
  std::array<const ConsensusEntry*, crypto::kHsDirsPerReplica> dirs{};
  std::uint8_t count = 0;
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

  /// Identity stamp: two Consensus objects share a generation only
  /// when they share the same entries() storage, so entry pointers
  /// taken under one generation stay valid exactly as long as this
  /// consensus (or a move-destination of it) is alive. DescriptorStore
  /// compacts its arena when the publishing generation moves on. The
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
  /// "responsible hidden service directories" for one replica, found
  /// through the eytzinger RingIndex. tests/ring_index_diff_test.cpp
  /// checks it against the sorted-scan oracle in tests/oracles.hpp.
  std::vector<const ConsensusEntry*> responsible_hsdirs(
      const crypto::DescriptorId& descriptor_id) const;

  /// Allocation-free responsible_hsdirs: writes up to `capacity` entry
  /// pointers into `out` and returns the count written (the same
  /// entries, in the same order, as responsible_hsdirs truncated to
  /// `capacity`). Hot-path form used by publish and fetch.
  std::size_t responsible_hsdirs_into(const crypto::DescriptorId& descriptor_id,
                                      const ConsensusEntry** out,
                                      std::size_t capacity) const;

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
