// Multi-lane batched SHA-1 for the descriptor-ID derivation hot path.
//
// The rend-spec v2 kernels hash huge numbers of *tiny independent
// messages* (secret-id-parts are 5 bytes + cookie, descriptor-id inputs
// are 30 bytes): every digest costs exactly one compression, and scalar
// SHA-1 compression is latency-bound — each of the 80 rounds depends on
// the previous one, so a single message can never fill the ALUs. Across
// *independent* messages there is no dependency at all. This module
// exploits that: up to kSha1Lanes messages are hashed in lock-step with
// the working state held in lane-transposed arrays (`a[lane]`,
// `w[t][lane]`), so the compiler auto-vectorizes the round function
// across lanes and one compression pass retires several digests.
//
// Kernels. The build targets baseline x86-64, so the lane body runs
// portable (SSE2 on x86-64). A CPU with the SHA-NI instructions runs
// every group through them instead, two messages interleaved, which
// beats the lanes at every group size (docs/performance.md). The process
// picks its kernel once, from CPUID, on first use. Every kernel yields
// the same digests.
//
// The scalar `crypto::Sha1` is deliberately NOT reused here: it is the
// reference oracle for the differential suite (tests/sha1_batch_test
// .cpp, tests/sha1_backend_diff_test.cpp), so this file carries its own
// independent compression kernels and each one is cross-checked
// byte-for-byte against the scalar implementation at randomized message
// schedules and every block-boundary length. See docs/performance.md
// for the testing contract.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/sha1.hpp"

namespace torsim::crypto {

/// Number of messages hashed per lock-step compression pass. Eight
/// 32-bit lanes fill one AVX2 register (two SSE2 registers) — wider
/// adds register pressure without retiring more per cycle on the
/// hardware this targets.
inline constexpr std::size_t kSha1Lanes = 8;

/// One SHA-1 compression kernel. Production code never names one: the
/// process's pick (sha1_backend_name) runs behind absorb() and
/// sha1_finish_lanes. The overloads that take a Sha1Kernel run exactly
/// that kernel, so the differential suite can check each one on any
/// CPU that has it.
enum class Sha1Kernel {
  kPortable,  // lane loops: compile-time width for a full group, runtime
              // width for a smaller one; any CPU
  kShaNi,     // SHA-NI, two messages at a time
};

/// True when this CPU can run `kernel` (CPUID; the portable kernel
/// always can).
bool sha1_kernel_supported(Sha1Kernel kernel);

/// The kernel this process picked: "sha-ni" when the CPU has SHA-NI,
/// else "portable".
std::string_view sha1_backend_name();

/// A forkable SHA-1 prefix state: the digest of `prefix || suffix_i`
/// for many suffixes shares all work over `prefix`. absorb() streams
/// exactly like Sha1::update; sha1_finish_lanes() then completes one
/// digest per suffix without mutating the midstate — forking is pure,
/// so one midstate can be finished any number of times (the fork-purity
/// contract, asserted by Sha1BatchTest.MidstateForkPurity).
class Sha1Midstate {
 public:
  Sha1Midstate();

  /// Absorbs more shared-prefix bytes.
  void absorb(std::span<const std::uint8_t> data);

  /// absorb() on exactly `kernel`. Throws std::invalid_argument when
  /// the CPU lacks it.
  void absorb(Sha1Kernel kernel, std::span<const std::uint8_t> data);

  /// Total prefix bytes absorbed so far.
  std::uint64_t absorbed_bytes() const { return total_bits_ / 8; }

 private:
  friend class Sha1Finisher;

  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// out[i] = SHA1(prefix || suffixes[i]) where `prefix` is the bytes
/// absorbed into `midstate`. Suffixes may have any (mixed) lengths;
/// they are processed in groups of kSha1Lanes, each group's blocks
/// compressed in lock-step. Throws std::invalid_argument, writing
/// nothing, when `out` is shorter than `suffixes`. The midstate itself
/// is never modified.
void sha1_finish_lanes(const Sha1Midstate& midstate,
                       std::span<const std::span<const std::uint8_t>> suffixes,
                       std::span<Sha1Digest> out);

/// The one-message finish: SHA1(prefix || suffix).
Sha1Digest sha1_finish_lanes(const Sha1Midstate& midstate,
                             std::span<const std::uint8_t> suffix);

/// sha1_finish_lanes on exactly `kernel`, for every group size. Throws
/// std::invalid_argument when the CPU lacks it.
void sha1_finish_lanes(Sha1Kernel kernel, const Sha1Midstate& midstate,
                       std::span<const std::span<const std::uint8_t>> suffixes,
                       std::span<Sha1Digest> out);

}  // namespace torsim::crypto
