#include "crypto/sha1_batch.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define TORSIM_SHA1_X86 1
#endif

namespace torsim::crypto {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

constexpr std::array<std::uint32_t, 5> kSha1Iv = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

// One lock-step compression: block `blocks[l]` advances state column
// `l` of the transposed `h[word][lane]` array, for l in [0, lanes).
// The per-round dependency chain runs down each column independently,
// so the inner lane loops vectorize; the four round regimes are split
// into separate loops to keep the f/k selection out of the lane loop.
// `Width` is std::size_t for a runtime lane count, or an
// std::integral_constant for full groups, whose fixed trip counts let
// the compiler unroll the lane loops into whole-register operations.
// detlint: hot
template <typename Width>
void compress_lanes_at(std::uint32_t h[5][kSha1Lanes],
                       const std::uint8_t* const blocks[kSha1Lanes],
                       Width lanes) {
  std::uint32_t w[80][kSha1Lanes];
  for (int t = 0; t < 16; ++t) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint8_t* b = blocks[l] + t * 4;
      w[t][l] = static_cast<std::uint32_t>(b[0]) << 24 |
                static_cast<std::uint32_t>(b[1]) << 16 |
                static_cast<std::uint32_t>(b[2]) << 8 |
                static_cast<std::uint32_t>(b[3]);
    }
  }
  for (int t = 16; t < 80; ++t) {
    for (std::size_t l = 0; l < lanes; ++l)
      w[t][l] = rotl32(
          w[t - 3][l] ^ w[t - 8][l] ^ w[t - 14][l] ^ w[t - 16][l], 1);
  }

  std::uint32_t a[kSha1Lanes], b[kSha1Lanes], c[kSha1Lanes], d[kSha1Lanes],
      e[kSha1Lanes];
  for (std::size_t l = 0; l < lanes; ++l) {
    a[l] = h[0][l];
    b[l] = h[1][l];
    c[l] = h[2][l];
    d[l] = h[3][l];
    e[l] = h[4][l];
  }

  const auto round = [&](int t, std::size_t l, std::uint32_t f,
                         std::uint32_t k) {
    const std::uint32_t temp = rotl32(a[l], 5) + f + e[l] + k + w[t][l];
    e[l] = d[l];
    d[l] = c[l];
    c[l] = rotl32(b[l], 30);
    b[l] = a[l];
    a[l] = temp;
  };
  for (int t = 0; t < 20; ++t)
    for (std::size_t l = 0; l < lanes; ++l)
      round(t, l, (b[l] & c[l]) | (~b[l] & d[l]), 0x5A827999u);
  for (int t = 20; t < 40; ++t)
    for (std::size_t l = 0; l < lanes; ++l)
      round(t, l, b[l] ^ c[l] ^ d[l], 0x6ED9EBA1u);
  for (int t = 40; t < 60; ++t)
    for (std::size_t l = 0; l < lanes; ++l)
      round(t, l, (b[l] & c[l]) | (b[l] & d[l]) | (c[l] & d[l]), 0x8F1BBCDCu);
  for (int t = 60; t < 80; ++t)
    for (std::size_t l = 0; l < lanes; ++l)
      round(t, l, b[l] ^ c[l] ^ d[l], 0xCA62C1D6u);

  for (std::size_t l = 0; l < lanes; ++l) {
    h[0][l] += a[l];
    h[1][l] += b[l];
    h[2][l] += c[l];
    h[3][l] += d[l];
    h[4][l] += e[l];
  }
}

using CompressFn = void (*)(std::uint32_t h[5][kSha1Lanes],
                            const std::uint8_t* const blocks[kSha1Lanes],
                            std::size_t lanes);

// Full groups (the grinder's batches, the dictionary's combine digests)
// run at compile-time width. Partial groups and absorb()'s single lane
// keep the runtime loop: forced to full width they do 8 lanes' work for
// 1 or 2, and a 2-lane descriptor_ids_for_period call measured ~1.3x
// slower (docs/performance.md).
// detlint: hot
void compress_portable(std::uint32_t h[5][kSha1Lanes],
                       const std::uint8_t* const blocks[kSha1Lanes],
                       std::size_t lanes) {
  if (lanes == kSha1Lanes)
    compress_lanes_at(h, blocks,
                      std::integral_constant<std::size_t, kSha1Lanes>{});
  else
    compress_lanes_at(h, blocks, lanes);
}

#ifdef TORSIM_SHA1_X86

// SHA-NI state of one message: ABCD in one register (A in the top
// 32-bit lane), E in the top lane of e[0]/e[1], which alternate as the
// current and the next E, and the message schedule's four registers.
struct ShaNiStream {
  __m128i abcd, abcd_saved, e_saved;
  __m128i e[2];
  __m128i m[4];
};

// Four rounds, group G of 20, of Intel's SHA-NI SHA-1 sequence: the
// schedule words for group G + 1.. are produced by sha1msg1 / xor /
// sha1msg2 from the four registers in rotation.
template <int G>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_group(
    ShaNiStream& s, const std::uint8_t* block) {
  constexpr int k = G % 4;
  if constexpr (G < 4) {
    constexpr std::size_t offset = 16 * G;
    const __m128i reverse =
        _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
    s.m[k] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + offset)),
        reverse);
  }
  if constexpr (G == 0)
    s.e[0] = _mm_add_epi32(s.e[0], s.m[0]);
  else
    s.e[G % 2] = _mm_sha1nexte_epu32(s.e[G % 2], s.m[k]);
  s.e[(G + 1) % 2] = s.abcd;
  if constexpr (G >= 3 && G <= 18)
    s.m[(k + 1) % 4] = _mm_sha1msg2_epu32(s.m[(k + 1) % 4], s.m[k]);
  s.abcd = _mm_sha1rnds4_epu32(s.abcd, s.e[G % 2], G / 5);
  if constexpr (G >= 1 && G <= 16)
    s.m[(k + 3) % 4] = _mm_sha1msg1_epu32(s.m[(k + 3) % 4], s.m[k]);
  if constexpr (G >= 2 && G <= 17)
    s.m[(k + 2) % 4] = _mm_xor_si128(s.m[(k + 2) % 4], s.m[k]);
}

// Group G of `Streams` (1 or 2) independent messages, back to back so
// the core overlaps their latency.
template <int G, std::size_t Streams>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_groups(
    ShaNiStream (&s)[Streams], const std::uint8_t* const blocks[]) {
  sha_ni_group<G>(s[0], blocks[0]);
  if constexpr (Streams == 2) sha_ni_group<G>(s[1], blocks[1]);
}

template <std::size_t Streams, int... G>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_rounds(
    ShaNiStream (&s)[Streams], const std::uint8_t* const blocks[],
    std::integer_sequence<int, G...>) {
  (sha_ni_groups<G>(s, blocks), ...);
}

[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_load(
    ShaNiStream& s, const std::uint32_t h[5][kSha1Lanes], std::size_t l) {
  s.abcd = _mm_set_epi32(static_cast<int>(h[0][l]), static_cast<int>(h[1][l]),
                         static_cast<int>(h[2][l]), static_cast<int>(h[3][l]));
  s.e[0] = _mm_set_epi32(static_cast<int>(h[4][l]), 0, 0, 0);
  s.abcd_saved = s.abcd;
  s.e_saved = s.e[0];
}

[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_store(
    const ShaNiStream& s, std::uint32_t h[5][kSha1Lanes], std::size_t l) {
  const __m128i abcd = _mm_add_epi32(s.abcd, s.abcd_saved);
  const __m128i e = _mm_sha1nexte_epu32(s.e[0], s.e_saved);
  h[0][l] = static_cast<std::uint32_t>(_mm_extract_epi32(abcd, 3));
  h[1][l] = static_cast<std::uint32_t>(_mm_extract_epi32(abcd, 2));
  h[2][l] = static_cast<std::uint32_t>(_mm_extract_epi32(abcd, 1));
  h[3][l] = static_cast<std::uint32_t>(_mm_extract_epi32(abcd, 0));
  h[4][l] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

// Compresses lanes [first, first + Streams) of `h`.
// detlint: hot
template <std::size_t Streams>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void sha_ni_compress(
    std::uint32_t h[5][kSha1Lanes], const std::uint8_t* const blocks[],
    std::size_t first) {
  ShaNiStream s[Streams];
  sha_ni_load(s[0], h, first);
  if constexpr (Streams == 2) sha_ni_load(s[1], h, first + 1);
  sha_ni_rounds(s, blocks + first, std::make_integer_sequence<int, 20>{});
  sha_ni_store(s[0], h, first);
  if constexpr (Streams == 2) sha_ni_store(s[1], h, first + 1);
}

// detlint: hot
[[gnu::target("sha,sse4.1")]] void compress_sha_ni(
    std::uint32_t h[5][kSha1Lanes], const std::uint8_t* const blocks[kSha1Lanes],
    std::size_t lanes) {
  std::size_t l = 0;
  for (; l + 2 <= lanes; l += 2) sha_ni_compress<2>(h, blocks, l);
  if (l < lanes) sha_ni_compress<1>(h, blocks, l);
}

#endif  // TORSIM_SHA1_X86

// SHA-NI plus the SSSE3 byte shuffle and SSE4.1 extract it is used
// with, read straight from CPUID (leaf 1 ECX, leaf 7 EBX).
bool cpu_has_sha_ni() {
#ifdef TORSIM_SHA1_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kSsse3 = 1u << 9, kSse41 = 1u << 19, kSha = 1u << 29;
  if ((ecx & kSsse3) == 0 || (ecx & kSse41) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kSha) != 0;
#else
  return false;
#endif
}

// SHA-NI, when the CPU has it, for every group size: it beats the
// portable lanes on full groups and on smaller ones alike
// (docs/performance.md).
CompressFn pick_kernel() {
#ifdef TORSIM_SHA1_X86
  if (cpu_has_sha_ni()) return compress_sha_ni;
#endif
  return compress_portable;
}

// Chosen once per process from CPUID; see sha1_batch.hpp.
CompressFn picked() {
  static const CompressFn pick = pick_kernel();
  return pick;
}

CompressFn forced_kernel(Sha1Kernel kernel) {
  if (kernel == Sha1Kernel::kPortable) return compress_portable;
#ifdef TORSIM_SHA1_X86
  if (cpu_has_sha_ni()) return compress_sha_ni;
#endif
  throw std::invalid_argument(
      "sha1 kernel: this CPU lacks sha, ssse3 or sse4.1");
}

// Materializes block `block_index` of one lane's post-midstate stream:
// buffered prefix bytes, then the suffix, then 0x80 / zero padding,
// with the 64-bit big-endian bit length closing the final block.
// detlint: hot
void fill_block(std::uint8_t* out, std::size_t block_index,
                std::size_t block_count,
                std::span<const std::uint8_t> buffered,
                std::span<const std::uint8_t> suffix,
                std::uint64_t total_bits) {
  std::memset(out, 0, 64);
  const std::size_t base = block_index * 64;
  const std::size_t end = base + 64;
  if (base < buffered.size()) {
    const std::size_t take = std::min(buffered.size(), end) - base;
    std::memcpy(out, buffered.data() + base, take);
  }
  const std::size_t suffix_begin = buffered.size();
  const std::size_t suffix_end = suffix_begin + suffix.size();
  if (base < suffix_end && end > suffix_begin && !suffix.empty()) {
    const std::size_t from = std::max(base, suffix_begin);
    const std::size_t to = std::min(end, suffix_end);
    std::memcpy(out + (from - base), suffix.data() + (from - suffix_begin),
                to - from);
  }
  if (suffix_end >= base && suffix_end < end) out[suffix_end - base] = 0x80;
  if (block_index + 1 == block_count) {
    for (int i = 0; i < 8; ++i)
      out[56 + i] = static_cast<std::uint8_t>(total_bits >> (8 * (7 - i)));
  }
}

}  // namespace

bool sha1_kernel_supported(Sha1Kernel kernel) {
  return kernel == Sha1Kernel::kPortable || cpu_has_sha_ni();
}

std::string_view sha1_backend_name() {
  return picked() == compress_portable ? "portable" : "sha-ni";
}

// Runs absorb() and sha1_finish_lanes on one kernel; a friend of
// Sha1Midstate.
class Sha1Finisher {
 public:
  static void absorb(CompressFn compress, Sha1Midstate& m,
                     std::span<const std::uint8_t> data);
  static void finish(CompressFn compress, const Sha1Midstate& midstate,
                     std::span<const std::span<const std::uint8_t>> suffixes,
                     std::span<Sha1Digest> out);
};

void Sha1Finisher::absorb(CompressFn compress, Sha1Midstate& m,
                          std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  m.total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  std::uint32_t h1[5][kSha1Lanes];
  const auto compress_one = [&](const std::uint8_t* block) {
    for (int i = 0; i < 5; ++i) h1[i][0] = m.h_[static_cast<std::size_t>(i)];
    const std::uint8_t* blocks[kSha1Lanes] = {block};
    compress(h1, blocks, 1);
    for (int i = 0; i < 5; ++i) m.h_[static_cast<std::size_t>(i)] = h1[i][0];
  };
  if (m.buffered_ > 0) {
    const std::size_t take =
        std::min(data.size(), m.buffer_.size() - m.buffered_);
    std::memcpy(m.buffer_.data() + m.buffered_, data.data(), take);
    m.buffered_ += take;
    offset = take;
    if (m.buffered_ == m.buffer_.size()) {
      compress_one(m.buffer_.data());
      m.buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    compress_one(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(m.buffer_.data(), data.data() + offset, data.size() - offset);
    m.buffered_ = data.size() - offset;
  }
}

void Sha1Finisher::finish(
    CompressFn compress, const Sha1Midstate& midstate,
    std::span<const std::span<const std::uint8_t>> suffixes,
    std::span<Sha1Digest> out) {
  if (out.size() < suffixes.size())
    throw std::invalid_argument(
        "sha1_finish_lanes: output shorter than suffixes");
  const std::span<const std::uint8_t> buffered(midstate.buffer_.data(),
                                               midstate.buffered_);
  for (std::size_t group = 0; group < suffixes.size();
       group += kSha1Lanes) {
    const std::size_t lanes = std::min(kSha1Lanes, suffixes.size() - group);

    std::uint32_t h[5][kSha1Lanes];
    std::size_t block_count[kSha1Lanes];
    std::uint64_t lane_bits[kSha1Lanes];
    std::size_t max_blocks = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      for (int i = 0; i < 5; ++i)
        h[i][l] = midstate.h_[static_cast<std::size_t>(i)];
      const std::size_t tail =
          midstate.buffered_ + suffixes[group + l].size();
      block_count[l] = (tail + 9 + 63) / 64;
      lane_bits[l] =
          midstate.total_bits_ +
          static_cast<std::uint64_t>(suffixes[group + l].size()) * 8;
      max_blocks = std::max(max_blocks, block_count[l]);
    }

    // Lock-step over block indices: lanes whose streams are exhausted
    // drop out; the survivors are compacted so the kernel always works
    // on dense lanes (their state words are gathered and scattered
    // around the compression, unless every lane is still live).
    std::uint8_t scratch[kSha1Lanes][64];
    for (std::size_t blk = 0; blk < max_blocks; ++blk) {
      const std::uint8_t* blocks[kSha1Lanes];
      std::size_t live[kSha1Lanes];
      std::size_t active = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (blk >= block_count[l]) continue;
        // A block that lies wholly inside the suffix is read in place.
        const std::size_t base = blk * 64;
        const std::span<const std::uint8_t> suffix = suffixes[group + l];
        if (base >= buffered.size() &&
            base + 64 <= buffered.size() + suffix.size()) {
          blocks[active] = suffix.data() + (base - buffered.size());
        } else {
          fill_block(scratch[active], blk, block_count[l], buffered, suffix,
                     lane_bits[l]);
          blocks[active] = scratch[active];
        }
        live[active] = l;
        ++active;
      }
      if (active == lanes) {
        compress(h, blocks, active);
        continue;
      }
      std::uint32_t hg[5][kSha1Lanes];
      for (std::size_t s = 0; s < active; ++s)
        for (int i = 0; i < 5; ++i) hg[i][s] = h[i][live[s]];
      compress(hg, blocks, active);
      for (std::size_t s = 0; s < active; ++s)
        for (int i = 0; i < 5; ++i) h[i][live[s]] = hg[i][s];
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      Sha1Digest& digest = out[group + l];
      for (int i = 0; i < 5; ++i) {
        digest[static_cast<std::size_t>(i) * 4] =
            static_cast<std::uint8_t>(h[i][l] >> 24);
        digest[static_cast<std::size_t>(i) * 4 + 1] =
            static_cast<std::uint8_t>(h[i][l] >> 16);
        digest[static_cast<std::size_t>(i) * 4 + 2] =
            static_cast<std::uint8_t>(h[i][l] >> 8);
        digest[static_cast<std::size_t>(i) * 4 + 3] =
            static_cast<std::uint8_t>(h[i][l]);
      }
    }
  }
}

Sha1Midstate::Sha1Midstate() : h_(kSha1Iv), buffer_{} {}

void Sha1Midstate::absorb(std::span<const std::uint8_t> data) {
  Sha1Finisher::absorb(picked(), *this, data);
}

void Sha1Midstate::absorb(Sha1Kernel kernel,
                          std::span<const std::uint8_t> data) {
  Sha1Finisher::absorb(forced_kernel(kernel), *this, data);
}

void sha1_finish_lanes(const Sha1Midstate& midstate,
                       std::span<const std::span<const std::uint8_t>> suffixes,
                       std::span<Sha1Digest> out) {
  Sha1Finisher::finish(picked(), midstate, suffixes, out);
}

Sha1Digest sha1_finish_lanes(const Sha1Midstate& midstate,
                             std::span<const std::uint8_t> suffix) {
  Sha1Digest digest;
  Sha1Finisher::finish(picked(), midstate,
                       std::span<const std::span<const std::uint8_t>>(&suffix, 1),
                       std::span<Sha1Digest>(&digest, 1));
  return digest;
}

void sha1_finish_lanes(Sha1Kernel kernel, const Sha1Midstate& midstate,
                       std::span<const std::span<const std::uint8_t>> suffixes,
                       std::span<Sha1Digest> out) {
  Sha1Finisher::finish(forced_kernel(kernel), midstate, suffixes, out);
}

}  // namespace torsim::crypto
