#include "crypto/sha1_batch.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

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

// Full groups (the grinder's batches, the dictionary's combine digests)
// run at compile-time width. Partial groups and absorb()'s single lane
// keep the runtime loop: forced to full width they do 8 lanes' work for
// 1 or 2, and a 2-lane descriptor_ids_for_period call measured ~1.3x
// slower (docs/performance.md).
// detlint: hot
void compress_lanes(std::uint32_t h[5][kSha1Lanes],
                    const std::uint8_t* const blocks[kSha1Lanes],
                    std::size_t lanes) {
  if (lanes == kSha1Lanes)
    compress_lanes_at(h, blocks,
                      std::integral_constant<std::size_t, kSha1Lanes>{});
  else
    compress_lanes_at(h, blocks, lanes);
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

Sha1Midstate::Sha1Midstate() : h_(kSha1Iv), buffer_{} {}

void Sha1Midstate::absorb(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  // Single-lane reuse of the lock-step kernel keeps exactly one
  // compression implementation in this translation unit.
  std::uint32_t h1[5][kSha1Lanes];
  const auto compress_one = [&](const std::uint8_t* block) {
    for (int i = 0; i < 5; ++i) h1[i][0] = h_[static_cast<std::size_t>(i)];
    const std::uint8_t* blocks[kSha1Lanes] = {block};
    compress_lanes(h1, blocks, 1);
    for (int i = 0; i < 5; ++i) h_[static_cast<std::size_t>(i)] = h1[i][0];
  };
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      compress_one(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    compress_one(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void sha1_finish_lanes(const Sha1Midstate& midstate,
                       std::span<const std::span<const std::uint8_t>> suffixes,
                       std::span<Sha1Digest> out) {
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
    // around the compression).
    std::uint8_t scratch[kSha1Lanes][64];
    for (std::size_t blk = 0; blk < max_blocks; ++blk) {
      const std::uint8_t* blocks[kSha1Lanes];
      std::uint32_t hg[5][kSha1Lanes];
      std::size_t live[kSha1Lanes];
      std::size_t active = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (blk >= block_count[l]) continue;
        fill_block(scratch[active], blk, block_count[l], buffered,
                   suffixes[group + l], lane_bits[l]);
        blocks[active] = scratch[active];
        for (int i = 0; i < 5; ++i) hg[i][active] = h[i][l];
        live[active] = l;
        ++active;
      }
      compress_lanes(hg, blocks, active);
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

}  // namespace torsim::crypto
