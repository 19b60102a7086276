// Differential suite for the SHA-1 compression kernels behind
// crypto/sha1_batch.hpp. The process runs one pick of them (SHA-NI, or
// the portable lane loops), so the Sha1BatchTest cases only ever see
// this CPU's pick. Here every kernel
// is called directly through the Sha1Kernel overloads and must match
// the scalar crypto::Sha1 oracle byte for byte: 1..8 lanes, every
// message length 0..200 (each 55/56/63/64-byte padding boundary) and
// every midstate prefix length 0..130. A kernel the CPU lacks is
// skipped with the missing feature named, so a runner without SHA-NI
// shows it in the test log instead of passing silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "crypto/keypair.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha1_batch.hpp"
#include "util/rng.hpp"

namespace torsim::crypto {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct KernelCase {
  Sha1Kernel kernel;
  const char* name;
  const char* feature;  // what a CPU without it lacks, or nullptr
};

const KernelCase kKernels[] = {
    {Sha1Kernel::kPortable, "Portable", nullptr},
    {Sha1Kernel::kShaNi, "ShaNi", "sha, ssse3 or sse4.1"},
};

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  if (n > 0) rng.fill_bytes(out.data(), n);
  return out;
}

Sha1Digest scalar_sha1(const Bytes& prefix, const Bytes& suffix) {
  Sha1 hasher;
  hasher.update(std::span<const std::uint8_t>(prefix));
  hasher.update(std::span<const std::uint8_t>(suffix));
  return hasher.finalize();
}

class Sha1BackendDiffTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!sha1_kernel_supported(GetParam().kernel))
      GTEST_SKIP() << GetParam().name << ": this CPU lacks "
                   << GetParam().feature;
  }

  // Finishes `suffixes` off `midstate` on the kernel under test and
  // checks every lane against scalar SHA-1 of prefix || suffix.
  void expect_lanes_match(const Sha1Midstate& midstate, const Bytes& prefix,
                          const std::vector<Bytes>& suffixes) {
    std::vector<std::span<const std::uint8_t>> spans;
    for (const Bytes& s : suffixes) spans.emplace_back(s);
    std::vector<Sha1Digest> got(suffixes.size());
    sha1_finish_lanes(GetParam().kernel, midstate, spans, got);
    for (std::size_t l = 0; l < suffixes.size(); ++l)
      EXPECT_EQ(got[l], scalar_sha1(prefix, suffixes[l]))
          << GetParam().name << ": prefix " << prefix.size() << ", lane "
          << l << " of " << suffixes.size() << ", suffix "
          << suffixes[l].size() << " bytes";
  }
};

TEST_P(Sha1BackendDiffTest, EqualLengthLanesMatchScalar) {
  // Every group size at every length 0..200: full groups (the portable
  // kernel's compile-time width) and partial ones (its runtime width),
  // one to four blocks.
  util::Rng rng(501);
  for (std::size_t length = 0; length <= 200; ++length)
    for (std::size_t lanes = 1; lanes <= kSha1Lanes; ++lanes) {
      std::vector<Bytes> messages;
      for (std::size_t l = 0; l < lanes; ++l)
        messages.push_back(random_bytes(rng, length));
      expect_lanes_match(Sha1Midstate{}, {}, messages);
    }
}

TEST_P(Sha1BackendDiffTest, MixedLengthLanesMatchScalar) {
  // Lanes of different lengths drop out of the lock-step at different
  // blocks, so the kernel sees every live-lane count on the way down.
  util::Rng rng(502);
  for (int trial = 0; trial < 400; ++trial) {
    const auto lanes = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(kSha1Lanes)));
    std::vector<Bytes> messages;
    for (std::size_t l = 0; l < lanes; ++l)
      messages.push_back(random_bytes(
          rng, static_cast<std::size_t>(rng.uniform_int(0, 200))));
    expect_lanes_match(Sha1Midstate{}, {}, messages);
  }
}

TEST_P(Sha1BackendDiffTest, MidstatePrefixesMatchScalar) {
  // Every prefix length 0..130, absorbed on the kernel under test (its
  // one-lane path), then finished across 1..8 lanes whose suffixes put
  // the stream end on each side of the padding boundaries.
  const std::size_t kSuffixLengths[] = {0, 1, 9, 55, 56, 63, 64, 65, 140};
  util::Rng rng(503);
  for (std::size_t prefix_len = 0; prefix_len <= 130; ++prefix_len) {
    const Bytes prefix = random_bytes(rng, prefix_len);
    Sha1Midstate midstate;
    midstate.absorb(GetParam().kernel, prefix);
    ASSERT_EQ(midstate.absorbed_bytes(), prefix_len);
    for (std::size_t lanes = 1; lanes <= kSha1Lanes; ++lanes) {
      std::vector<Bytes> suffixes;
      for (std::size_t l = 0; l < lanes; ++l)
        suffixes.push_back(random_bytes(
            rng, kSuffixLengths[(prefix_len + l * 5 + lanes) %
                                std::size(kSuffixLengths)]));
      expect_lanes_match(midstate, prefix, suffixes);
    }
  }
}

TEST_P(Sha1BackendDiffTest, ChunkedAbsorbMatchesScalar) {
  // absorb() in uneven chunks: buffered bytes topped up to a block,
  // whole blocks straight from the input, and a tail left buffered.
  util::Rng rng(504);
  const Bytes prefix = random_bytes(rng, 330);
  Sha1Midstate midstate;
  std::size_t offset = 0;
  for (const std::size_t chunk : {1, 62, 64, 73, 130}) {
    midstate.absorb(GetParam().kernel,
                    std::span<const std::uint8_t>(prefix.data() + offset,
                                                  chunk));
    offset += chunk;
  }
  ASSERT_EQ(offset, prefix.size());
  expect_lanes_match(midstate, prefix, {random_bytes(rng, 30)});
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha1BackendDiffTest, ::testing::ValuesIn(kKernels),
    [](const ::testing::TestParamInfo<KernelCase>& kernel_case) {
      return std::string(kernel_case.param.name);
    });

TEST(Sha1BackendPickTest, PickedKernelsAreSupported) {
  // The process's pick, printed so a CI log shows what ran: SHA-NI
  // exactly when the CPU has it.
  const std::string name(sha1_backend_name());
  std::cout << "sha1 backend: " << name << "\n";
  EXPECT_EQ(name, sha1_kernel_supported(Sha1Kernel::kShaNi) ? "sha-ni"
                                                              : "portable");
}

TEST(Sha1BackendPickTest, ShaNiSupportMatchesCompilerCpuCheck) {
  // The kernel reads CPUID itself; GCC's own feature check is an
  // independent reading of the same bits.
#if defined(__GNUC__) && !defined(__clang__) && \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  EXPECT_EQ(sha1_kernel_supported(Sha1Kernel::kShaNi),
            __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
                __builtin_cpu_supports("sse4.1"));
#else
  GTEST_SKIP() << "needs GCC's __builtin_cpu_supports on x86";
#endif
}

TEST(Sha1BackendPickTest, KeyPairFingerprintIsSha1OfPublicBytes) {
  // KeyPair hashes its public key through the one-message lane finish;
  // it must still be the scalar SHA-1 of the bytes.
  util::Rng rng(505);
  for (int i = 0; i < 64; ++i) {
    const KeyPair key = KeyPair::generate(rng);
    EXPECT_EQ(key.fingerprint(),
              sha1(std::span<const std::uint8_t>(key.public_bytes())));
  }
  for (const std::size_t length : {1, 55, 56, 63, 64, 200}) {
    const KeyPair key =
        KeyPair::from_public_bytes(random_bytes(rng, length));
    EXPECT_EQ(key.fingerprint(),
              sha1(std::span<const std::uint8_t>(key.public_bytes())))
        << length << " bytes";
  }
}

}  // namespace
}  // namespace torsim::crypto
