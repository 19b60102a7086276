#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <cstring>

namespace torsim::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256** step.
inline std::uint64_t xoshiro_next(std::uint64_t (&s)[4]) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
  // Avoid the all-zero state (astronomically unlikely, but cheap to guard).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() { return xoshiro_next(s_); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - ~0ULL % span;
  std::uint64_t r;
  do {
    r = next();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::int64_t Rng::poisson(double mean) {
  if (mean < 0) throw std::invalid_argument("Rng::poisson: negative mean");
  if (mean == 0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    const double l = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform01();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for
  // simulation-scale means.
  const double x = normal(mean, std::sqrt(mean));
  return x < 0 ? 0 : static_cast<std::int64_t>(x + 0.5);
}

double Rng::exponential(double rate) {
  if (rate <= 0) throw std::invalid_argument("Rng::exponential: rate <= 0");
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform01();
  } while (u1 == 0.0);
  const double u2 = uniform01();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  return mean + stddev * z;
}

std::int64_t Rng::geometric(double p) {
  if (p <= 0.0 || p > 1.0)
    throw std::invalid_argument("Rng::geometric: p out of (0,1]");
  if (p == 1.0) return 0;
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return static_cast<std::int64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Rng Rng::fork(std::uint64_t label) {
  // Mix the parent's next output with the label through SplitMix64.
  std::uint64_t state = next() ^ (label * 0xd1342543de82ef95ULL + 1);
  return Rng(splitmix64(state));
}

Rng Rng::child(std::uint64_t label) const {
  // Hash the full parent state and the label through a SplitMix64
  // chain; reading (not stepping) the state keeps this a pure function
  // of (parent, label).
  std::uint64_t state = label * 0xd1342543de82ef95ULL + 0x9e3779b97f4a7c15ULL;
  std::uint64_t seed = splitmix64(state);
  for (const std::uint64_t lane : s_) {
    state ^= lane;
    seed ^= splitmix64(state);
  }
  return Rng(seed);
}

void Rng::fill_bytes(std::uint8_t* out, std::size_t n) {
  // The state stays in locals for the whole call. A store through a
  // uint8_t* may alias s_ as far as the compiler knows, so stepping s_
  // itself would reload and store it around every byte written.
  std::uint64_t s[4];
  std::memcpy(s, s_, sizeof s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t r = xoshiro_next(s);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out + i, &r, 8);
    } else {
      for (int b = 0; b < 8; ++b)
        out[i + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(r >> (8 * b));
    }
  }
  if (i < n) {
    std::uint64_t r = xoshiro_next(s);
    while (i < n) {
      out[i++] = static_cast<std::uint8_t>(r);
      r >>= 8;
    }
  }
  std::memcpy(s_, s, sizeof s);
}

}  // namespace torsim::util
