// The examples' positional arguments: whole numbers no smaller than a
// minimum. Anything else prints the usage line and exits 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace torsim::examples {

/// argv[index] as a T of at least `min`, or `fallback` when absent.
template <typename T>
T number_arg(int argc, char** argv, int index, T fallback, T min,
             const char* usage) {
  if (index >= argc) return fallback;
  const char* end = argv[index] + std::strlen(argv[index]);
  T value{};
  const auto [ptr, ec] = std::from_chars(argv[index], end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
    std::exit(2);
  }
  return value;
}

}  // namespace torsim::examples
