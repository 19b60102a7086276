// Character n-gram naive-Bayes language detection — the same algorithm
// family as the "Langdetect" library the paper used (Shuyo 2010), with
// profiles built from the embedded per-language corpora.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "content/row_table.hpp"
#include "content/topics.hpp"

namespace torsim::content {

/// Detection result with the winning language's posterior share.
struct LanguageGuess {
  Language language = Language::kEnglish;
  double confidence = 0.0;  ///< normalized posterior in [0, 1]
};

class LanguageDetector {
 public:
  /// Builds profiles (1..3-byte n-grams, relative frequencies with a
  /// fixed out-of-vocabulary floor of 1e-5 shared by every language)
  /// from the embedded corpora.
  LanguageDetector();

  /// Classifies text; uses n-gram log-likelihoods under each language
  /// profile. Empty/too-short text falls back to English at confidence 0.
  LanguageGuess detect(std::string_view text) const;

  /// Shared trained instance (profiles are immutable after construction).
  static const LanguageDetector& instance();

 private:
  using Scores = std::array<double, kNumLanguages>;

  /// A byte n-gram packed as bytes in the low 24 bits, n in the top byte.
  struct GramHash {
    std::size_t operator()(std::uint32_t gram) const {
      return static_cast<std::size_t>(
          (std::uint64_t{gram} * 0x9E3779B97F4A7C15ULL) >> 32);
    }
  };

  /// Lowercased, space-normalized copy that n-grams are cut from.
  static std::string normalize(std::string_view text);

  /// Adds every n-gram's row to `scores`, n-major and left to right
  /// (the term order each language's sum must keep for bit-identical
  /// scores); returns the gram count.
  std::size_t score_grams(std::string_view norm, Scores& scores) const;

  /// Packed gram -> one log-probability per language.
  RowTable<std::uint32_t, GramHash, kNumLanguages> grams_;
};

}  // namespace torsim::content
