// Character n-gram naive-Bayes language detection — the same algorithm
// family as the "Langdetect" library the paper used (Shuyo 2010), with
// profiles built from the embedded per-language corpora.
//
// Every gram of every profile owns one row of per-language
// log-probabilities. 1-grams find theirs by their byte and 2-grams by
// their two bytes, without hashing; 3-grams probe a RowTable. Scoring a
// document adds one row per gram into a register-resident RowSum.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
  struct GramKey {
    static std::size_t hash(std::uint32_t gram) {
      return static_cast<std::size_t>(
          (std::uint64_t{gram} * 0x9E3779B97F4A7C15ULL) >> 32);
    }
    static bool equal(std::uint32_t a, std::uint32_t b) { return a == b; }
  };

  /// Lowercased, space-normalized copy that n-grams are cut from.
  static std::string normalize(std::string_view text);

  /// Adds every n-gram's row to `scores`, n-major and left to right
  /// (the term order each language's sum must keep for bit-identical
  /// scores); returns the gram count.
  std::size_t score_grams(std::string_view norm, Scores& scores) const;

  /// Rows of the 1- and 2-grams; short_rows_[0] is the fallback row
  /// that every gram outside all profiles scores.
  std::vector<Scores> short_rows_;
  /// 1-gram byte -> index into short_rows_.
  std::array<std::uint16_t, 256> unigram_row_{};
  /// 2-gram `first | second << 8` -> index into short_rows_ (64 Ki
  /// entries).
  std::vector<std::uint16_t> bigram_row_;
  /// Packed 3-gram -> one log-probability per language.
  RowTable<std::uint32_t, GramKey, kNumLanguages> trigrams_;
};

}  // namespace torsim::content
