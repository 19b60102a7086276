#include "content/language_detector.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "content/corpus.hpp"
#include "util/strings.hpp"

namespace torsim::content {

namespace {

constexpr std::size_t kMaxGram = 3;

std::uint32_t pack_gram(std::string_view norm, std::size_t at,
                        std::size_t n) {
  std::uint32_t gram = static_cast<std::uint32_t>(n) << 24;
  for (std::size_t k = 0; k < n; ++k)
    gram |= std::uint32_t{static_cast<unsigned char>(norm[at + k])}
            << (8 * k);
  return gram;
}

/// Calls `visit(gram)` for every 1..3-byte n-gram of `norm` that is not
/// all spaces: all 1-grams left to right, then all 2-grams, then all
/// 3-grams.
template <typename Visit>
void for_each_gram(std::string_view norm, Visit&& visit) {
  for (std::size_t n = 1; n <= kMaxGram; ++n) {
    const std::uint32_t blank = pack_gram("   ", 0, n);
    for (std::size_t i = 0; i + n <= norm.size(); ++i) {
      const std::uint32_t gram = pack_gram(norm, i, n);
      if (gram != blank) visit(gram);
    }
  }
}

}  // namespace

std::string LanguageDetector::normalize(std::string_view text) {
  // Byte-level n-grams over a lowercased, space-normalized copy. Byte
  // n-grams make multi-byte UTF-8 scripts (Cyrillic, CJK, Arabic)
  // highly distinctive without any Unicode machinery.
  std::string norm;
  norm.reserve(text.size() + 2);
  norm.push_back(' ');
  bool last_space = true;
  for (char c : text) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (uc < 0x80) {
      if (util::is_ascii_alpha(uc)) {
        norm.push_back(util::ascii_letter_lower(uc));
        last_space = false;
      } else if (!last_space) {
        norm.push_back(' ');
        last_space = true;
      }
    } else {
      norm.push_back(c);
      last_space = false;
    }
  }
  if (!last_space) norm.push_back(' ');
  return norm;
}

LanguageDetector::LanguageDetector() {
  // Relative frequencies with a *fixed* out-of-vocabulary penalty that
  // is identical for every language. Per-language Laplace smoothing
  // would reward tiny profiles (small vocabulary -> higher per-gram
  // mass); a shared floor makes scores comparable across profiles of
  // very different corpus sizes, as langdetect's normalized frequency
  // profiles do. A gram missing from one language's profile scores the
  // floor in that language's slot of its row.
  constexpr double kOovProbability = 1e-5;
  Scores fallback{};
  fallback.fill(std::log(kOovProbability));
  // Ordered: iterated below and to build the table (one-time training
  // cost; the table itself is lookup-only).
  std::map<std::uint32_t, Scores> rows;
  for (int li = 0; li < kNumLanguages; ++li) {
    const Language lang = language_from_index(li);
    // Training text: the language's corpus words joined by spaces. The
    // English profile additionally trains on the topic vocabularies —
    // onion pages are content-heavy, and a function-words-only profile
    // under-scores them against other Latin-script languages (langdetect
    // likewise ships profiles built from full Wikipedia text).
    std::string training;
    for (std::string_view w : language_words(lang)) {
      training += w;
      training += ' ';
    }
    if (lang == Language::kEnglish) {
      for (int t = 0; t < kNumTopics; ++t) {
        for (std::string_view w : topic_keywords(topic_from_index(t))) {
          training += w;
          training += ' ';
        }
      }
    }
    std::map<std::uint32_t, double> counts;
    double total = 0.0;
    for_each_gram(normalize(training), [&](std::uint32_t gram) {
      counts[gram] += 1.0;
      total += 1.0;
    });
    const auto slot = static_cast<std::size_t>(li);
    for (const auto& [gram, count] : counts)
      rows.try_emplace(gram, fallback).first->second[slot] =
          std::log(std::max(count / total, 2.0 * kOovProbability));
  }
  // 1- and 2-grams get direct row indexes, 3-grams the hashed table.
  short_rows_.assign(1, fallback);
  bigram_row_.assign(std::size_t{1} << 16, 0);
  std::map<std::uint32_t, Scores> trigrams;
  for (const auto& [gram, row] : rows) {
    const std::uint32_t n = gram >> 24;
    if (n == 3) {
      trigrams.emplace(gram, row);
      continue;
    }
    if (short_rows_.size() > 0xFFFF)
      throw std::length_error(
          "LanguageDetector: 1- and 2-gram rows overflow their uint16_t "
          "index");
    const auto index = static_cast<std::uint16_t>(short_rows_.size());
    short_rows_.push_back(row);
    if (n == 1)
      unigram_row_[gram & 0xFF] = index;
    else
      bigram_row_[gram & 0xFFFF] = index;
  }
  trigrams_ = RowTable<std::uint32_t, GramKey, kNumLanguages>(trigrams,
                                                               fallback);
}

// Three passes over `norm` — 1-grams, 2-grams, 3-grams — in the order
// for_each_gram visits them. A 1- or 2-gram is one direct row index, a
// 3-gram one table probe, and each row is one RowSum::add. Each
// language's sum takes its terms in gram order, so every score is
// bit-identical to a per-language loop over the same grams.
// detlint: hot
std::size_t LanguageDetector::score_grams(std::string_view norm,
                                          Scores& scores) const {
  constexpr std::uint32_t kBlankBigram = 0x2020;  // "  "
  const auto* bytes = reinterpret_cast<const unsigned char*>(norm.data());
  const std::size_t size = norm.size();
  const Scores* rows = short_rows_.data();
  const std::uint16_t* bigram_row = bigram_row_.data();
  RowSum<kNumLanguages> sum(scores);
  std::size_t count = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (bytes[i] == ' ') continue;
    sum.add(rows[unigram_row_[bytes[i]]]);
    ++count;
  }
  for (std::size_t i = 0; i + 2 <= size; ++i) {
    const std::uint32_t key =
        std::uint32_t{bytes[i]} | std::uint32_t{bytes[i + 1]} << 8;
    if (key == kBlankBigram) continue;
    sum.add(rows[bigram_row[key]]);
    ++count;
  }
  const std::uint32_t blank = pack_gram("   ", 0, 3);
  for (std::size_t i = 0; i + 3 <= size; ++i) {
    const std::uint32_t gram = pack_gram(norm, i, 3);
    if (gram == blank) continue;
    sum.add(trigrams_.find(gram));
    ++count;
  }
  sum.store(scores);
  return count;
}

LanguageGuess LanguageDetector::detect(std::string_view text) const {
  Scores scores{};
  const std::size_t grams = score_grams(normalize(text), scores);
  if (grams == 0) return {Language::kEnglish, 0.0};

  const auto best =
      std::max_element(scores.begin(), scores.end()) - scores.begin();
  // Posterior share via log-sum-exp, normalized per n-gram to keep the
  // confidence scale comparable across document lengths.
  const double scale = 1.0 / static_cast<double>(grams);
  double denom = 0.0;
  for (double s : scores)
    denom += std::exp((s - scores[best]) * scale);
  const double confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  return {language_from_index(static_cast<int>(best)), confidence};
}

const LanguageDetector& LanguageDetector::instance() {
  static const LanguageDetector detector;
  return detector;
}

}  // namespace torsim::content
