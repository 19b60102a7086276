// Multinomial naive-Bayes topic classification over bags of words —
// the algorithm family behind the Mallet / uClassify tooling the paper
// used for Fig. 2.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "content/row_table.hpp"
#include "content/topics.hpp"
#include "util/rng.hpp"

namespace torsim::content {

/// A labelled training document.
struct LabeledDoc {
  Topic topic;
  std::string text;
};

/// Classification result.
struct TopicGuess {
  Topic topic = Topic::kOther;
  double confidence = 0.0;  ///< winning-class posterior share
};

class TopicClassifier {
 public:
  /// Trains from labelled documents (add-one smoothing, class priors
  /// from label frequencies).
  void train(const std::vector<LabeledDoc>& docs);

  /// Classifies a document; requires train() first.
  TopicGuess classify(std::string_view text) const;

  bool trained() const { return !class_log_prior_.empty(); }

  /// Convenience: trains on `docs_per_topic` synthetic documents per
  /// topic produced by the page generator — the analogue of training
  /// Mallet on a hand-labelled seed corpus.
  static TopicClassifier make_default(util::Rng& rng,
                                      int docs_per_topic = 40,
                                      int words_per_doc = 120);

 private:
  using Scores = std::array<double, kNumTopics>;

  /// Words as RowTable keys, hashed and compared by inline loops (no
  /// std::hash or memcmp call in the scoring loop).
  struct WordKey {
    /// 64-bit FNV-1a, then MurmurHash3's 64-bit finalizer. Without it
    /// the masked low bits of words differing only in their last byte
    /// sit at fixed offsets from each other instead of spreading.
    static std::size_t hash(std::string_view word) {
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (const char c : word)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      h *= 0xC4CEB9FE1A85EC53ULL;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
    static bool equal(std::string_view a, std::string_view b) {
      if (a.size() != b.size()) return false;
      for (std::size_t k = 0; k < a.size(); ++k)
        if (a[k] != b[k]) return false;
      return true;
    }
  };

  /// Adds the row of every word of `lowered` (maximal alphabetic runs,
  /// in text order) to `scores`; returns the word count.
  std::size_t score_words(std::string_view lowered, Scores& scores) const;

  std::vector<double> class_log_prior_;  // [topic]
  /// Word -> one log-probability per topic. A topic that never saw the
  /// word holds that topic's Laplace fallback in its slot; unknown words
  /// get the all-fallback row.
  RowTable<std::string, WordKey, kNumTopics> words_;
};

}  // namespace torsim::content
