#include "content/topic_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "content/page_generator.hpp"
#include "util/strings.hpp"

namespace torsim::content {

void TopicClassifier::train(const std::vector<LabeledDoc>& docs) {
  if (docs.empty()) throw std::invalid_argument("TopicClassifier: no docs");

  // Ordered maps at training time: the loops below iterate them, and
  // iteration order must not depend on hash layout (the lookup-only
  // words_ table is hashed).
  std::vector<double> class_count(kNumTopics, 0.0);
  std::vector<std::map<std::string, double>> word_count(kNumTopics);
  std::vector<double> total_words(kNumTopics, 0.0);

  for (const LabeledDoc& doc : docs) {
    const int cls = static_cast<int>(doc.topic);
    class_count[cls] += 1.0;
    for (const std::string& w : util::tokenize_words(doc.text)) {
      word_count[cls][w] += 1.0;
      total_words[cls] += 1.0;
    }
  }

  // Shared vocabulary size for smoothing.
  std::set<std::string> vocab;
  for (const auto& counts : word_count)
    for (const auto& [w, c] : counts) vocab.insert(w);
  const double v = static_cast<double>(vocab.size());

  class_log_prior_.assign(kNumTopics, 0.0);
  Scores fallback{};
  const double n_docs = static_cast<double>(docs.size());
  for (int cls = 0; cls < kNumTopics; ++cls) {
    class_log_prior_[cls] =
        std::log((class_count[cls] + 1.0) / (n_docs + kNumTopics));
    // A class with no training documents must never win: its tiny word
    // total would otherwise give it the *highest* Laplace fallback.
    fallback[static_cast<std::size_t>(cls)] =
        class_count[cls] > 0.0 ? std::log(1.0 / (total_words[cls] + v))
                               : -1e9;
  }
  std::map<std::string, Scores> rows;
  for (int cls = 0; cls < kNumTopics; ++cls) {
    const auto slot = static_cast<std::size_t>(cls);
    for (const auto& [w, c] : word_count[cls])
      rows.try_emplace(w, fallback).first->second[slot] =
          std::log((c + 1.0) / (total_words[cls] + v));
  }
  words_ = RowTable<std::string, WordKey, kNumTopics>(rows, fallback);
}

// One table probe and one RowSum::add per word. Each topic's sum takes
// its terms in text order, so every score is bit-identical to a
// per-topic loop over the same words.
// detlint: hot
std::size_t TopicClassifier::score_words(std::string_view lowered,
                                         Scores& scores) const {
  const auto alpha = [&](std::size_t i) {
    return util::is_ascii_alpha(static_cast<unsigned char>(lowered[i]));
  };
  RowSum<kNumTopics> sum(scores);
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < lowered.size()) {
    if (!alpha(i)) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < lowered.size() && alpha(end)) ++end;
    sum.add(words_.find(lowered.substr(i, end - i)));
    ++count;
    i = end;
  }
  sum.store(scores);
  return count;
}

TopicGuess TopicClassifier::classify(std::string_view text) const {
  if (!trained()) throw std::logic_error("TopicClassifier: not trained");
  // Words are maximal alphabetic runs, lowercased (util::tokenize_words'
  // rule): lowercase once here and score views of the copy.
  std::string lowered(text);
  for (char& c : lowered) {
    const auto uc = static_cast<unsigned char>(c);
    if (util::is_ascii_alpha(uc)) c = util::ascii_letter_lower(uc);
  }
  Scores scores{};
  std::copy(class_log_prior_.begin(), class_log_prior_.end(),
            scores.begin());
  const std::size_t words = score_words(lowered, scores);
  const auto best =
      std::max_element(scores.begin(), scores.end()) - scores.begin();
  const double scale = words == 0 ? 1.0 : 1.0 / static_cast<double>(words);
  double denom = 0.0;
  for (double s : scores) denom += std::exp((s - scores[best]) * scale);
  TopicGuess guess;
  guess.topic = topic_from_index(static_cast<int>(best));
  guess.confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  return guess;
}

TopicClassifier TopicClassifier::make_default(util::Rng& rng,
                                              int docs_per_topic,
                                              int words_per_doc) {
  PageGenerator generator;
  std::vector<LabeledDoc> docs;
  docs.reserve(static_cast<std::size_t>(docs_per_topic) * kNumTopics);
  for (int t = 0; t < kNumTopics; ++t) {
    const Topic topic = topic_from_index(t);
    for (int i = 0; i < docs_per_topic; ++i)
      docs.push_back(
          {topic, generator.generate_english(topic, words_per_doc, rng)});
  }
  TopicClassifier classifier;
  classifier.train(docs);
  return classifier;
}

}  // namespace torsim::content
