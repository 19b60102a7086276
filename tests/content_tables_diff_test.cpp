// Differential gate for the flat row tables behind LanguageDetector and
// TopicClassifier: the string-keyed reference implementations below —
// one hash map per language profile, one word map per topic class,
// probed once per feature per class — are replayed against the
// production scorers, which must agree on the winner and reproduce
// every confidence bit for bit: on generated pages, on every page of a
// real crawl, and on byte-exhaustive edge texts that reach every row of
// the detector's 1- and 2-gram direct indexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "content/corpus.hpp"
#include "content/language_detector.hpp"
#include "content/page_generator.hpp"
#include "content/topic_classifier.hpp"
#include "population/population.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace torsim::content {
namespace {

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Reference language detector: a string-keyed log-probability map per
/// language, probed once per n-gram per language.
class OracleLanguageDetector {
 public:
  OracleLanguageDetector() {
    profiles_.resize(kNumLanguages);
    for (int li = 0; li < kNumLanguages; ++li) {
      const Language lang = language_from_index(li);
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
      std::vector<std::string> grams;
      extract_ngrams(training, grams);
      std::map<std::string, double> counts;
      for (const std::string& g : grams) counts[g] += 1.0;
      const double total = static_cast<double>(grams.size());
      constexpr double kOovProbability = 1e-5;
      Profile& profile = profiles_[static_cast<std::size_t>(li)];
      for (auto& [gram, count] : counts) {
        const double p = std::max(count / total, 2.0 * kOovProbability);
        profile.log_prob[gram] = std::log(p);
      }
      profile.log_fallback = std::log(kOovProbability);
    }
  }

  LanguageGuess detect(std::string_view text) const {
    std::vector<std::string> grams;
    extract_ngrams(text, grams);
    if (grams.empty()) return {Language::kEnglish, 0.0};
    std::vector<double> scores(kNumLanguages, 0.0);
    for (int li = 0; li < kNumLanguages; ++li) {
      const Profile& profile = profiles_[static_cast<std::size_t>(li)];
      double score = 0.0;
      for (const std::string& g : grams) {
        const auto it = profile.log_prob.find(g);
        score += it != profile.log_prob.end() ? it->second
                                              : profile.log_fallback;
      }
      scores[static_cast<std::size_t>(li)] = score;
    }
    const auto best =
        std::max_element(scores.begin(), scores.end()) - scores.begin();
    const double scale = 1.0 / static_cast<double>(grams.size());
    double denom = 0.0;
    for (double s : scores) denom += std::exp((s - scores[best]) * scale);
    const double confidence = denom > 0.0 ? 1.0 / denom : 0.0;
    return {language_from_index(static_cast<int>(best)), confidence};
  }

  /// Every n-byte gram of any language profile, sorted.
  std::vector<std::string> profile_grams(std::size_t n) const {
    std::set<std::string> grams;
    for (const Profile& profile : profiles_)
      for (const auto& [gram, log_prob] : profile.log_prob)
        if (gram.size() == n) grams.insert(gram);
    return {grams.begin(), grams.end()};
  }

 private:
  struct Profile {
    std::unordered_map<std::string, double> log_prob;  // lookup-only
    double log_fallback = -12.0;
  };

  static void extract_ngrams(std::string_view text,
                             std::vector<std::string>& out) {
    std::string norm;
    norm.push_back(' ');
    bool last_space = true;
    for (char c : text) {
      const auto uc = static_cast<unsigned char>(c);
      if (uc < 0x80) {
        if (std::isalpha(uc)) {
          norm.push_back(static_cast<char>(std::tolower(uc)));
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
    for (std::size_t n = 1; n <= 3; ++n) {
      if (norm.size() < n) continue;
      for (std::size_t i = 0; i + n <= norm.size(); ++i) {
        std::string gram = norm.substr(i, n);
        if (gram.find_first_not_of(' ') == std::string::npos) continue;
        out.push_back(std::move(gram));
      }
    }
  }

  std::vector<Profile> profiles_;
};

/// Reference topic classifier: one word -> log-probability map per
/// class, probed once per word per class.
class OracleTopicClassifier {
 public:
  explicit OracleTopicClassifier(const std::vector<LabeledDoc>& docs) {
    std::vector<double> class_count(kNumTopics, 0.0);
    std::vector<std::map<std::string, double>> word_count(kNumTopics);
    std::vector<double> total_words(kNumTopics, 0.0);
    for (const LabeledDoc& doc : docs) {
      const auto cls = static_cast<std::size_t>(doc.topic);
      class_count[cls] += 1.0;
      for (const std::string& w : util::tokenize_words(doc.text)) {
        word_count[cls][w] += 1.0;
        total_words[cls] += 1.0;
      }
    }
    std::set<std::string> vocab;
    for (const auto& counts : word_count)
      for (const auto& [w, c] : counts) vocab.insert(w);
    const double v = static_cast<double>(vocab.size());
    class_log_prior_.assign(kNumTopics, 0.0);
    word_log_prob_.assign(kNumTopics, {});
    log_fallback_.assign(kNumTopics, 0.0);
    const double n_docs = static_cast<double>(docs.size());
    for (std::size_t cls = 0; cls < kNumTopics; ++cls) {
      class_log_prior_[cls] =
          std::log((class_count[cls] + 1.0) / (n_docs + kNumTopics));
      for (const auto& [w, c] : word_count[cls])
        word_log_prob_[cls][w] = std::log((c + 1.0) / (total_words[cls] + v));
      log_fallback_[cls] = class_count[cls] > 0.0
                               ? std::log(1.0 / (total_words[cls] + v))
                               : -1e9;
    }
  }

  TopicGuess classify(std::string_view text) const {
    const auto words = util::tokenize_words(text);
    std::vector<double> scores(kNumTopics);
    for (std::size_t cls = 0; cls < kNumTopics; ++cls) {
      double score = class_log_prior_[cls];
      for (const std::string& w : words) {
        const auto it = word_log_prob_[cls].find(w);
        score +=
            it != word_log_prob_[cls].end() ? it->second : log_fallback_[cls];
      }
      scores[cls] = score;
    }
    const auto best =
        std::max_element(scores.begin(), scores.end()) - scores.begin();
    const double scale =
        words.empty() ? 1.0 : 1.0 / static_cast<double>(words.size());
    double denom = 0.0;
    for (double s : scores) denom += std::exp((s - scores[best]) * scale);
    TopicGuess guess;
    guess.topic = topic_from_index(static_cast<int>(best));
    guess.confidence = denom > 0.0 ? 1.0 / denom : 0.0;
    return guess;
  }

  /// Every word any class saw in training, sorted.
  std::vector<std::string> vocabulary() const {
    std::set<std::string> words;
    for (const auto& log_prob : word_log_prob_)
      for (const auto& [word, value] : log_prob) words.insert(word);
    return {words.begin(), words.end()};
  }

 private:
  std::vector<double> class_log_prior_;
  std::vector<std::unordered_map<std::string, double>> word_log_prob_;
  std::vector<double> log_fallback_;
};

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Degenerate and special-case texts every scorer must handle.
std::vector<std::string> edge_texts() {
  return {
      "",
      "!!! ??? ... --- *** 12345 ,;:",
      "a",
      "Z",
      "ab",
      "\xc3\xa9",  // 2-byte UTF-8 (e-acute)
      "\xd0",      // a lone lead byte
      "это очень важный документ для всех людей",  // Cyrillic
      "中文网站 日本語のページ",                     // CJK
      "MiXeD CaSe Bitcoin WALLET escrow, 100% SAFE!!",
      std::string(torhost_default_page()),
      std::string(ssh_banner()),
      std::string(html_error_page()),
  };
}

/// Generated pages in every language (over several topics) and English
/// pages for every topic, clean, noisy and stub-length.
std::vector<std::string> generated_pages() {
  PageGenerator gen;
  util::Rng rng(1313);
  std::vector<std::string> pages;
  for (int li = 0; li < kNumLanguages; ++li)
    for (int t = 0; t < kNumTopics; t += 5)
      pages.push_back(gen.generate(topic_from_index(t),
                                   language_from_index(li), 80, rng));
  for (int t = 0; t < kNumTopics; ++t) {
    const Topic topic = topic_from_index(t);
    pages.push_back(gen.generate_english(topic, 150, rng));
    pages.push_back(gen.generate_english_noisy(topic, 120, rng, 0.4));
  }
  for (int i = 0; i < 5; ++i) pages.push_back(gen.generate_stub(rng));
  return pages;
}

/// The text of every page a scale-0.05 seed-1 crawl fetches: the
/// paper pipeline's real input to both scorers.
std::vector<std::string> crawled_pages() {
  population::PopulationConfig config;
  config.seed = 1;
  config.scale = 0.05;
  const population::Population pop = population::Population::generate(config);
  const scan::ScanReport scan =
      scan::PortScanner(scan::ScanConfig{.seed = 2}).scan(pop);
  const scan::CrawlReport crawl =
      scan::Crawler(scan::CrawlConfig{.seed = 5}).crawl(pop, scan);
  std::vector<std::string> pages;
  for (const CrawlDestination& page : crawl.pages) pages.push_back(page.text);
  return pages;
}

/// Byte-exhaustive texts: every single byte; each 1- and 2-gram row key
/// of the detector's profiles followed by every byte (so every profile
/// 2-gram also starts a 3-gram with every third byte); runs of bytes
/// >= 0x80; separators only (zero grams); and texts holding a "  " pair.
std::vector<std::string> byte_exhaustive_texts(
    const OracleLanguageDetector& oracle) {
  std::vector<std::string> texts;
  for (int b = 0; b < 256; ++b) texts.emplace_back(1, static_cast<char>(b));
  for (std::size_t n = 1; n <= 2; ++n)
    for (const std::string& key : oracle.profile_grams(n))
      for (int b = 0; b < 256; ++b) texts.push_back(key + static_cast<char>(b));
  std::string high;
  for (int b = 0x80; b < 0x100; ++b) {
    texts.emplace_back(7, static_cast<char>(b));
    high.push_back(static_cast<char>(b));
  }
  texts.push_back(high);
  texts.push_back("abc " + high + " def" + high + "xyz");
  texts.push_back(" \t\r\n.,;:!?-_/\\|@#$%^&*()[]{}<>'\"`~+=0123456789 ");
  texts.push_back("  ");
  texts.push_back("hello  world");
  texts.push_back("a  b\xc3\xa9  c");
  return texts;
}

/// Near misses of every vocabulary word: its first or last letter
/// replaced by each of a-z, its last letter dropped, and each of a-z
/// appended. Enough of them share a probe chain with the word itself
/// that a key comparison skipping a byte or the length scores one.
std::vector<std::string> near_miss_words(
    const std::vector<std::string>& vocabulary) {
  std::vector<std::string> texts;
  for (const std::string& word : vocabulary) {
    for (char c = 'a'; c <= 'z'; ++c) {
      std::string first = word;
      first.front() = c;
      std::string last = word;
      last.back() = c;
      texts.push_back(std::move(first));
      texts.push_back(std::move(last));
      texts.push_back(word + c);
    }
    texts.push_back(word.substr(0, word.size() - 1));
  }
  return texts;
}

std::vector<LabeledDoc> training_docs() {
  PageGenerator gen;
  util::Rng rng(42);
  std::vector<LabeledDoc> docs;
  for (int t = 0; t < kNumTopics; ++t)
    for (int i = 0; i < 10; ++i)
      docs.push_back({topic_from_index(t),
                      gen.generate_english(topic_from_index(t), 120, rng)});
  return docs;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_language(const OracleLanguageDetector& oracle,
                          std::string_view text) {
  const LanguageGuess want = oracle.detect(text);
  const LanguageGuess got = LanguageDetector::instance().detect(text);
  EXPECT_EQ(got.language, want.language) << "text: " << text;
  EXPECT_TRUE(same_bits(got.confidence, want.confidence))
      << "text: " << text << " got " << got.confidence << " want "
      << want.confidence;
}

/// For sweeps too large to report every text: counts the texts on which
/// `scorer` and `oracle` disagree in winner or confidence bits and
/// names the first.
template <typename Guess, typename Scorer, typename Oracle>
void expect_all_same(const std::vector<std::string>& texts, Scorer&& scorer,
                     Oracle&& oracle) {
  std::size_t mismatches = 0;
  std::string first;
  for (const std::string& text : texts) {
    const Guess got = scorer(text);
    const Guess want = oracle(text);
    bool same = same_bits(got.confidence, want.confidence);
    if constexpr (std::is_same_v<Guess, LanguageGuess>)
      same = same && got.language == want.language;
    else
      same = same && got.topic == want.topic;
    if (!same && mismatches++ == 0) first = text;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << texts.size()
                            << " texts; first: " << first;
}

void expect_same_topic(const TopicClassifier& classifier,
                       const OracleTopicClassifier& oracle,
                       std::string_view text) {
  const TopicGuess want = oracle.classify(text);
  const TopicGuess got = classifier.classify(text);
  EXPECT_EQ(got.topic, want.topic) << "text: " << text;
  EXPECT_TRUE(same_bits(got.confidence, want.confidence))
      << "text: " << text << " got " << got.confidence << " want "
      << want.confidence;
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(ContentTablesDiffTest, LanguageDetectorMatchesOracleOnGeneratedPages) {
  const OracleLanguageDetector oracle;
  for (const std::string& page : generated_pages())
    expect_same_language(oracle, page);
}

TEST(ContentTablesDiffTest, LanguageDetectorMatchesOracleOnEdgeTexts) {
  const OracleLanguageDetector oracle;
  for (const std::string& text : edge_texts())
    expect_same_language(oracle, text);
}

TEST(ContentTablesDiffTest, LanguageDetectorMatchesOracleOnCrawledPages) {
  const OracleLanguageDetector oracle;
  const std::vector<std::string> pages = crawled_pages();
  ASSERT_GT(pages.size(), 100u);
  expect_all_same<LanguageGuess>(
      pages, [](std::string_view t) {
        return LanguageDetector::instance().detect(t);
      },
      [&](std::string_view t) { return oracle.detect(t); });
}

TEST(ContentTablesDiffTest, LanguageDetectorMatchesOracleOnByteExhaustiveTexts) {
  const OracleLanguageDetector oracle;
  const std::vector<std::string> texts = byte_exhaustive_texts(oracle);
  // 256 single bytes + (101 1-gram + 860 2-gram keys) x 256 + the rest.
  ASSERT_GT(texts.size(), 200'000u);
  expect_all_same<LanguageGuess>(
      texts, [](std::string_view t) {
        return LanguageDetector::instance().detect(t);
      },
      [&](std::string_view t) { return oracle.detect(t); });
}

TEST(ContentTablesDiffTest, TopicClassifierMatchesOracleOnCrawledPages) {
  const std::vector<LabeledDoc> docs = training_docs();
  TopicClassifier classifier;
  classifier.train(docs);
  const OracleTopicClassifier oracle(docs);
  expect_all_same<TopicGuess>(
      crawled_pages(),
      [&](std::string_view t) { return classifier.classify(t); },
      [&](std::string_view t) { return oracle.classify(t); });
}

TEST(ContentTablesDiffTest, TopicClassifierMatchesOracleOnByteExhaustiveTexts) {
  const std::vector<LabeledDoc> docs = training_docs();
  TopicClassifier classifier;
  classifier.train(docs);
  const OracleTopicClassifier oracle(docs);
  expect_all_same<TopicGuess>(
      byte_exhaustive_texts(OracleLanguageDetector()),
      [&](std::string_view t) { return classifier.classify(t); },
      [&](std::string_view t) { return oracle.classify(t); });
}

TEST(ContentTablesDiffTest, TopicClassifierMatchesOracleOnNearMissWords) {
  const std::vector<LabeledDoc> docs = training_docs();
  TopicClassifier classifier;
  classifier.train(docs);
  const OracleTopicClassifier oracle(docs);
  expect_all_same<TopicGuess>(
      near_miss_words(oracle.vocabulary()),
      [&](std::string_view t) { return classifier.classify(t); },
      [&](std::string_view t) { return oracle.classify(t); });
}

TEST(ContentTablesDiffTest, TopicClassifierMatchesOracleOnGeneratedPages) {
  const std::vector<LabeledDoc> docs = training_docs();
  TopicClassifier classifier;
  classifier.train(docs);
  const OracleTopicClassifier oracle(docs);
  for (const std::string& page : generated_pages())
    expect_same_topic(classifier, oracle, page);
}

TEST(ContentTablesDiffTest, TopicClassifierMatchesOracleOnEdgeTexts) {
  const std::vector<LabeledDoc> docs = training_docs();
  TopicClassifier classifier;
  classifier.train(docs);
  const OracleTopicClassifier oracle(docs);
  for (const std::string& text : edge_texts())
    expect_same_topic(classifier, oracle, text);
}

TEST(ContentTablesDiffTest, TopicClassifierMatchesOracleWithEmptyClasses) {
  // Sixteen of eighteen classes have no documents: their fallback is
  // the -1e9 floor, and unknown words must still score it.
  const std::vector<LabeledDoc> docs = {
      {Topic::kGames, "chess poker lottery casino bets poker"},
      {Topic::kScience, "physics chemistry theorem quantum physics"}};
  TopicClassifier classifier;
  classifier.train(docs);
  const OracleTopicClassifier oracle(docs);
  for (const std::string& text : edge_texts())
    expect_same_topic(classifier, oracle, text);
  for (const LabeledDoc& doc : docs)
    expect_same_topic(classifier, oracle, doc.text);
  expect_same_topic(classifier, oracle, "quantum poker unknownword");
}

}  // namespace
}  // namespace torsim::content
