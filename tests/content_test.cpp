#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "content/corpus.hpp"
#include "content/language_detector.hpp"
#include "content/page_generator.hpp"
#include "content/pipeline.hpp"
#include "content/row_table.hpp"
#include "content/topic_classifier.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace torsim::content {
namespace {

// ---------------------------------------------------------------------
// RowSum: the register-resident per-class sum both scorers add into
// ---------------------------------------------------------------------

/// A value drawn from the kinds the scorers' rows hold and the edge
/// cases IEEE addition treats specially.
double row_value(util::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0:
      return std::numeric_limits<double>::infinity();
    case 1:
      return -std::numeric_limits<double>::infinity();
    case 2:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1000));
    case 3:
      return -std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.uniform_int(1, 1000));
    case 4:
      return -1e9;  // the topic scorer's floor for a class without docs
    case 5:
      return 0.0;
    default:
      return -20.0 * rng.uniform01();  // a log-probability
  }
}

template <std::size_t W>
void expect_row_sum_matches_scalar_loop(std::uint64_t seed) {
  util::Rng rng(seed);
  for (int doc = 0; doc < 200; ++doc) {
    std::array<double, W> start{};
    for (double& v : start) v = row_value(rng);
    const auto rows_in_doc = rng.uniform_int(0, 40);
    std::vector<std::array<double, W>> rows(static_cast<std::size_t>(
        rows_in_doc));
    for (auto& row : rows)
      for (double& v : row) v = row_value(rng);

    std::array<double, W> want = start;
    for (const auto& row : rows)
      for (std::size_t k = 0; k < W; ++k) want[k] += row[k];

    RowSum<W> sum(start);
    for (const auto& row : rows) sum.add(row);
    std::array<double, W> got{};
    sum.store(got);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0)
        << "width " << W << " document " << doc;
  }
}

TEST(RowSumTest, BitIdenticalToScalarLoopAtEveryWidth) {
  expect_row_sum_matches_scalar_loop<1>(1);
  expect_row_sum_matches_scalar_loop<2>(2);
  expect_row_sum_matches_scalar_loop<kNumLanguages>(17);
  expect_row_sum_matches_scalar_loop<kNumTopics>(18);
}

TEST(RowSumTest, StoreWithoutAddReturnsTheStart) {
  const std::array<double, 3> start = {-1e9, -0.0, 2.5};
  std::array<double, 3> got{};
  RowSum<3>(start).store(got);
  EXPECT_EQ(std::memcmp(got.data(), start.data(), sizeof(got)), 0);
}

// ---------------------------------------------------------------------
// taxonomy & corpus
// ---------------------------------------------------------------------

TEST(TopicsTest, PaperPercentagesSumTo100) {
  double total = 0;
  for (double p : paper_topic_percentages()) total += p;
  EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(TopicsTest, NamesAndIndicesRoundTrip) {
  for (int i = 0; i < kNumTopics; ++i) {
    const Topic t = topic_from_index(i);
    EXPECT_FALSE(topic_name(t).empty());
    EXPECT_EQ(static_cast<int>(t), i);
  }
  EXPECT_THROW(topic_from_index(-1), std::out_of_range);
  EXPECT_THROW(topic_from_index(kNumTopics), std::out_of_range);
}

TEST(TopicsTest, LanguageSharesSumToOne) {
  double total = 0;
  for (double s : paper_language_shares()) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(paper_language_shares()[0], 0.84);  // English
  for (int i = 1; i < kNumLanguages; ++i)
    EXPECT_LT(paper_language_shares()[i], 0.03);  // each minority < 3%
}

TEST(CorpusTest, EveryTopicHasVocabulary) {
  for (int i = 0; i < kNumTopics; ++i) {
    const Topic t = topic_from_index(i);
    EXPECT_GE(topic_keywords(t).size(), 20u) << topic_name(t);
    EXPECT_GE(topic_phrases(t).size(), 3u) << topic_name(t);
  }
}

TEST(CorpusTest, EveryLanguageHasWords) {
  for (int i = 0; i < kNumLanguages; ++i) {
    const Language l = language_from_index(i);
    EXPECT_GE(language_words(l).size(), 40u) << language_name(l);
  }
}

TEST(CorpusTest, TopicVocabulariesMostlyDisjoint) {
  // Overlapping keywords blur classification; require pairwise overlap
  // below 20% of the smaller vocabulary.
  for (int a = 0; a < kNumTopics; ++a) {
    for (int b = a + 1; b < kNumTopics; ++b) {
      const auto& ka = topic_keywords(topic_from_index(a));
      const auto& kb = topic_keywords(topic_from_index(b));
      int shared = 0;
      for (const auto& w : ka)
        for (const auto& v : kb)
          if (w == v) ++shared;
      const double limit =
          0.2 * static_cast<double>(std::min(ka.size(), kb.size()));
      EXPECT_LE(shared, limit)
          << topic_name(topic_from_index(a)) << " vs "
          << topic_name(topic_from_index(b));
    }
  }
}

TEST(CorpusTest, TorHostPageLongEnoughToClassify) {
  EXPECT_GE(util::count_words(torhost_default_page()), 20u);
}

TEST(CorpusTest, SshBannerIsShort) {
  EXPECT_LT(util::count_words(ssh_banner()), 20u);
}

// ---------------------------------------------------------------------
// page generator
// ---------------------------------------------------------------------

TEST(PageGeneratorTest, EnglishPageHasRequestedLength) {
  PageGenerator gen;
  util::Rng rng(1);
  const auto page = gen.generate_english(Topic::kDrugs, 150, rng);
  const auto words = util::count_words(page);
  EXPECT_GE(words, 150u);
  EXPECT_LT(words, 170u);
}

TEST(PageGeneratorTest, PageContainsTopicVocabulary) {
  PageGenerator gen;
  util::Rng rng(2);
  const auto page = gen.generate_english(Topic::kWeapons, 200, rng);
  int hits = 0;
  for (const auto& kw : topic_keywords(Topic::kWeapons))
    if (page.find(kw) != std::string::npos) ++hits;
  EXPECT_GE(hits, 5);
}

TEST(PageGeneratorTest, StubIsUnderTwentyWords) {
  PageGenerator gen;
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i)
    EXPECT_LT(util::count_words(gen.generate_stub(rng)), 20u);
}

TEST(PageGeneratorTest, NonEnglishUsesLanguageWords) {
  PageGenerator gen;
  util::Rng rng(4);
  const auto page = gen.generate(Topic::kDrugs, Language::kGerman, 100, rng);
  int hits = 0;
  for (const auto& w : language_words(Language::kGerman))
    if (page.find(w) != std::string::npos) ++hits;
  EXPECT_GE(hits, 10);
}

// ---------------------------------------------------------------------
// language detector (parameterized over all 17 languages)
// ---------------------------------------------------------------------

class LanguageDetectorParamTest : public ::testing::TestWithParam<int> {};

TEST_P(LanguageDetectorParamTest, DetectsGeneratedPages) {
  const Language lang = language_from_index(GetParam());
  PageGenerator gen;
  util::Rng rng(500 + GetParam());
  const LanguageDetector& detector = LanguageDetector::instance();
  int correct = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const auto page = gen.generate(Topic::kOther, lang, 120, rng);
    if (detector.detect(page).language == lang) ++correct;
  }
  EXPECT_GE(correct, 17) << language_name(lang);  // >= 85% accuracy
}

INSTANTIATE_TEST_SUITE_P(AllLanguages, LanguageDetectorParamTest,
                         ::testing::Range(0, kNumLanguages));

// EXPERIMENTS.md's language-ID ablation: over 20 generated pages per
// language, accuracy at 3 words is well short of the perfect score
// reached from 40 words on, which is why the paper excluded pages
// under 20 words.
TEST(LanguageDetectorTest, AccuracyAtThreeAndFortyPlusWords) {
  const auto correct_pages = [](int words) {
    PageGenerator gen;
    util::Rng rng(4000 + static_cast<std::uint64_t>(words));
    int correct = 0;
    for (int li = 0; li < kNumLanguages; ++li) {
      const Language lang = language_from_index(li);
      for (int i = 0; i < 20; ++i)
        if (LanguageDetector::instance()
                .detect(gen.generate(Topic::kOther, lang, words, rng))
                .language == lang)
          ++correct;
    }
    return correct;
  };
  EXPECT_EQ(correct_pages(3), 289);  // of 340: 85%
  for (const int words : {40, 80, 160})
    EXPECT_EQ(correct_pages(words), 20 * kNumLanguages) << words << " words";
}

TEST(LanguageDetectorTest, EmptyTextFallsBackToEnglish) {
  const auto guess = LanguageDetector::instance().detect("");
  EXPECT_EQ(guess.language, Language::kEnglish);
  EXPECT_EQ(guess.confidence, 0.0);
}

TEST(LanguageDetectorTest, TorHostDefaultIsEnglish) {
  EXPECT_EQ(
      LanguageDetector::instance().detect(torhost_default_page()).language,
      Language::kEnglish);
}

TEST(LanguageDetectorTest, CyrillicIsRussian) {
  EXPECT_EQ(LanguageDetector::instance()
                .detect("это очень важный документ для всех людей")
                .language,
            Language::kRussian);
}

// ---------------------------------------------------------------------
// topic classifier (parameterized over all 18 topics)
// ---------------------------------------------------------------------

class TopicClassifierParamTest : public ::testing::TestWithParam<int> {
 protected:
  static const TopicClassifier& classifier() {
    static const TopicClassifier instance = [] {
      util::Rng rng(42);
      return TopicClassifier::make_default(rng);
    }();
    return instance;
  }
};

TEST_P(TopicClassifierParamTest, ClassifiesGeneratedPages) {
  const Topic topic = topic_from_index(GetParam());
  PageGenerator gen;
  util::Rng rng(900 + GetParam());
  int correct = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const auto page = gen.generate_english(topic, 150, rng);
    if (classifier().classify(page).topic == topic) ++correct;
  }
  EXPECT_GE(correct, 16) << topic_name(topic);  // >= 80% accuracy
}

INSTANTIATE_TEST_SUITE_P(AllTopics, TopicClassifierParamTest,
                         ::testing::Range(0, kNumTopics));

TEST(TopicClassifierTest, RequiresTraining) {
  TopicClassifier classifier;
  EXPECT_FALSE(classifier.trained());
  EXPECT_THROW(classifier.classify("anything"), std::logic_error);
  EXPECT_THROW(classifier.train({}), std::invalid_argument);
}

TEST(TopicClassifierTest, TrainOnExplicitDocs) {
  TopicClassifier classifier;
  classifier.train({{Topic::kGames, "chess poker lottery casino bets"},
                    {Topic::kScience, "physics chemistry theorem quantum"}});
  EXPECT_EQ(classifier.classify("a chess tournament with poker").topic,
            Topic::kGames);
  EXPECT_EQ(classifier.classify("the quantum physics theorem").topic,
            Topic::kScience);
}

// ---------------------------------------------------------------------
// pipeline exclusion rules (hand-built destinations)
// ---------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : classifier_([] {
          util::Rng rng(43);
          return TopicClassifier::make_default(rng, 25, 100);
        }()),
        pipeline_(classifier_, LanguageDetector::instance()) {}

  static CrawlDestination dest(std::string onion, std::uint16_t port,
                               std::string text, bool connected = true,
                               bool error = false) {
    CrawlDestination d;
    d.onion = std::move(onion);
    d.port = port;
    d.connected = connected;
    d.text = std::move(text);
    d.error_page = error;
    return d;
  }

  std::string long_page(Topic topic, int seed) {
    PageGenerator gen;
    util::Rng rng(static_cast<std::uint64_t>(seed));
    return gen.generate_english(topic, 120, rng);
  }

  TopicClassifier classifier_;
  ContentPipeline pipeline_;
};

TEST_F(PipelineTest, ExcludesShortPages) {
  const auto result = pipeline_.run({dest("aaaa", 80, "too short")});
  EXPECT_EQ(result.excluded_short, 1u);
  EXPECT_EQ(result.classifiable, 0u);
}

TEST_F(PipelineTest, CountsSshBanners) {
  const auto result = pipeline_.run(
      {dest("aaaa", 22, std::string(ssh_banner()))});
  EXPECT_EQ(result.excluded_short, 1u);
  EXPECT_EQ(result.excluded_ssh_banner, 1u);
}

TEST_F(PipelineTest, Excludes443Duplicates) {
  const auto page = long_page(Topic::kDrugs, 1);
  const auto result = pipeline_.run(
      {dest("aaaa", 80, page), dest("aaaa", 443, page)});
  EXPECT_EQ(result.excluded_dup443, 1u);
  EXPECT_EQ(result.classifiable, 1u);  // the port-80 copy survives
}

TEST_F(PipelineTest, Keeps443WithDistinctContent) {
  const auto result = pipeline_.run(
      {dest("aaaa", 80, long_page(Topic::kDrugs, 2)),
       dest("aaaa", 443, long_page(Topic::kGames, 3))});
  EXPECT_EQ(result.excluded_dup443, 0u);
  EXPECT_EQ(result.classifiable, 2u);
}

TEST_F(PipelineTest, ExcludesErrorPages) {
  std::string padded(html_error_page());
  padded += " the server encountered an error and could not complete your "
            "request please try again later or contact the administrator "
            "of this hidden service for more information about the outage";
  const auto result = pipeline_.run({dest("aaaa", 80, padded, true, true)});
  EXPECT_EQ(result.excluded_error, 1u);
  EXPECT_EQ(result.classifiable, 0u);
}

TEST_F(PipelineTest, SkipsUnconnectedDestinations) {
  const auto result = pipeline_.run(
      {dest("aaaa", 80, long_page(Topic::kDrugs, 4), false)});
  EXPECT_EQ(result.connected, 0u);
  EXPECT_EQ(result.destinations_total, 1u);
}

TEST_F(PipelineTest, SeparatesTorHostDefaults) {
  const auto result = pipeline_.run(
      {dest("aaaa", 80, std::string(torhost_default_page()))});
  EXPECT_EQ(result.torhost_default, 1u);
  EXPECT_EQ(result.classified, 0u);
  EXPECT_EQ(result.english, 1u);
}

TEST_F(PipelineTest, NonEnglishCountedButNotClassified) {
  PageGenerator gen;
  util::Rng rng(44);
  const auto page = gen.generate(Topic::kDrugs, Language::kGerman, 100, rng);
  const auto result = pipeline_.run({dest("aaaa", 80, page)});
  EXPECT_EQ(result.classifiable, 1u);
  EXPECT_EQ(result.english, 0u);
  EXPECT_EQ(result.classified, 0u);
  EXPECT_EQ(result.language_counts[static_cast<int>(Language::kGerman)], 1u);
}

TEST_F(PipelineTest, ClassifiesEnglishPagesIntoTopics) {
  const auto result = pipeline_.run(
      {dest("aaaa", 80, long_page(Topic::kDrugs, 5)),
       dest("bbbb", 80, long_page(Topic::kAdult, 6)),
       dest("cccc", 80, long_page(Topic::kPolitics, 7))});
  EXPECT_EQ(result.classified, 3u);
  EXPECT_EQ(result.topic_counts[static_cast<int>(Topic::kDrugs)], 1u);
  EXPECT_EQ(result.topic_counts[static_cast<int>(Topic::kAdult)], 1u);
  EXPECT_EQ(result.topic_counts[static_cast<int>(Topic::kPolitics)], 1u);
  ASSERT_EQ(result.services.size(), 3u);
  EXPECT_EQ(result.services[0].onion, "aaaa");
}

TEST_F(PipelineTest, TableIPortCounts) {
  const auto result = pipeline_.run(
      {dest("aaaa", 80, long_page(Topic::kDrugs, 8)),
       dest("bbbb", 443, long_page(Topic::kGames, 9)),
       dest("cccc", 8080, long_page(Topic::kArt, 10))});
  EXPECT_EQ(result.port_counts.count(80), 1);
  EXPECT_EQ(result.port_counts.count(443), 1);
  EXPECT_EQ(result.port_counts.count(8080), 1);
}

TEST_F(PipelineTest, PercentagesNormalize) {
  const auto result = pipeline_.run(
      {dest("aaaa", 80, long_page(Topic::kDrugs, 11)),
       dest("bbbb", 80, long_page(Topic::kDrugs, 12))});
  const auto pct = result.topic_percentages();
  double total = 0;
  for (double p : pct) total += p;
  EXPECT_NEAR(total, 100.0, 1e-9);
  // Empty result stays at zero (no NaN).
  PipelineResult empty;
  for (double p : empty.topic_percentages()) EXPECT_DOUBLE_EQ(p, 0.0);
}

}  // namespace
}  // namespace torsim::content

// ---------------------------------------------------------------------
// centroid classifier (the "second tool", as the paper used uClassify
// alongside Mallet) — appended suite
// ---------------------------------------------------------------------
#include "content/centroid_classifier.hpp"

namespace torsim::content {
namespace {

class CentroidClassifierParamTest : public ::testing::TestWithParam<int> {
 protected:
  static const CentroidClassifier& classifier() {
    static const CentroidClassifier instance = [] {
      util::Rng rng(52);
      return CentroidClassifier::make_default(rng);
    }();
    return instance;
  }
};

TEST_P(CentroidClassifierParamTest, ClassifiesGeneratedPages) {
  const Topic topic = topic_from_index(GetParam());
  PageGenerator gen;
  util::Rng rng(1200 + GetParam());
  int correct = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const auto page = gen.generate_english(topic, 150, rng);
    if (classifier().classify(page).topic == topic) ++correct;
  }
  EXPECT_GE(correct, 16) << topic_name(topic);
}

INSTANTIATE_TEST_SUITE_P(AllTopics, CentroidClassifierParamTest,
                         ::testing::Range(0, kNumTopics));

TEST(CentroidClassifierTest, RequiresTraining) {
  CentroidClassifier classifier;
  EXPECT_FALSE(classifier.trained());
  EXPECT_THROW(classifier.classify("x"), std::logic_error);
  EXPECT_THROW(classifier.train({}), std::invalid_argument);
}

TEST(CentroidClassifierTest, ExplicitDocs) {
  CentroidClassifier classifier;
  classifier.train({{Topic::kGames, "chess poker lottery casino bets"},
                    {Topic::kScience, "physics chemistry theorem quantum"}});
  EXPECT_EQ(classifier.classify("poker and chess night").topic, Topic::kGames);
  EXPECT_EQ(classifier.classify("quantum chemistry research").topic,
            Topic::kScience);
}

TEST(CentroidClassifierTest, AgreesWithNaiveBayes) {
  util::Rng rng(53);
  const auto bayes = TopicClassifier::make_default(rng, 30, 120);
  const auto centroid = CentroidClassifier::make_default(rng, 30, 120);
  util::Rng eval_rng(54);
  const auto report = measure_agreement(bayes, centroid, eval_rng, 10, 150);
  EXPECT_EQ(report.documents, 10u * kNumTopics);
  // The two families should agree on the vast majority of pages — the
  // cross-validation confidence the paper leaned on.
  EXPECT_GT(report.agreement_rate(), 0.85);
  // And agreement is almost always *correct* agreement.
  EXPECT_GT(static_cast<double>(report.agreed_correct) /
                static_cast<double>(report.agreed),
            0.95);
}

}  // namespace
}  // namespace torsim::content

#include "content/html.hpp"

namespace torsim::content {
namespace {

TEST(HtmlTest, WrapStripRoundTrip) {
  const std::string body = "plain words with no markup at all";
  EXPECT_EQ(strip_html(wrap_html("any title", body)), body);
  EXPECT_EQ(strip_html(wrap_html("", "")), "");
}

TEST(HtmlTest, TitleDoesNotLeakIntoText) {
  const auto stripped = strip_html(wrap_html("SECRET TITLE", "the body"));
  EXPECT_EQ(stripped, "the body");
  EXPECT_EQ(stripped.find("SECRET"), std::string::npos);
}

TEST(HtmlTest, RemovesNestedTags) {
  EXPECT_EQ(strip_html("<p>hello <b>bold</b> world</p>"),
            "hello bold world");
  EXPECT_EQ(strip_html("no tags here"), "no tags here");
}

TEST(HtmlTest, DecodesBasicEntities) {
  EXPECT_EQ(strip_html("a &amp; b &lt;c&gt; &quot;d&quot; &#39;e&#39;"),
            "a & b <c> \"d\" 'e'");
}

TEST(HtmlTest, BodylessDocumentStripsEverything) {
  EXPECT_EQ(strip_html("<div>text</div><span>more</span>"), "textmore");
}

}  // namespace
}  // namespace torsim::content
