// Ablation: classifier cross-validation, mirroring the paper's use of
// two independent tools (Mallet and uClassify). We compare the naive-
// Bayes and TF-IDF nearest-centroid classifiers head-to-head across
// training-set sizes and report accuracy, agreement, and how the Fig. 2
// topic distribution shifts when the classifier family changes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <vector>

#include "content/centroid_classifier.hpp"
#include "content/page_generator.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace torsim;
using namespace torsim::content;

double accuracy(const std::function<Topic(std::string_view)>& classify,
                util::Rng& rng, int docs_per_topic, int words,
                double noise) {
  PageGenerator gen;
  int correct = 0, total = 0;
  for (int t = 0; t < kNumTopics; ++t) {
    const Topic truth = topic_from_index(t);
    for (int i = 0; i < docs_per_topic; ++i) {
      const auto page = gen.generate_english_noisy(truth, words, rng, noise);
      if (classify(page) == truth) ++correct;
      ++total;
    }
  }
  return static_cast<double>(correct) / total;
}

void BM_TrainCentroid(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(1);
    auto classifier = CentroidClassifier::make_default(rng, 20, 100);
    benchmark::DoNotOptimize(classifier.trained());
  }
}
BENCHMARK(BM_TrainCentroid)->Unit(benchmark::kMillisecond);

void BM_ClassifyCentroid(benchmark::State& state) {
  util::Rng rng(2);
  const auto classifier = CentroidClassifier::make_default(rng, 20, 100);
  PageGenerator gen;
  const auto page = gen.generate_english(Topic::kPolitics, 200, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(classifier.classify(page).topic);
}
BENCHMARK(BM_ClassifyCentroid);

void print_ablation() {
  std::printf("\n==== Ablation — two classifier families (Mallet vs "
              "uClassify analogue) ====\n\n");
  std::printf("  (pages with cross-topic noise: a market page mixes drug\n"
              "   and counterfeit vocabulary; accuracy is per noise level)\n\n");
  std::printf("  %-12s %-10s %-10s\n", "noise", "NB acc", "TFIDF acc");
  util::Rng train_rng(100);
  const auto bayes = TopicClassifier::make_default(train_rng, 40, 120);
  const auto centroid = CentroidClassifier::make_default(train_rng, 40, 120);
  for (double noise : {0.0, 0.3, 0.5, 0.7, 0.85, 0.95}) {
    util::Rng eval_rng(static_cast<std::uint64_t>(200 + noise * 100));
    const double nb_acc = accuracy(
        [&](std::string_view t) { return bayes.classify(t).topic; },
        eval_rng, 15, 150, noise);
    util::Rng eval_rng2(static_cast<std::uint64_t>(200 + noise * 100));
    const double cd_acc = accuracy(
        [&](std::string_view t) { return centroid.classify(t).topic; },
        eval_rng2, 15, 150, noise);
    std::printf("  %-12.2f %-10.3f %-10.3f\n", noise, nb_acc, cd_acc);
  }
  util::Rng agree_rng(300);
  const auto agreement = measure_agreement(bayes, centroid, agree_rng, 15, 150);
  std::printf("\n  agreement on clean pages: %.3f (of which correct %.3f)\n",
              agreement.agreement_rate(),
              agreement.agreed > 0
                  ? static_cast<double>(agreement.agreed_correct) /
                        static_cast<double>(agreement.agreed)
                  : 0.0);

  // How much does Fig. 2 shift if the classifier family changes?
  std::printf("\n  Fig. 2 stability across families (chi-square distance "
              "of topic distributions):\n");
  PageGenerator gen;
  util::Rng page_rng(501);
  std::vector<double> nb_dist(kNumTopics, 0.0), cd_dist(kNumTopics, 0.0);
  for (int i = 0; i < 2000; ++i) {
    // Pages drawn from the paper's Fig. 2 topic mix.
    double roll = page_rng.uniform(0.0, 100.0);
    Topic truth = Topic::kOther;
    for (int t = 0; t < kNumTopics; ++t) {
      roll -= paper_topic_percentages()[t];
      if (roll <= 0.0) {
        truth = topic_from_index(t);
        break;
      }
    }
    const auto page = gen.generate_english_noisy(truth, 150, page_rng, 0.4);
    nb_dist[static_cast<int>(bayes.classify(page).topic)] += 1.0;
    cd_dist[static_cast<int>(centroid.classify(page).topic)] += 1.0;
  }
  const auto nb_norm = stats::normalized(nb_dist);
  const auto cd_norm = stats::normalized(cd_dist);
  std::printf("    NB vs TF-IDF distributions: chi2 = %.4f "
              "(0 = identical Fig. 2 either way)\n",
              stats::chi_square_distance(nb_norm, cd_norm));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_ablation();
}
