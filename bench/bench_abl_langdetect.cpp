// Ablation: language detection accuracy vs. document length.
//
// The paper ran langdetect over crawled pages after excluding documents
// under 20 words — this ablation shows why that floor matters: n-gram
// language identification degrades sharply on very short texts, and the
// 20-word exclusion keeps the Fig. 2 language split trustworthy.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "content/language_detector.hpp"
#include "content/page_generator.hpp"

namespace {

using namespace torsim;
using namespace torsim::content;

double accuracy_at_length(int words, int trials_per_language,
                          std::uint64_t seed) {
  PageGenerator gen;
  util::Rng rng(seed);
  const LanguageDetector& detector = LanguageDetector::instance();
  int correct = 0, total = 0;
  for (int li = 0; li < kNumLanguages; ++li) {
    const Language lang = language_from_index(li);
    for (int i = 0; i < trials_per_language; ++i) {
      const auto page = gen.generate(Topic::kOther, lang, words, rng);
      if (detector.detect(page).language == lang) ++correct;
      ++total;
    }
  }
  return static_cast<double>(correct) / total;
}

void BM_DetectShortText(benchmark::State& state) {
  PageGenerator gen;
  util::Rng rng(1);
  const auto page = gen.generate(Topic::kOther, Language::kFrench,
                                 static_cast<int>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        LanguageDetector::instance().detect(page).language);
}
BENCHMARK(BM_DetectShortText)->Arg(5)->Arg(20)->Arg(100)->Arg(400);

void print_ablation() {
  std::printf("\n==== Ablation — language detection vs document length ====\n");
  std::printf("  (why the paper's <20-words exclusion matters)\n\n");
  std::printf("  %-10s %-10s %s\n", "words", "accuracy", "");
  for (int words : {3, 5, 10, 20, 40, 80, 160}) {
    const double acc =
        accuracy_at_length(words, 20, 4000 + static_cast<std::uint64_t>(words));
    std::printf("  %-10d %-10.3f %s\n", words, acc,
                words < 20 ? "<-- below the paper's exclusion floor" : "");
  }
  std::printf(
      "\n  Confidence is also length-dependent; the detector's normalized\n"
      "  posterior can gate low-confidence verdicts on short fragments.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_ablation();
}
