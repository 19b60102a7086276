// Golden regression gate for the scenario engine (`ctest -L scenario`):
// every curated pack under scenarios/ must replay byte-identically —
// timeline CSV and metrics JSON — against the committed goldens under
// scenarios/golden/, at --threads 1/4/8. A diff here means the
// simulation's observable history changed; regenerate deliberately
// (docs/scenarios.md) or fix the regression.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/engine.hpp"
#include "scenario/pack.hpp"
#include "util/csv.hpp"

namespace torsim::scenario {
namespace {

const std::string kScenarioDir = TORSIM_SCENARIO_DIR;

const std::vector<std::string>& pack_names() {
  static const std::vector<std::string> names = list_packs(kScenarioDir);
  return names;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate per docs/scenarios.md";
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct RunBytes {
  std::string timeline_csv;
  std::string metrics_json;
};

/// Replays `pack` and captures the exact bytes the CLI would emit for
/// --csv and --metrics-out (same CsvWriter / MetricsRegistry code
/// paths, so golden equality really is artifact equality).
RunBytes run_bytes(const ScenarioPack& pack, int threads,
                   const std::string& fault_override = "") {
  obs::MetricsRegistry metrics;
  ScenarioRunConfig config;
  config.threads = threads;
  config.fault_override = fault_override;
  config.metrics = &metrics;
  const ScenarioRunReport report = run_pack(pack, config);

  const std::string path =
      "/tmp/torsim_scenario_golden_" + pack.name + ".csv";
  {
    util::CsvWriter csv(path);
    report.write_timeline(csv);
  }
  std::ifstream in(path, std::ios::binary);
  RunBytes bytes{std::string(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()),
                 metrics.to_json()};
  std::remove(path.c_str());
  return bytes;
}

class ScenarioGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioGoldenTest, ReplaysByteIdenticalAcrossThreadsAndCache) {
  const ScenarioPack pack = load_pack(kScenarioDir, GetParam());
  const std::string golden_csv =
      read_file(kScenarioDir + "/golden/" + pack.name + ".timeline.csv");
  const std::string golden_metrics =
      read_file(kScenarioDir + "/golden/" + pack.name + ".metrics.json");
  ASSERT_FALSE(golden_csv.empty());
  ASSERT_FALSE(golden_metrics.empty());

  for (const int threads : {1, 4, 8}) {
    const RunBytes bytes = run_bytes(pack, threads);
    EXPECT_EQ(bytes.timeline_csv, golden_csv)
        << pack.name << " timeline diverged at threads=" << threads;
    EXPECT_EQ(bytes.metrics_json, golden_metrics)
        << pack.name << " metrics diverged at threads=" << threads;
  }
}

TEST_P(ScenarioGoldenTest, ShippedPackRoundTripsThroughRenderer) {
  const ScenarioPack pack = load_pack(kScenarioDir, GetParam());
  EXPECT_EQ(parse_pack(render_pack(pack)), pack);
}

INSTANTIATE_TEST_SUITE_P(
    Packs, ScenarioGoldenTest, ::testing::ValuesIn(pack_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(ScenarioPackInventoryTest, EveryPackHasBothGoldens) {
  ASSERT_GE(pack_names().size(), 6u)
      << "curated pack set shrank below the gate's floor";
  for (const std::string& name : pack_names()) {
    EXPECT_FALSE(
        read_file(kScenarioDir + "/golden/" + name + ".timeline.csv")
            .empty())
        << name;
    EXPECT_FALSE(
        read_file(kScenarioDir + "/golden/" + name + ".metrics.json")
            .empty())
        << name;
  }
}

TEST(ScenarioPackInventoryTest, ListPacksSkipsSubdirectories) {
  // golden/ and testdata/ live under scenarios/ but must not be listed.
  for (const std::string& name : pack_names()) {
    EXPECT_NE(name, "bad-version");
    EXPECT_EQ(name.find('/'), std::string::npos);
  }
}

// Chaos composition: a scenario replayed on top of a --faults override
// (the CLI's random-fault knob) must still be a pure function of the
// seed — identical bytes at every thread count, even
// though the override changes the history itself.
TEST(ScenarioChaosComposeTest, FaultOverrideStaysDeterministic) {
  const ScenarioPack pack = load_pack(kScenarioDir, "authority-outage");
  const RunBytes reference = run_bytes(pack, 1, "severe");
  EXPECT_NE(reference.timeline_csv,
            run_bytes(pack, 1).timeline_csv)
      << "severe fault override should visibly change the timeline";
  for (const int threads : {4, 8}) {
    const RunBytes bytes = run_bytes(pack, threads, "severe");
    EXPECT_EQ(bytes.timeline_csv, reference.timeline_csv)
        << "threads=" << threads;
    EXPECT_EQ(bytes.metrics_json, reference.metrics_json)
        << "threads=" << threads;
  }
}

TEST(ScenarioChaosComposeTest, BadFaultOverrideThrows) {
  const ScenarioPack pack = load_pack(kScenarioDir, "baseline-quiet");
  ScenarioRunConfig config;
  config.fault_override = "frobnicate=1";
  EXPECT_THROW((void)run_pack(pack, config), std::invalid_argument);
}

}  // namespace
}  // namespace torsim::scenario
