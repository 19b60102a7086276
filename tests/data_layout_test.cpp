// Pins the data-oriented layout contracts (docs/data-layout.md): the
// Population facade's exact column reserves, handle (not reference)
// identity and peak-RSS budget, and the Fig. 1 port labels next to the
// scan CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hsdir/descriptor.hpp"
#include "hsdir/store.hpp"
#include "obs/stopwatch.hpp"
#include "population/population.hpp"
#include "scan/port_scanner.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TORSIM_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TORSIM_TEST_SANITIZED 1
#endif
#endif

namespace torsim {
namespace {

constexpr util::UnixTime kT0 = 1360800000;  // 2013-02-14

// ---------------------------------------------------------------------
// Population facade (satellite: builder reserves + handle identity)
// ---------------------------------------------------------------------

TEST(PopulationLayoutTest, ColumnsAreExactlyReserved) {
  population::PopulationConfig config;
  config.seed = 11;
  config.scale = 0.05;
  const auto pop = population::Population::generate(config);
  const auto fp = pop.memory_footprint();
  ASSERT_EQ(fp.services, pop.size());
  // column_bytes sums capacity * sizeof for all 13 columns. With the
  // spec-sized reserve in generate() no column ever reallocates, so
  // capacity == size and the footprint equals the exact per-element
  // cost (the bug this pins: columns that doubled their way up held up
  // to 2x the needed bytes). Labels and aliases are 2-byte indices into
  // the population's text table; the onion is derived from the key.
  const std::size_t per_service =
      sizeof(crypto::KeyPair) + 2 * sizeof(std::uint16_t) +
      sizeof(population::ServiceClass) + sizeof(net::ServiceProfile) +
      sizeof(content::Topic) + sizeof(content::Language) +
      2 * sizeof(std::uint8_t) + 2 * sizeof(double) +
      2 * sizeof(std::int32_t);
  EXPECT_EQ(fp.column_bytes, per_service * pop.size());
}

TEST(PopulationLayoutTest, IdentityIsTheIndexNotAReference) {
  population::PopulationConfig config;
  config.seed = 11;
  config.scale = 0.01;
  auto pop = population::Population::generate(config);
  ASSERT_GT(pop.size(), 5u);

  const population::ServiceId id = 5;
  const std::string onion = pop.onion(id);
  const auto found = pop.find(onion);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->index(), id);

  // Moving the population relocates the columns wholesale; the id keeps
  // denoting the same service in the destination.
  auto moved = std::move(pop);
  EXPECT_EQ(moved.onion(id), onion);
  EXPECT_EQ(moved.service(id).index(), id);
  ASSERT_TRUE(moved.find(onion).has_value());
  EXPECT_EQ(moved.find(onion)->index(), id);

  // A copy is an independent population with the same ids and bytes.
  const auto copy = moved;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.size(), moved.size());
  EXPECT_EQ(copy.onion(id), moved.onion(id));
  EXPECT_EQ(copy.service(id).requests_per_2h(),
            moved.service(id).requests_per_2h());
  // Labels live in each population's own text table.
  EXPECT_EQ(copy.label(0), moved.label(0));
  EXPECT_NE(copy.label(0).data(), moved.label(0).data());
}

// Peak-RSS budget: the paper-seed population at scale 0.05 plus three
// publish/refresh rounds on one DescriptorStore must peak under
// 16 MiB + 10%. Peak RSS belongs to the whole process, so the test
// measures only when it is the one test running (ctest runs every test
// in its own process). Sanitizer runtimes inflate RSS, so
// it skips under ASan and TSan.
TEST(PopulationLayoutTest, PeakRssUnderBudgetAtScale005) {
#ifdef TORSIM_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes inflate peak RSS";
#endif
  if (::testing::UnitTest::GetInstance()->test_to_run_count() != 1)
    GTEST_SKIP() << "peak RSS is per process; run this test alone";
  constexpr std::int64_t kPeakRssBudgetBytes = 18'454'937;

  population::PopulationConfig config;
  config.seed = 20130204;
  config.scale = 0.05;
  const auto pop = population::Population::generate(config);

  util::Rng rng(77);
  std::vector<crypto::Fingerprint> intros(3);
  for (auto& fp : intros)
    for (auto& byte : fp) byte = static_cast<std::uint8_t>(rng.index(256));
  const auto count = static_cast<population::ServiceId>(
      std::min<std::size_t>(pop.size(), 2000));
  hsdir::KeyTable keys;
  hsdir::DescriptorStore store(keys);
  // Each key is added once and named by its handle; one publish and two
  // refreshes of the same ids overwrite records in place.
  for (population::ServiceId id = 0; id < count; ++id)
    keys.add(pop.service(id).key().public_bytes());
  for (int round = 0; round < 3; ++round) {
    for (population::ServiceId id = 0; id < count; ++id) {
      auto d = hsdir::make_descriptor(pop.service(id).key(), intros, 0, kT0);
      d.published += round * util::kSecondsPerHour;
      store.store(d, id);
    }
  }
  EXPECT_EQ(store.size(), count);
  EXPECT_EQ(keys.size(), count);

  const std::int64_t peak = obs::peak_rss_bytes();
  RecordProperty("peak_rss_bytes", std::to_string(peak));
  EXPECT_LE(peak, kPeakRssBudgetBytes);
}

// ---------------------------------------------------------------------
// Fig. 1 labels and the scan CSV
// ---------------------------------------------------------------------

scan::ScanReport small_scan() {
  population::PopulationConfig config;
  config.seed = 7;
  config.scale = 0.02;
  const auto pop = population::Population::generate(config);
  scan::PortScanner scanner(scan::ScanConfig{.threads = 1});
  return scanner.scan(pop);
}

TEST(ScanLabelTest, Figure1LabelsAreAnnotatedAndStable) {
  const auto report = small_scan();
  const auto rows = report.figure1(2);
  ASSERT_FALSE(rows.empty());
  std::map<std::string, std::int64_t> by_label(rows.begin(), rows.end());
  // The paper's well-known ports carry their protocol annotation; the
  // Fig. 1 head at any reasonable scale includes HTTP and Skynet.
  EXPECT_TRUE(by_label.count("80-http"));
  EXPECT_TRUE(by_label.count("55080-Skynet"));
  EXPECT_FALSE(by_label.count("80"));  // never the bare digits for 80
  for (const auto& [label, count] : rows) {
    EXPECT_GT(count, 0);
    EXPECT_FALSE(label.empty());
  }

  // A second rendering gives the same rows.
  EXPECT_EQ(report.figure1(2), rows);
}

TEST(ScanLabelTest, UnannotatedPortLabelIsBareDigits) {
  // A port with no protocol annotation has an empty suffix: the label
  // is the digits alone (and building it must not copy from the empty
  // suffix's null data()).
  scan::ScanReport report;
  report.open_ports.add(8080, 5);
  report.open_ports.add(80, 3);
  const auto rows = report.figure1(1);
  std::map<std::string, std::int64_t> by_label(rows.begin(), rows.end());
  EXPECT_EQ(by_label["8080"], 5);
  EXPECT_EQ(by_label["80-http"], 3);
}

TEST(ScanLabelTest, ScanCsvOutputUnchangedByLabelInterning) {
  const auto report = small_scan();
  // The CLI's per-port CSV (torsim scan --csv): ports as bare digits,
  // open/timeout/closed counts joined per port. Fig. 1's annotations
  // ("80-http") must never leak into the CSV, and rendering Fig. 1
  // between writes must not perturb the bytes.
  const auto write_csv = [&](const std::string& path) {
    util::CsvWriter csv(path);
    csv.row({"port", "open", "timeout", "closed"});
    std::map<std::uint16_t, std::array<std::int64_t, 3>> per_port;
    for (const auto& [port, count] : report.open_ports.entries())
      per_port[port][0] = count;
    for (const auto& [port, count] : report.timeout_ports.entries())
      per_port[port][1] = count;
    for (const auto& [port, count] : report.closed_ports.entries())
      per_port[port][2] = count;
    for (const auto& [port, counts] : per_port)
      csv.typed_row(port, counts[0], counts[1], counts[2]);
  };
  const std::string path_a = ::testing::TempDir() + "/scan_a.csv";
  const std::string path_b = ::testing::TempDir() + "/scan_b.csv";
  write_csv(path_a);
  (void)report.figure1(2);  // renders the labels in between
  write_csv(path_b);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string a = slurp(path_a);
  const std::string b = slurp(path_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("-http"), std::string::npos);
  EXPECT_EQ(a.find("-Skynet"), std::string::npos);
  EXPECT_NE(a.find("port,open,timeout,closed"), std::string::npos);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace torsim
