// Pins the data-oriented layout contracts (docs/data-layout.md): the
// key table's string interner (determinism and view stability), the
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
#include "util/interner.hpp"
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
// util::StringInterner (hsdir::KeyTable's storage)
// ---------------------------------------------------------------------

TEST(StringInternerTest, IdsAreDenseAndInsertionOrdered) {
  util::StringInterner interner;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const std::string text = "svc-" + std::to_string(i);
    EXPECT_EQ(interner.intern(text), i);
  }
  EXPECT_EQ(interner.size(), 100u);
  // Re-interning never mints a new id.
  EXPECT_EQ(interner.intern("svc-42"), 42u);
  EXPECT_EQ(interner.size(), 100u);
}

TEST(StringInternerTest, RoundTripProperty) {
  util::StringInterner interner;
  util::Rng rng(991);
  std::vector<std::string> texts;
  std::set<std::string> seen;
  // Varied lengths: SSO-sized, heap-sized, and block-spanning.
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = 1 + rng.index(120);
    for (std::size_t j = 0; j < len; ++j)
      text.push_back(static_cast<char>('a' + rng.index(26)));
    if (!seen.insert(text).second) continue;
    texts.push_back(text);
  }
  std::vector<util::StringInterner::Id> ids;
  ids.reserve(texts.size());
  for (const std::string& text : texts) ids.push_back(interner.intern(text));
  ASSERT_EQ(interner.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(interner.view(ids[i]), texts[i]);
    EXPECT_EQ(interner.intern(texts[i]), ids[i]);
  }
}

TEST(StringInternerTest, EmptyStringInternsToEmptyView) {
  util::StringInterner interner;
  const auto empty = interner.intern("");
  EXPECT_TRUE(interner.view(empty).empty());
  EXPECT_EQ(interner.intern(std::string_view{}), empty);  // null data()
  const auto word = interner.intern("word");
  EXPECT_NE(word, empty);
  EXPECT_EQ(interner.view(word), "word");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInternerTest, OversizedStringGetsOwnBlock) {
  util::StringInterner interner;
  const std::string big(100 * 1024, 'x');  // past the 64 KiB block size
  const auto id = interner.intern(big);
  EXPECT_EQ(interner.view(id), big);
  // Neighbours before and after stay intact.
  const auto before = interner.intern("small-before");
  const std::string big2(70 * 1024, 'y');
  const auto mid = interner.intern(big2);
  const auto after = interner.intern("small-after");
  EXPECT_EQ(interner.view(before), "small-before");
  EXPECT_EQ(interner.view(mid), big2);
  EXPECT_EQ(interner.view(after), "small-after");
}

TEST(StringInternerTest, ViewsAndIdsStableUnderRehashAndGrowth) {
  util::StringInterner interner;
  std::vector<std::string_view> early_views;
  std::vector<util::StringInterner::Id> early_ids;
  for (int i = 0; i < 16; ++i) {
    const std::string text = "stable-" + std::to_string(i);
    const auto id = interner.intern(text);
    early_ids.push_back(id);
    early_views.push_back(interner.view(id));
  }
  const char* first_data = early_views[0].data();
  // Force many index rehashes and fresh storage blocks.
  for (int i = 0; i < 50000; ++i)
    interner.intern("churn-" + std::to_string(i));
  for (int i = 0; i < 16; ++i) {
    const std::string text = "stable-" + std::to_string(i);
    // Same id on re-intern, same view content, same storage address:
    // nothing moved underneath the holders.
    EXPECT_EQ(interner.intern(text), early_ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(interner.view(early_ids[static_cast<std::size_t>(i)]), text);
  }
  EXPECT_EQ(early_views[0].data(), first_data);
}

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
  // One publish and two refreshes of the same ids: the refreshes
  // overwrite records in place and intern no new key.
  for (int round = 0; round < 3; ++round) {
    for (population::ServiceId id = 0; id < count; ++id) {
      auto d = hsdir::make_descriptor(pop.service(id).key(), intros, 0, kT0);
      d.published += round * util::kSecondsPerHour;
      store.store(d);
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
