// Pins the data-oriented layout contracts (ROADMAP item 3,
// docs/data-layout.md): the global string interner's determinism and
// view stability, the Population facade's exact column reserves and
// handle (not reference) identity, the hsdir descriptor arena's
// epoch-gated compaction against Consensus::generation's copy/move
// semantics, and the interned Fig. 1 port labels feeding the scan CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dirauth/authority.hpp"
#include "hsdir/descriptor.hpp"
#include "hsdir/store.hpp"
#include "population/population.hpp"
#include "relay/registry.hpp"
#include "scan/port_scanner.hpp"
#include "util/arena.hpp"
#include "util/csv.hpp"
#include "util/interner.hpp"
#include "util/rng.hpp"

namespace torsim {
namespace {

constexpr util::UnixTime kT0 = 1360800000;  // 2013-02-14

// ---------------------------------------------------------------------
// util::StringInterner (satellite: interner coverage)
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
    ASSERT_TRUE(interner.find(texts[i]).has_value());
    EXPECT_EQ(*interner.find(texts[i]), ids[i]);
  }
  EXPECT_FALSE(interner.find("never-interned").has_value());
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

TEST(ByteArenaTest, ZeroByteAppendReturnsEndOffset) {
  util::ByteArena arena;
  EXPECT_EQ(arena.append(nullptr, 0), 0u);
  const std::uint8_t bytes[3] = {1, 2, 3};
  EXPECT_EQ(arena.append(bytes, sizeof bytes), 0u);
  const std::vector<std::uint8_t> none;
  EXPECT_EQ(arena.append(none.data(), none.size()), 3u);
  EXPECT_EQ(arena.bytes_used(), 3u);
  EXPECT_EQ(arena.at(0)[2], 3);
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
  EXPECT_GE(interner.bytes(), big.size() + big2.size());
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

// Interning happens only in serial sections, so the global table's
// contents are a function of the work done, not of the thread count:
// running the parallel scan sweep at 1/4/8 threads mints identical
// labels and never grows the table after the first run.
TEST(StringInternerTest, GlobalTableThreadCountInvariant) {
  population::PopulationConfig config;
  config.seed = 7;
  config.scale = 0.02;
  const auto pop = population::Population::generate(config);

  std::vector<std::vector<std::pair<std::string, std::int64_t>>> runs;
  std::vector<std::size_t> sizes;
  for (const int threads : {1, 4, 8}) {
    scan::PortScanner scanner(scan::ScanConfig{.threads = threads});
    const auto report = scanner.scan(pop);
    std::vector<std::pair<std::string, std::int64_t>> rows;
    for (const auto& [label, count] : report.figure1(2))
      rows.emplace_back(std::string(label), count);
    runs.push_back(std::move(rows));
    sizes.push_back(util::global_interner().size());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  // The 4- and 8-thread runs interned nothing the 1-thread run had not.
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[0], sizes[2]);
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
  // column_bytes sums capacity * sizeof for all 14 columns. With the
  // spec-sized reserve in generate() no column ever reallocates, so
  // capacity == size and the footprint equals the exact per-element
  // cost (the bug this pins: only by_onion_ was reserved, so every
  // column doubled its way up and held up to 2x the needed bytes).
  const std::size_t per_service =
      sizeof(crypto::KeyPair) + 3 * sizeof(util::StringInterner::Id) +
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
  const std::string onion(pop.onion(id));
  const std::string_view onion_view = pop.onion(id);

  // Interner churn (rehash + new blocks) must not invalidate the views
  // the facade handed out or the by-onion index keyed on them.
  for (int i = 0; i < 20000; ++i)
    util::global_interner().intern("layout-churn-" + std::to_string(i));
  EXPECT_EQ(onion_view, onion);
  const auto found = pop.find(onion);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->index(), id);

  // Moving the population relocates the columns wholesale; the id keeps
  // denoting the same service in the destination, and interner-backed
  // views compare equal across the move.
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
}

// ---------------------------------------------------------------------
// Consensus::generation vs the descriptor-arena epoch (satellite:
// copy-restamp / move-preserve lifetime audit)
// ---------------------------------------------------------------------

dirauth::Consensus tiny_consensus(std::uint64_t seed) {
  relay::Registry registry;
  util::Rng rng(seed);
  for (int i = 0; i < 12; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "r" + std::to_string(i);
    rc.address = util::Ipv4::random_public(rng);
    rc.bandwidth_kbps = 100.0;
    const auto id = registry.create(rc, rng, kT0 - 40 * 3600);
    registry.get(id).set_online(true, kT0 - 40 * 3600);
  }
  dirauth::Authority authority;
  return authority.build_consensus(registry, kT0);
}

TEST(GenerationLifetimeTest, CopyRestampsMovePreservesSourceDecaysToZero) {
  const auto original = tiny_consensus(31);
  ASSERT_NE(original.generation(), 0u);

  // Copy: fresh entries buffer, fresh stamp.
  const auto copied = original;
  EXPECT_NE(copied.generation(), 0u);
  EXPECT_NE(copied.generation(), original.generation());
  EXPECT_EQ(copied.size(), original.size());

  // Move: the stamp travels with the storage; the source decays to the
  // empty generation-0 consensus.
  auto donor = tiny_consensus(32);
  const auto donor_generation = donor.generation();
  const auto moved = std::move(donor);
  EXPECT_EQ(moved.generation(), donor_generation);
  EXPECT_EQ(donor.generation(), 0u);  // NOLINT(bugprone-use-after-move)
  // The gen-0 pin the store's epoch contract leans on: a moved-from
  // consensus is EMPTY, so it can never route a publish that would
  // reach observe_epoch(0).
  EXPECT_EQ(donor.size(), 0u);
  EXPECT_EQ(donor.hsdir_count(), 0u);
  EXPECT_EQ(dirauth::Consensus().generation(), 0u);
}

TEST(GenerationLifetimeTest, ArenaCompactsOnlyWhenDeadExceedsLiveOnNewEpoch) {
  util::Rng rng(57);
  hsdir::DescriptorStore store;
  const auto key = crypto::KeyPair::generate(rng);
  std::vector<crypto::Fingerprint> intros(3);
  for (auto& fp : intros)
    for (auto& byte : fp) byte = static_cast<std::uint8_t>(rng.index(256));

  store.observe_epoch(1);
  const auto d = hsdir::make_descriptor(key, intros, 0, kT0);
  store.store(d);
  const std::size_t live = store.live_payload_bytes();
  ASSERT_GT(live, 0u);
  EXPECT_EQ(store.arena_bytes(), live);

  // Refresh under the same generation: dead bytes accumulate, but no
  // compaction may run mid-generation (fetch results could be copied
  // out while the publish round is still appending).
  store.store(hsdir::make_descriptor(key, intros, 0, kT0 + 60));
  EXPECT_EQ(store.arena_bytes(), 2 * live);
  store.observe_epoch(1);
  EXPECT_EQ(store.arena_bytes(), 2 * live);
  EXPECT_EQ(store.compactions(), 0);

  // New generation with dead == live: the rule is strictly dead > live,
  // so still no compaction.
  store.observe_epoch(2);
  EXPECT_EQ(store.arena_bytes(), 2 * live);
  EXPECT_EQ(store.compactions(), 0);

  // Another refresh makes dead == 2x live; the next generation change
  // compacts down to exactly the live bytes.
  store.store(hsdir::make_descriptor(key, intros, 0, kT0 + 120));
  EXPECT_EQ(store.arena_bytes(), 3 * live);
  store.observe_epoch(3);
  EXPECT_EQ(store.arena_bytes(), live);
  EXPECT_EQ(store.live_payload_bytes(), live);
  EXPECT_EQ(store.compactions(), 1);
  EXPECT_EQ(store.observed_epoch(), 3u);

  // Payloads survive the compaction byte-for-byte, and fetch hands out
  // owned copies — valid across any later compaction.
  const auto fetched = store.fetch(d.descriptor_id, kT0 + 180);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->service_public_key, d.service_public_key);
  EXPECT_EQ(fetched->introduction_points, d.introduction_points);
  EXPECT_EQ(fetched->published, kT0 + 120);
}

TEST(GenerationLifetimeTest, ExpiredPayloadsAreReclaimedAtNextEpoch) {
  util::Rng rng(58);
  hsdir::DescriptorStore store;
  std::vector<crypto::Fingerprint> intros(2);
  for (auto& fp : intros)
    for (auto& byte : fp) byte = static_cast<std::uint8_t>(rng.index(256));

  store.observe_epoch(1);
  const auto old_key = crypto::KeyPair::generate(rng);
  const auto fresh_key = crypto::KeyPair::generate(rng);
  store.store(hsdir::make_descriptor(old_key, intros, 0, kT0));
  const std::size_t one = store.live_payload_bytes();
  const auto fresh =
      hsdir::make_descriptor(fresh_key, intros, 0, kT0 + 30 * 3600);
  store.store(fresh);
  ASSERT_EQ(store.live_payload_bytes(), 2 * one);

  // Expiry turns the old descriptor's span into dead bytes; the arena
  // holds both until the next generation observes dead > live.
  store.expire(kT0 + 25 * 3600);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.live_payload_bytes(), one);
  EXPECT_EQ(store.arena_bytes(), 2 * one);
  store.observe_epoch(2);
  EXPECT_EQ(store.arena_bytes(), 2 * one);  // dead == live: kept
  store.store(hsdir::make_descriptor(fresh_key, intros, 0, kT0 + 31 * 3600));
  store.observe_epoch(3);
  EXPECT_EQ(store.arena_bytes(), one);
  EXPECT_EQ(store.compactions(), 1);
  const auto still = store.fetch(fresh.descriptor_id, kT0 + 32 * 3600);
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->service_public_key, fresh.service_public_key);
}

// ---------------------------------------------------------------------
// Interned Fig. 1 labels and the scan CSV (satellite: label-table fix)
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
  std::map<std::string_view, std::int64_t> by_label(rows.begin(), rows.end());
  // The paper's well-known ports carry their protocol annotation; the
  // Fig. 1 head at any reasonable scale includes HTTP and Skynet.
  EXPECT_TRUE(by_label.count("80-http"));
  EXPECT_TRUE(by_label.count("55080-Skynet"));
  EXPECT_FALSE(by_label.count("80"));  // never the bare digits for 80
  for (const auto& [label, count] : rows) {
    EXPECT_GT(count, 0);
    EXPECT_FALSE(label.empty());
  }

  // The label table is interned once per distinct port: a second
  // rendering returns pointer-identical views and mints nothing new.
  const std::size_t interned_before = util::global_interner().size();
  const auto again = report.figure1(2);
  ASSERT_EQ(again.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(again[i].second, rows[i].second);
    EXPECT_EQ(again[i].first.data(), rows[i].first.data());
  }
  EXPECT_EQ(util::global_interner().size(), interned_before);
}

TEST(ScanLabelTest, UnannotatedPortLabelIsBareDigits) {
  // A port with no protocol annotation has an empty suffix: the label
  // is the digits alone (and building it must not copy from the empty
  // suffix's null data()).
  scan::ScanReport report;
  report.open_ports.add(8080, 5);
  report.open_ports.add(80, 3);
  const auto rows = report.figure1(1);
  std::map<std::string_view, std::int64_t> by_label(rows.begin(), rows.end());
  EXPECT_EQ(by_label["8080"], 5);
  EXPECT_EQ(by_label["80-http"], 3);
}

TEST(ScanLabelTest, ScanCsvOutputUnchangedByLabelInterning) {
  const auto report = small_scan();
  // The CLI's per-port CSV (torsim scan --csv): ports as bare digits,
  // open/timeout/closed counts joined per port. Rebuilding the label
  // table must never leak annotations ("80-http") into the CSV, and
  // rendering Fig. 1 between writes must not perturb the bytes.
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
  (void)report.figure1(2);  // interns/reads the label table in between
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
