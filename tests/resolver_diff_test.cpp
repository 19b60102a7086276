// Differential gate for the resolver's hash join (the distinct
// requested ids counted into a table, every onion's derived ids probed
// into it by parallel tasks over runs of onions, owners folded in task
// order): a std::map dictionary built the serial way (insert every
// derived id in onion order, last writer wins) and a map-counted join
// are replayed against DescriptorResolver at threads 1, 2 and 4, on the
// generated stream and on adversarial ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "oracles.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "util/rng.hpp"

namespace torsim::popularity {
namespace {

using population::Population;

/// Reference dictionary and join: ordered maps throughout, every
/// secret-id-part hashed again for every onion and day.
class OracleResolver {
 public:
  explicit OracleResolver(const std::vector<std::string>& onions,
                          util::UnixTime from = util::make_utc(2013, 1, 28),
                          util::UnixTime to = util::make_utc(2013, 2, 9)) {
    for (const std::string& onion : onions) {
      const auto pid = crypto::parse_onion_address(onion);
      for (util::UnixTime t = from; t < to; t += util::kSecondsPerDay)
        for (const crypto::DescriptorId& id :
             oracle::descriptor_ids_for_period_scalar(
                 pid, crypto::time_period(t, pid)))
          dictionary_[id] = onion;
    }
  }

  const std::map<crypto::DescriptorId, std::string>& dictionary() const {
    return dictionary_;
  }

  ResolutionReport resolve(const RequestStream& stream,
                           const Population* pop) const {
    ResolutionReport report;
    report.total_requests = static_cast<std::int64_t>(stream.requests.size());
    std::map<crypto::DescriptorId, std::int64_t> id_counts;
    for (const DescriptorRequest& req : stream.requests)
      ++id_counts[req.descriptor_id];
    report.unique_descriptor_ids =
        static_cast<std::int64_t>(id_counts.size());
    std::map<std::string, std::int64_t> onion_counts;
    for (const auto& [id, count] : id_counts) {
      const auto it = dictionary_.find(id);
      if (it == dictionary_.end()) continue;
      ++report.resolved_descriptor_ids;
      report.resolved_requests += count;
      onion_counts[it->second] += count;
    }
    report.resolved_onions = static_cast<std::int64_t>(onion_counts.size());
    for (const auto& [onion, count] : onion_counts) {
      RankedService row;
      row.onion = onion;
      row.requests = count;
      if (pop != nullptr) {
        if (const auto svc = pop->find(onion)) {
          row.label = std::string(svc->label());
          row.paper_alias = std::string(svc->paper_alias());
          row.paper_rank = svc->paper_rank();
        }
      }
      report.ranking.push_back(std::move(row));
    }
    std::sort(report.ranking.begin(), report.ranking.end(),
              [](const RankedService& a, const RankedService& b) {
                if (a.requests != b.requests) return a.requests > b.requests;
                return a.onion < b.onion;
              });
    return report;
  }

 private:
  std::map<crypto::DescriptorId, std::string> dictionary_;
};

const Population& test_population() {
  static const Population pop = [] {
    population::PopulationConfig config;
    config.seed = 77;
    config.scale = 0.02;
    return Population::generate(config);
  }();
  return pop;
}

const RequestStream& test_stream() {
  static const RequestStream stream =
      RequestGenerator({.seed = 78}).generate(test_population());
  return stream;
}

std::vector<std::string> population_onions() {
  std::vector<std::string> onions;
  for (const Population::ServiceRef svc : test_population().services())
    onions.emplace_back(svc.onion());
  return onions;
}

/// The resolver's input for `onions`: each one's permanent id, in order.
std::vector<crypto::PermanentId> permanent_ids(
    const std::vector<std::string>& onions) {
  std::vector<crypto::PermanentId> ids;
  ids.reserve(onions.size());
  for (const std::string& onion : onions)
    ids.push_back(crypto::parse_onion_address(onion));
  return ids;
}

void expect_same_report(const ResolutionReport& got,
                        const ResolutionReport& want) {
  EXPECT_EQ(got.total_requests, want.total_requests);
  EXPECT_EQ(got.unique_descriptor_ids, want.unique_descriptor_ids);
  EXPECT_EQ(got.resolved_descriptor_ids, want.resolved_descriptor_ids);
  EXPECT_EQ(got.resolved_onions, want.resolved_onions);
  EXPECT_EQ(got.resolved_requests, want.resolved_requests);
  ASSERT_EQ(got.ranking.size(), want.ranking.size());
  for (std::size_t i = 0; i < got.ranking.size(); ++i) {
    const RankedService& g = got.ranking[i];
    const RankedService& w = want.ranking[i];
    EXPECT_EQ(g.onion, w.onion) << "row " << i;
    EXPECT_EQ(g.requests, w.requests) << "row " << i;
    EXPECT_EQ(g.label, w.label) << "row " << i;
    EXPECT_EQ(g.paper_alias, w.paper_alias) << "row " << i;
    EXPECT_EQ(g.paper_rank, w.paper_rank) << "row " << i;
  }
}

/// resolve_ids() for every derived id and for 1,000 random ids, in one
/// call.
void expect_same_dictionary(const DescriptorResolver& resolver,
                            const OracleResolver& oracle) {
  std::vector<crypto::DescriptorId> ids;
  std::vector<std::optional<std::string>> want;
  for (const auto& [id, onion] : oracle.dictionary()) {
    ids.push_back(id);
    want.emplace_back(onion);
  }
  util::Rng rng(79);
  for (int i = 0; i < 1000; ++i) {
    crypto::DescriptorId id{};
    rng.fill_bytes(id.data(), id.size());
    const auto it = oracle.dictionary().find(id);
    ids.push_back(id);
    want.push_back(it == oracle.dictionary().end()
                       ? std::nullopt
                       : std::optional<std::string>(it->second));
  }
  const std::vector<std::uint32_t> got = resolver.resolve_ids(ids);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::optional<std::string> onion =
        got[i] == DescriptorResolver::kUnresolved
            ? std::nullopt
            : std::optional<std::string>(resolver.onion(got[i]));
    EXPECT_EQ(onion, want[i]) << "id " << i;
  }
}

/// Every id of the oracle's dictionary, in id order.
std::vector<crypto::DescriptorId> dictionary_ids(const OracleResolver& oracle) {
  std::vector<crypto::DescriptorId> ids;
  for (const auto& entry : oracle.dictionary()) ids.push_back(entry.first);
  return ids;
}

std::string upper(std::string text) {
  for (char& c : text)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return text;
}

class ResolverDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(ResolverDiffTest, PopulationDictionaryAndReportMatchMapOracle) {
  const std::vector<std::string> onions = population_onions();
  const OracleResolver oracle(onions);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary(test_population());
  expect_same_dictionary(resolver, oracle);
  expect_same_report(resolver.resolve(test_stream(), test_population()),
                     oracle.resolve(test_stream(), &test_population()));
  expect_same_report(resolver.resolve(test_stream()),
                     oracle.resolve(test_stream(), nullptr));
}

TEST_P(ResolverDiffTest, DuplicateOnionsKeepTheLastWriter) {
  // Case and ".onion" variants decode to the same permanent id, so they
  // derive the same descriptor ids: the later position in input order
  // must own them, as in the serial map insert. The resolver renders an
  // id in its canonical lowercase form, so that is what the oracle maps.
  const std::vector<std::string> base = population_onions();
  std::vector<std::string> onions(base.begin(), base.begin() + 40);
  onions.push_back(base[3]);
  onions.push_back(upper(base[5]));
  onions.push_back(base[7] + ".onion");
  onions.push_back(base[9]);
  onions.push_back(upper(base[9]));
  onions.push_back(base[9]);
  onions.push_back(base[11]);
  std::vector<std::string> canonical;
  for (const crypto::PermanentId& pid : permanent_ids(onions))
    canonical.push_back(crypto::onion_address(pid));
  const OracleResolver oracle(canonical);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary(permanent_ids(onions));
  expect_same_dictionary(resolver, oracle);
  expect_same_report(resolver.resolve(test_stream()),
                     oracle.resolve(test_stream(), nullptr));
}

TEST_P(ResolverDiffTest, EmptyStreamAndEmptyDictionary) {
  const RequestStream empty_stream;
  const std::vector<std::string> onions = population_onions();
  const OracleResolver oracle(onions);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary(permanent_ids(onions));
  expect_same_report(resolver.resolve(empty_stream),
                     oracle.resolve(empty_stream, nullptr));

  // No onions at all: a non-empty stream still counts its ids and
  // resolves none of them.
  const OracleResolver empty_oracle({});
  DescriptorResolver empty_resolver({.threads = GetParam()});
  empty_resolver.build_dictionary(std::span<const crypto::PermanentId>());
  expect_same_dictionary(empty_resolver, empty_oracle);
  expect_same_report(empty_resolver.resolve(test_stream()),
                     empty_oracle.resolve(test_stream(), nullptr));
  expect_same_report(empty_resolver.resolve(empty_stream),
                     empty_oracle.resolve(empty_stream, nullptr));
}

/// Population onions plus onions whose permanent ids start with 0x00
/// and 0xff: the two ends of the secret table's period range.
std::vector<std::string> onions_at_table_ends() {
  std::vector<std::string> onions = population_onions();
  onions.resize(60);
  util::Rng rng(80);
  for (const std::uint8_t first : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
    for (int i = 0; i < 8; ++i) {
      crypto::PermanentId pid{};
      rng.fill_bytes(pid.data(), pid.size());
      pid[0] = first;
      onions.push_back(crypto::onion_address(pid));
    }
  }
  return onions;
}

TEST_P(ResolverDiffTest, TableEndOnionsInDefaultWindow) {
  const std::vector<std::string> onions = onions_at_table_ends();
  const OracleResolver oracle(onions);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary(permanent_ids(onions));
  expect_same_dictionary(resolver, oracle);
  expect_same_report(resolver.resolve(test_stream()),
                     oracle.resolve(test_stream(), nullptr));
}

TEST_P(ResolverDiffTest, NonDefaultWindowsMatchMapOracle) {
  // Windows starting off midnight shift the 0xff onions into the next
  // period, so the table spans one more period than there are days.
  const std::vector<std::string> onions = onions_at_table_ends();
  const util::UnixTime march = util::make_utc(2013, 3, 2);
  struct Window {
    util::UnixTime from;
    util::UnixTime to;
  };
  for (const Window window : {
           Window{march + 12345, march + 5 * util::kSecondsPerDay + 777},
           Window{march, march + 3 * util::kSecondsPerDay},
           // 20 days: 40 ids per onion, more than one derivation run.
           Window{march, march + 20 * util::kSecondsPerDay},
           Window{march + 86000, march + 86001},  // one day
           Window{march + 40000, march + 40000},  // from == to: no day
       }) {
    SCOPED_TRACE("window " + std::to_string(window.from) + ".." +
                 std::to_string(window.to));
    const OracleResolver oracle(onions, window.from, window.to);
    DescriptorResolver resolver({.derive_from = window.from,
                                 .derive_to = window.to,
                                 .threads = GetParam()});
    resolver.build_dictionary(permanent_ids(onions));
    expect_same_dictionary(resolver, oracle);
    expect_same_report(resolver.resolve(test_stream()),
                       oracle.resolve(test_stream(), nullptr));
  }
}

/// A stream of `ids`, request i asking for ids[i % ids.size()] (ids
/// repeat in turn, not in runs), one request a second.
RequestStream stream_of(const std::vector<crypto::DescriptorId>& ids,
                        std::size_t requests) {
  RequestStream stream;
  for (std::size_t i = 0; i < requests; ++i)
    stream.requests.push_back(
        {ids[i % ids.size()], static_cast<util::UnixTime>(1'360'000'000 + i)});
  stream.real_requests = static_cast<std::int64_t>(requests);
  return stream;
}

/// Resolver and map oracle over the population's onions.
struct PopulationJoin {
  OracleResolver oracle{population_onions()};
  DescriptorResolver resolver;
  explicit PopulationJoin(int threads) : resolver({.threads = threads}) {
    resolver.build_dictionary(permanent_ids(population_onions()));
  }
  void expect_same(const RequestStream& stream) const {
    expect_same_report(resolver.resolve(stream, test_population()),
                       oracle.resolve(stream, &test_population()));
  }
};

TEST_P(ResolverDiffTest, OneIdRepeatedFiftyThousandTimes) {
  const PopulationJoin join(GetParam());
  const crypto::DescriptorId resolvable =
      std::next(join.oracle.dictionary().begin(), 17)->first;
  join.expect_same(stream_of({resolvable}, 50'000));
  crypto::DescriptorId unresolvable{};
  unresolvable.fill(0x5a);
  join.expect_same(stream_of({unresolvable}, 50'000));
}

TEST_P(ResolverDiffTest, IdsDifferingInOneByteCountApart) {
  // 4,096 ids that each differ from one dictionary id in a single byte:
  // a hash of any window of raw bytes would pile them into few buckets.
  // Counts differ per id (id k is asked k % 7 + 1 times), so a merged
  // or dropped id changes the report.
  const PopulationJoin join(GetParam());
  const crypto::DescriptorId base =
      std::next(join.oracle.dictionary().begin(), 40)->first;
  std::vector<crypto::DescriptorId> ids{base};
  for (std::size_t k = 0; ids.size() < 4096; ++k) {
    crypto::DescriptorId id = base;
    id[k % id.size()] ^= static_cast<std::uint8_t>(1 + k / id.size());
    ids.push_back(id);
  }
  RequestStream stream;
  for (std::size_t k = 0; k < ids.size(); ++k)
    for (std::size_t r = 0; r <= k % 7; ++r)
      stream.requests.push_back({ids[k], static_cast<util::UnixTime>(r)});
  join.expect_same(stream);
}

TEST_P(ResolverDiffTest, RingEndIdsResolve) {
  // The dictionary's first and last ids, and the two ends of the ring
  // themselves (0x00... and 0xff..., not in the dictionary): the end
  // ids resolve like any other, the ring's ends resolve nothing.
  const PopulationJoin join(GetParam());
  crypto::DescriptorId zero{};
  crypto::DescriptorId ones{};
  ones.fill(0xff);
  join.expect_same(stream_of({join.oracle.dictionary().begin()->first,
                              join.oracle.dictionary().rbegin()->first, zero,
                              ones},
                             1'000));
  join.expect_same(stream_of({zero, ones}, 10));
  join.expect_same(stream_of({join.oracle.dictionary().rbegin()->first}, 3));
}

TEST_P(ResolverDiffTest, StreamWithNoResolvableId) {
  const PopulationJoin join(GetParam());
  std::vector<crypto::DescriptorId> ids(5'000);
  util::Rng rng(81);
  for (crypto::DescriptorId& id : ids) rng.fill_bytes(id.data(), id.size());
  const RequestStream stream = stream_of(ids, 20'000);
  const ResolutionReport report = join.resolver.resolve(stream);
  EXPECT_EQ(report.unique_descriptor_ids, 5'000);
  EXPECT_EQ(report.resolved_descriptor_ids, 0);
  EXPECT_TRUE(report.ranking.empty());
  join.expect_same(stream);
}

TEST_P(ResolverDiffTest, RepeatedOnionAtBothEndsFillsOneRow) {
  // Positions 0 and n - 1 fall in the first and the last derive-and-probe
  // task, and the fold must give all of the onion's ids to one of them
  // (the last, as the serial insert does). Both copies render the same
  // text, so ids split between the positions would put that onion in
  // two ranking rows; a stream asking for every derived id shows it.
  std::vector<std::string> onions = population_onions();
  onions.push_back(onions.front());
  const OracleResolver oracle(onions);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary(permanent_ids(onions));
  expect_same_dictionary(resolver, oracle);
  expect_same_report(resolver.resolve(test_stream()),
                     oracle.resolve(test_stream(), nullptr));
  const RequestStream every_id = stream_of(dictionary_ids(oracle), 40'000);
  expect_same_report(resolver.resolve(every_id),
                     oracle.resolve(every_id, nullptr));
}

TEST_P(ResolverDiffTest, EveryDerivedIdRequestedOnce) {
  const PopulationJoin join(GetParam());
  const std::vector<crypto::DescriptorId> ids = dictionary_ids(join.oracle);
  const RequestStream stream = stream_of(ids, ids.size());
  const ResolutionReport report = join.resolver.resolve(stream);
  EXPECT_EQ(report.resolved_descriptor_ids,
            static_cast<std::int64_t>(ids.size()));
  EXPECT_EQ(report.resolved_requests, static_cast<std::int64_t>(ids.size()));
  join.expect_same(stream);
}

INSTANTIATE_TEST_SUITE_P(Threads, ResolverDiffTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace torsim::popularity
