// Differential gate for the resolver's sorted-vector dictionary and its
// sort + merge-join request tally: a std::map dictionary built the
// serial way (insert every derived id in onion order, last writer wins)
// and a map-counted join are replayed against DescriptorResolver at
// threads 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
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

/// Reference dictionary and join: ordered maps throughout.
class OracleResolver {
 public:
  explicit OracleResolver(const std::vector<std::string>& onions) {
    const util::UnixTime from = util::make_utc(2013, 1, 28);
    const util::UnixTime to = util::make_utc(2013, 2, 9);
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

/// dictionary_size() and resolve_id() for every derived id and for
/// 1,000 random ids.
void expect_same_dictionary(const DescriptorResolver& resolver,
                            const OracleResolver& oracle) {
  ASSERT_EQ(resolver.dictionary_size(), oracle.dictionary().size());
  for (const auto& [id, onion] : oracle.dictionary())
    EXPECT_EQ(resolver.resolve_id(id), std::optional<std::string>(onion));
  util::Rng rng(79);
  for (int i = 0; i < 1000; ++i) {
    crypto::DescriptorId id{};
    rng.fill_bytes(id.data(), id.size());
    const auto it = oracle.dictionary().find(id);
    const std::optional<std::string> want =
        it == oracle.dictionary().end()
            ? std::nullopt
            : std::optional<std::string>(it->second);
    EXPECT_EQ(resolver.resolve_id(id), want);
  }
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
  // derive the same descriptor ids under different strings: the later
  // spelling in input order must own them, as in the serial map insert.
  const std::vector<std::string> base = population_onions();
  std::vector<std::string> onions(base.begin(), base.begin() + 40);
  onions.push_back(base[3]);
  onions.push_back(upper(base[5]));
  onions.push_back(base[7] + ".onion");
  onions.push_back(base[9]);
  onions.push_back(upper(base[9]));
  onions.push_back(base[9]);
  onions.push_back(base[11]);
  const OracleResolver oracle(onions);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary_from_onions(onions);
  expect_same_dictionary(resolver, oracle);
  expect_same_report(resolver.resolve(test_stream()),
                     oracle.resolve(test_stream(), nullptr));
}

TEST_P(ResolverDiffTest, EmptyStreamAndEmptyDictionary) {
  const RequestStream empty_stream;
  const std::vector<std::string> onions = population_onions();
  const OracleResolver oracle(onions);
  DescriptorResolver resolver({.threads = GetParam()});
  resolver.build_dictionary_from_onions(onions);
  expect_same_report(resolver.resolve(empty_stream),
                     oracle.resolve(empty_stream, nullptr));

  const OracleResolver empty_oracle({});
  DescriptorResolver empty_resolver({.threads = GetParam()});
  empty_resolver.build_dictionary_from_onions({});
  expect_same_dictionary(empty_resolver, empty_oracle);
  expect_same_report(empty_resolver.resolve(test_stream()),
                     empty_oracle.resolve(test_stream(), nullptr));
  expect_same_report(empty_resolver.resolve(empty_stream),
                     empty_oracle.resolve(empty_stream, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Threads, ResolverDiffTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace torsim::popularity
