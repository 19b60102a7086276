#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "content/corpus.hpp"
#include "content/html.hpp"
#include "crypto/digest.hpp"
#include "population/population.hpp"
#include "util/strings.hpp"

namespace torsim::population {
namespace {

// A mid-size population shared by the whole file (generation is the
// expensive part; the checks are cheap).
const Population& test_population() {
  static const Population pop = [] {
    PopulationConfig config;
    config.seed = 7;
    config.scale = 0.10;
    return Population::generate(config);
  }();
  return pop;
}

TEST(PopulationTest, TotalSizeMatchesScale) {
  const auto& pop = test_population();
  EXPECT_NEAR(static_cast<double>(pop.size()), 39824 * 0.10, 40.0);
}

TEST(PopulationTest, PublishedShareMatchesPaper) {
  const auto& pop = test_population();
  const double share = static_cast<double>(pop.published_count()) /
                       static_cast<double>(pop.size());
  EXPECT_NEAR(share, 24511.0 / 39824.0, 0.02);
}

TEST(PopulationTest, OnionAddressesUnique) {
  const auto& pop = test_population();
  std::set<std::string, std::less<>> onions;
  for (const auto svc : pop.services()) onions.emplace(svc.onion());
  EXPECT_EQ(onions.size(), pop.size());
}

TEST(PopulationTest, FindByOnion) {
  const auto& pop = test_population();
  const auto first = pop.service(0);
  const auto found = pop.find(first.onion());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->index(), first.index());
  EXPECT_FALSE(pop.find("nonexistentonion").has_value());
}

TEST(PopulationTest, FindAcceptsEverySpellingTheParserAccepts) {
  // find() names the same service as crypto::parse_onion_address: either
  // case, with or without the ".onion" suffix. Malformed text finds
  // nothing and never throws.
  PopulationConfig config;
  config.seed = 7;
  config.scale = 0.01;
  const Population pop = Population::generate(config);
  const auto upper = [](std::string text) {
    for (char& c : text)
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return text;
  };
  for (const auto svc : pop.services()) {
    const std::string onion = svc.onion();
    for (const std::string& spelling :
         {onion, upper(onion), onion + ".onion", upper(onion) + ".ONION",
          upper(onion) + ".onion", onion + ".OnIoN"}) {
      const auto found = pop.find(spelling);
      ASSERT_TRUE(found.has_value()) << spelling;
      EXPECT_EQ(found->index(), svc.index()) << spelling;
    }
    const auto by_id = pop.find(crypto::parse_onion_address(onion));
    ASSERT_TRUE(by_id.has_value());
    EXPECT_EQ(by_id->index(), svc.index());
  }

  const std::string onion = pop.service(3).onion();
  for (const std::string& malformed :
       {std::string(), std::string(".onion"), onion.substr(0, 15),
        onion + "a", onion + ".onio", onion + "onion", onion + "..onion",
        std::string("0189018901890189"), "!" + onion.substr(1),
        " " + onion.substr(1), std::string(16, '\0'),
        onion.substr(0, 15) + "=", std::string(400, 'a')}) {
    EXPECT_NO_THROW({
      EXPECT_FALSE(pop.find(malformed).has_value()) << malformed;
    });
  }
}

TEST(PopulationTest, SkynetBotsDominateAndAreDark) {
  const auto& pop = test_population();
  const auto bots = pop.of_class(ServiceClass::kSkynetBot);
  // 13,854/0.87 scaled by 0.10.
  EXPECT_NEAR(static_cast<double>(bots.size()), 13854 / 0.87 * 0.10, 20.0);
  for (const ServiceId id : bots) {
    const auto bot = pop.service(id);
    EXPECT_EQ(bot.profile().connect(net::kPortSkynet),
              net::ConnectResult::kAbnormalClose);
    EXPECT_TRUE(bot.profile().open_ports().empty());
  }
}

TEST(PopulationTest, ClassCountsFollowFig1Proportions) {
  const auto& pop = test_population();
  const auto count = [&](ServiceClass k) {
    return static_cast<double>(pop.of_class(k).size());
  };
  // Ratios between classes track Fig. 1 (inflation cancels).
  EXPECT_NEAR(count(ServiceClass::kSshHost) / count(ServiceClass::kTorChat),
              1238.0 / 385.0, 0.7);
  EXPECT_NEAR(count(ServiceClass::kTorChat) / count(ServiceClass::kIrcServer),
              385.0 / 113.0, 0.9);
  EXPECT_GT(count(ServiceClass::kWebSite), count(ServiceClass::kTorHostSite));
}

TEST(PopulationTest, PinnedTable2ServicesExist) {
  const auto& pop = test_population();
  for (const PopularService& row : table2_rows()) {
    bool found = false;
    for (const auto svc : pop.services()) {
      if (svc.paper_alias() == row.paper_onion) {
        found = true;
        EXPECT_EQ(svc.paper_rank(), row.paper_rank);
        EXPECT_DOUBLE_EQ(svc.requests_per_2h(),
                         static_cast<double>(row.requests_per_2h));
        EXPECT_TRUE(svc.published_at_scan());
      }
    }
    EXPECT_TRUE(found) << row.paper_onion;
  }
}

TEST(PopulationTest, GoldnetServicesShapedLikeThePaper) {
  const auto& pop = test_population();
  const auto goldnet = pop.of_class(ServiceClass::kGoldnetCnC);
  EXPECT_EQ(goldnet.size(), 9u);  // 6 "Goldnet" + 3 "Unknown" rows
  std::set<std::int64_t> uptimes;
  for (const ServiceId id : goldnet) {
    const auto svc = pop.service(id);
    const auto* web = svc.profile().service_at(net::kPortHttp);
    ASSERT_NE(web, nullptr);
    ASSERT_TRUE(web->http.has_value());
    EXPECT_EQ(web->http->status, 503);
    EXPECT_TRUE(web->http->server_status_page);
    // ~330 KB/s traffic, ~10 req/s as the paper measured.
    EXPECT_NEAR(web->http->traffic_bytes_per_sec, 330.0 * 1024, 6000);
    EXPECT_NEAR(web->http->requests_per_sec, 10.0, 1.0);
    EXPECT_GE(svc.physical_server(), 0);
    uptimes.insert(web->http->apache_uptime_seconds);
  }
  // Exactly two distinct Apache uptimes -> two physical servers.
  EXPECT_EQ(uptimes.size(), 2u);
}

TEST(PopulationTest, TorHostSitesCarrySharedCertificate) {
  const auto& pop = test_population();
  const auto sites = pop.of_class(ServiceClass::kTorHostSite);
  EXPECT_GT(sites.size(), 50u);
  int defaults = 0;
  for (const ServiceId id : sites) {
    const auto svc = pop.service(id);
    const auto* tls = svc.profile().service_at(net::kPortHttps);
    ASSERT_NE(tls, nullptr);
    ASSERT_TRUE(tls->certificate.has_value());
    EXPECT_EQ(tls->certificate->common_name, content::kTorHostCertCn);
    EXPECT_FALSE(tls->certificate->matches_requested_host);
    const auto* web = svc.profile().service_at(net::kPortHttp);
    ASSERT_NE(web, nullptr);
    if (content::strip_html(web->http->body) ==
        content::torhost_default_page())
      ++defaults;
  }
  // A solid majority still shows the hosting default page.
  EXPECT_GT(defaults, static_cast<int>(sites.size()) / 3);
}

TEST(PopulationTest, HttpsSitesIncludeDeanonymisingCerts) {
  const auto& pop = test_population();
  int public_dns = 0, matching = 0;
  for (const ServiceId id : pop.of_class(ServiceClass::kHttpsSite)) {
    const auto* tls = pop.service(id).profile().service_at(net::kPortHttps);
    ASSERT_NE(tls, nullptr);
    ASSERT_TRUE(tls->certificate.has_value());
    if (tls->certificate->common_name_is_public_dns()) ++public_dns;
    if (tls->certificate->matches_requested_host) ++matching;
  }
  EXPECT_NEAR(public_dns, 34 / 0.87 * 0.10, 2.0);
  EXPECT_GT(matching, 0);
}

TEST(PopulationTest, SilkroadPhishingPrefixGround) {
  const auto& pop = test_population();
  int prefixed = 0;
  for (const auto svc : pop.services())
    if (svc.label() == "SilkroadPhishing") {
      EXPECT_TRUE(util::starts_with(svc.onion(), "sil")) << svc.onion();
      ++prefixed;
    }
  EXPECT_GE(prefixed, 1);
}

TEST(PopulationTest, UnpublishedServicesAreInvisible) {
  const auto& pop = test_population();
  for (const ServiceId id : pop.of_class(ServiceClass::kUnpublished)) {
    EXPECT_FALSE(pop.service(id).published_at_scan());
    EXPECT_FALSE(pop.service(id).alive_at_crawl());
  }
  const double share =
      static_cast<double>(pop.of_class(ServiceClass::kUnpublished).size()) /
      static_cast<double>(pop.size());
  EXPECT_NEAR(share, 15313.0 / 39824.0, 0.02);
}

TEST(PopulationTest, RequestedShareOfPublishedNearTenPercent) {
  const auto& pop = test_population();
  std::size_t requested = 0;
  for (const auto svc : pop.services())
    if (svc.published_at_scan() && svc.requests_per_2h() > 0) ++requested;
  const double share = static_cast<double>(requested) /
                       static_cast<double>(pop.published_count());
  // Paper: ~10% of published descriptors were ever requested (3,140 of
  // 24,511 resolved onions = 12.8%).
  EXPECT_NEAR(share, 0.128, 0.03);
}

TEST(PopulationTest, DeterministicForSeed) {
  PopulationConfig config;
  config.seed = 11;
  config.scale = 0.01;
  const auto a = Population::generate(config);
  const auto b = Population::generate(config);
  ASSERT_EQ(a.size(), b.size());
  for (ServiceId i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.onion(i), b.onion(i));
}

TEST(PopulationTest, TinyScaleStillHasPinnedHead) {
  PopulationConfig config;
  config.seed = 12;
  config.scale = 0.005;
  const auto pop = Population::generate(config);
  EXPECT_EQ(pop.of_class(ServiceClass::kGoldnetCnC).size(), 9u);
  EXPECT_GE(pop.of_class(ServiceClass::kSkynetCnC).size(), 10u);
}

TEST(PopulationTest, ClassNamesAreStable) {
  EXPECT_STREQ(to_string(ServiceClass::kSkynetBot), "skynet-bot");
  EXPECT_STREQ(to_string(ServiceClass::kGoldnetCnC), "goldnet-cnc");
  EXPECT_STREQ(to_string(ServiceClass::kUnpublished), "unpublished");
}

}  // namespace
}  // namespace torsim::population
