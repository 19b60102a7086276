#include "population/population.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "content/corpus.hpp"
#include "content/html.hpp"
#include "crypto/grind.hpp"

namespace torsim::population {
namespace {

// The scan found 87% of ports (churn across multi-day range sweeps), so
// the *true* population is the paper's measured counts inflated by the
// reciprocal of the coverage: scanning our population with ~87% per-port
// detection then lands back on the paper's Fig. 1 numbers.
constexpr double kCoverage = 0.87;

std::int64_t scaled(double scale, std::int64_t paper_count,
                    bool inflate = true) {
  const double base = static_cast<double>(paper_count) * scale;
  return std::llround(inflate ? base / kCoverage : base);
}

content::Topic sample_topic(util::Rng& rng) {
  const auto& pct = content::paper_topic_percentages();
  double roll = rng.uniform(0.0, 100.0);
  for (int i = 0; i < content::kNumTopics; ++i) {
    roll -= pct[i];
    if (roll <= 0.0) return content::topic_from_index(i);
  }
  return content::Topic::kOther;
}

content::Language sample_language(util::Rng& rng) {
  // The paper's 84% English share is over *all* classifiable pages,
  // including the all-English TorHost default pages; user-authored pages
  // must therefore sample English slightly below 84% for the aggregate
  // to land on the paper's number.
  constexpr double kEnglishShare = 0.775;
  const auto& shares = content::paper_language_shares();
  double roll = rng.uniform01();
  if (roll < kEnglishShare) return content::Language::kEnglish;
  roll = (roll - kEnglishShare) / (1.0 - kEnglishShare);
  double minority_total = 0.0;
  for (int i = 1; i < content::kNumLanguages; ++i) minority_total += shares[i];
  roll *= minority_total;
  for (int i = 1; i < content::kNumLanguages; ++i) {
    roll -= shares[i];
    if (roll <= 0.0) return content::language_from_index(i);
  }
  return content::Language::kEnglish;
}

net::HttpResponse make_page_response(std::string body, bool error_page) {
  net::HttpResponse r;
  r.status = error_page ? 500 : 200;
  // Serve a real HTML document; the crawler strips it back to text.
  // Error pages from html_error_page() are already full documents.
  r.body = body.find("<html>") == std::string::npos
               ? content::wrap_html("untitled", body)
               : std::move(body);
  r.error_page = error_page;
  return r;
}

net::TlsCertificate torhost_certificate() {
  net::TlsCertificate cert;
  cert.common_name = std::string(content::kTorHostCertCn);
  cert.self_signed = true;
  cert.matches_requested_host = false;
  return cert;
}

}  // namespace

const char* to_string(ServiceClass klass) {
  switch (klass) {
    case ServiceClass::kSkynetBot: return "skynet-bot";
    case ServiceClass::kSkynetCnC: return "skynet-cnc";
    case ServiceClass::kGoldnetCnC: return "goldnet-cnc";
    case ServiceClass::kBitcoinMiner: return "bitcoin-miner";
    case ServiceClass::kWebSite: return "web-site";
    case ServiceClass::kTorHostSite: return "torhost-site";
    case ServiceClass::kHttpsSite: return "https-site";
    case ServiceClass::kSshHost: return "ssh-host";
    case ServiceClass::kTorChat: return "torchat";
    case ServiceClass::kIrcServer: return "irc-server";
    case ServiceClass::kPort4050: return "port-4050";
    case ServiceClass::kOtherPort: return "other-port";
    case ServiceClass::kNamed: return "named";
    case ServiceClass::kDark: return "dark";
    case ServiceClass::kUnpublished: return "unpublished";
  }
  return "?";
}

std::optional<Population::ServiceRef> Population::find(
    const crypto::PermanentId& id) const {
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [](const auto& entry, const crypto::PermanentId& key) {
        return entry.first < key;
      });
  if (it == by_id_.end() || it->first != id) return std::nullopt;
  return ServiceRef(this, it->second);
}

std::optional<Population::ServiceRef> Population::find(
    std::string_view onion) const {
  crypto::PermanentId id{};
  try {
    id = crypto::parse_onion_address(onion);
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // malformed text names no service
  }
  return find(id);
}

Population::TextId Population::text_id(std::string_view text) {
  const auto it = std::find(texts_.begin(), texts_.end(), text);
  if (it != texts_.end()) return static_cast<TextId>(it - texts_.begin());
  texts_.emplace_back(text);
  return static_cast<TextId>(texts_.size() - 1);
}

std::vector<ServiceId> Population::of_class(ServiceClass klass) const {
  std::vector<ServiceId> out;
  for (ServiceId id = 0; id < klasses_.size(); ++id)
    if (klasses_[id] == klass) out.push_back(id);
  return out;
}

std::size_t Population::published_count() const {
  std::size_t n = 0;
  for (const std::uint8_t published : published_at_scan_)
    if (published != 0) ++n;
  return n;
}

Population::MemoryFootprint Population::memory_footprint() const {
  const auto column = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  MemoryFootprint f;
  f.services = size();
  f.column_bytes = column(keys_) + column(klasses_) + column(labels_) +
                   column(aliases_) + column(profiles_) + column(topics_) +
                   column(languages_) + column(published_at_scan_) +
                   column(daily_availability_) + column(alive_at_crawl_) +
                   column(requests_per_2h_) + column(paper_ranks_) +
                   column(physical_servers_);
  return f;
}

/// Build-time handle: every accessor re-indexes the columns through the
/// population pointer, so column growth between calls can never leave a
/// dangling reference (the legacy builder handed out ServiceRecord&
/// into a reallocating vector — the invalidation bug class this layout
/// retires; tests/data_layout_test.cpp pins it).
class Population::MutableRef {
 public:
  MutableRef(Population* pop, ServiceId id) : pop_(pop), id_(id) {}

  ServiceId index() const { return id_; }
  std::string onion() const { return pop_->onion(id_); }
  net::ServiceProfile& profile() { return pop_->profiles_[id_]; }
  content::Topic topic() const { return pop_->topics_[id_]; }
  content::Language language() const { return pop_->languages_[id_]; }
  int physical_server() const { return pop_->physical_servers_[id_]; }

  void set_label(std::string_view v) { pop_->labels_[id_] = pop_->text_id(v); }
  void set_paper_alias(std::string_view v) {
    pop_->aliases_[id_] = pop_->text_id(v);
  }
  void set_topic(content::Topic t) { pop_->topics_[id_] = t; }
  void set_language(content::Language l) { pop_->languages_[id_] = l; }
  void set_published_at_scan(bool b) {
    pop_->published_at_scan_[id_] = b ? 1 : 0;
  }
  void set_daily_availability(double v) {
    pop_->daily_availability_[id_] = v;
  }
  void set_alive_at_crawl(bool b) { pop_->alive_at_crawl_[id_] = b ? 1 : 0; }
  void set_requests_per_2h(double v) { pop_->requests_per_2h_[id_] = v; }
  void set_paper_rank(int r) { pop_->paper_ranks_[id_] = r; }
  void set_physical_server(int s) { pop_->physical_servers_[id_] = s; }

 private:
  Population* pop_;
  ServiceId id_;
};

Population Population::generate(const PopulationConfig& config) {
  Population pop(config);
  util::Rng rng(config.seed);
  content::PageGenerator pages;
  const double s = config.scale;

  // The columns are reserved exactly, never grown by doubling. The
  // section counts below are all deterministic functions of the scale,
  // so the exact final size is known up front: the inflated class
  // counts (sections 1–8), topped up by section 9 to the paper's
  // 39,824-service total when that is larger (it is at every
  // non-degenerate scale).
  const std::int64_t pinned =
      static_cast<std::int64_t>(table2_rows().size()) +
      std::max<std::int64_t>(1, std::llround(15 * s));
  const std::int64_t inflated =
      scaled(s, 13854) + scaled(s, 2661) + scaled(s, 1168) + scaled(s, 34) +
      scaled(s, 57) + scaled(s, 107) + scaled(s, 1238) + scaled(s, 385) +
      scaled(s, 138) + scaled(s, 113) + scaled(s, 886);
  const std::size_t expected_total = static_cast<std::size_t>(
      std::max<std::int64_t>(pinned + inflated, std::llround(39824 * s)));
  pop.keys_.reserve(expected_total);
  pop.klasses_.reserve(expected_total);
  pop.labels_.reserve(expected_total);
  pop.aliases_.reserve(expected_total);
  pop.profiles_.reserve(expected_total);
  pop.topics_.reserve(expected_total);
  pop.languages_.reserve(expected_total);
  pop.published_at_scan_.reserve(expected_total);
  pop.daily_availability_.reserve(expected_total);
  pop.alive_at_crawl_.reserve(expected_total);
  pop.requests_per_2h_.reserve(expected_total);
  pop.paper_ranks_.reserve(expected_total);
  pop.physical_servers_.reserve(expected_total);

  const auto add_service = [&](ServiceClass klass,
                               crypto::KeyPair key) -> MutableRef {
    const ServiceId id = static_cast<ServiceId>(pop.keys_.size());
    pop.keys_.push_back(std::move(key));
    pop.klasses_.push_back(klass);
    pop.labels_.push_back(0);
    pop.aliases_.push_back(0);
    pop.profiles_.emplace_back();
    pop.topics_.push_back(content::Topic::kOther);
    pop.languages_.push_back(content::Language::kEnglish);
    pop.published_at_scan_.push_back(1);
    pop.daily_availability_.push_back(rng.uniform(0.80, 0.94));
    pop.alive_at_crawl_.push_back(rng.bernoulli(0.95) ? 1 : 0);
    pop.requests_per_2h_.push_back(0.0);
    pop.paper_ranks_.push_back(0);
    pop.physical_servers_.push_back(-1);
    return MutableRef(&pop, id);
  };
  const auto add = [&](ServiceClass klass) -> MutableRef {
    return add_service(klass, crypto::KeyPair::generate(rng));
  };

  const auto page_words = [&] {
    return static_cast<int>(
        rng.uniform_int(config.page_words_min, config.page_words_max));
  };

  // Shared content distribution for a generic HTTP page; mirrors the
  // crawl funnel: ~40% stubs (<20 words), ~3% HTML error pages, the
  // rest real pages with paper-calibrated topic/language mixes. (The
  // stub/error rates are set so the *measured* Sec. IV funnel lands on
  // the paper's 2,348 / 73 exclusions after scan+crawl losses.)
  const auto fill_http_page = [&](MutableRef svc, std::uint16_t port,
                                  bool allow_stub = true) {
    const double roll = rng.uniform01();
    net::PortService service;
    service.protocol =
        port == net::kPortHttps ? net::Protocol::kHttps : net::Protocol::kHttp;
    if (allow_stub && roll < 0.40) {
      service.http = make_page_response(pages.generate_stub(rng), false);
    } else if (allow_stub && roll < 0.43) {
      service.http = make_page_response(
          std::string(content::html_error_page()), true);
    } else {
      svc.set_topic(sample_topic(rng));
      svc.set_language(sample_language(rng));
      service.http = make_page_response(
          pages.generate(svc.topic(), svc.language(), page_words(), rng),
          false);
    }
    svc.profile().listen(port, std::move(service));
  };

  // ---------------------------------------------------------------
  // 1. Pinned Table II services (always generated, at any scale).
  // ---------------------------------------------------------------
  int goldnet_group_toggle = 0;
  for (const PopularService& row : table2_rows()) {
    ServiceClass klass = ServiceClass::kNamed;
    const std::string label(row.label);
    if (label == "Goldnet" || label == "Unknown")
      klass = ServiceClass::kGoldnetCnC;
    else if (label == "Skynet")
      klass = ServiceClass::kSkynetCnC;
    else if (label == "BcMine")
      klass = ServiceClass::kBitcoinMiner;
    else if (label == "Adult")
      klass = ServiceClass::kWebSite;

    MutableRef svc = add(klass);
    svc.set_label(label);
    svc.set_paper_alias(row.paper_onion);
    svc.set_paper_rank(row.paper_rank);
    svc.set_requests_per_2h(static_cast<double>(row.requests_per_2h));
    svc.set_published_at_scan(true);
    svc.set_daily_availability(0.98);
    svc.set_alive_at_crawl(true);

    switch (klass) {
      case ServiceClass::kGoldnetCnC: {
        // Port 80 only; 503 errors; server-status exposed; two physical
        // servers distinguishable by identical Apache uptimes.
        svc.set_physical_server(goldnet_group_toggle++ % 2);
        net::PortService web;
        web.protocol = net::Protocol::kHttp;
        net::HttpResponse resp;
        resp.status = 503;
        resp.body = "503 service unavailable";
        resp.error_page = true;
        resp.server_status_page = true;
        resp.traffic_bytes_per_sec = 330.0 * 1024.0 + rng.uniform(-5e3, 5e3);
        resp.requests_per_sec = 10.0 + rng.uniform(-0.8, 0.8);
        resp.apache_uptime_seconds =
            svc.physical_server() == 0 ? 8123456 : 12345678;
        web.http = resp;
        svc.profile().listen(net::kPortHttp, std::move(web));
        break;
      }
      case ServiceClass::kSkynetCnC: {
        net::PortService irc;
        irc.protocol = net::Protocol::kIrc;
        irc.banner = ":skynet NOTICE AUTH :*** Looking up your hostname...";
        svc.profile().listen(net::kPortIrc, std::move(irc));
        svc.profile().set_abnormal_close(net::kPortSkynet);
        break;
      }
      case ServiceClass::kBitcoinMiner: {
        net::PortService pool;
        pool.protocol = net::Protocol::kBitcoinPool;
        pool.banner = "{\"id\":1,\"method\":\"mining.subscribe\"}";
        svc.profile().listen(3333, std::move(pool));
        break;
      }
      case ServiceClass::kWebSite: {  // pinned Adult sites
        svc.set_topic(content::Topic::kAdult);
        svc.set_language(content::Language::kEnglish);
        net::PortService web;
        web.protocol = net::Protocol::kHttp;
        web.http = make_page_response(
            pages.generate_english(content::Topic::kAdult, page_words(), rng),
            false);
        svc.profile().listen(net::kPortHttp, std::move(web));
        break;
      }
      default: {  // kNamed: pinned non-botnet services
        content::Topic topic = content::Topic::kOther;
        if (label == "SilkRoad" || label == "BlackMarketReloaded")
          topic = content::Topic::kDrugs;
        else if (label == "SilkRoadWiki" || label == "OnionBookmarks" ||
                 label == "TorDir")
          topic = content::Topic::kFaqsTutorials;
        else if (label == "DuckDuckGo")
          topic = content::Topic::kTechnology;
        else if (label == "FreedomHosting" || label == "TorHost")
          topic = content::Topic::kAnonymity;
        svc.set_topic(topic);
        svc.set_language(content::Language::kEnglish);
        net::PortService web;
        web.protocol = net::Protocol::kHttp;
        web.http = make_page_response(
            pages.generate_english(topic, page_words(), rng), false);
        svc.profile().listen(net::kPortHttp, std::move(web));
        break;
      }
    }
  }

  // "silkroa"-prefixed phishing/copycat addresses: the paper found 15.
  // Grinding a full 7-character prefix is ~2^35 hashes; we grind a
  // 3-character "sil" prefix (~2^15 keys each, ~450k at scale 1.0) with
  // the same grinder the attacks use (documented substitution). It
  // hashes candidates in SHA-1 lanes but draws exactly the keys one
  // KeyPair::generate per try would, so the population's bytes do not
  // depend on the batching (tests/grind_diff_test.cpp).
  {
    const int phishing = static_cast<int>(
        std::max<std::int64_t>(1, std::llround(15 * s)));
    for (int i = 0; i < phishing; ++i) {
      auto ground = crypto::grind_onion_prefix("sil", rng);
      if (!ground)
        throw std::runtime_error(
            "Population::generate: no \"sil\" onion within the grind budget");
      MutableRef svc =
          add_service(ServiceClass::kWebSite, std::move(ground->key));
      svc.set_label("SilkroadPhishing");
      svc.set_topic(content::Topic::kCounterfeit);
      svc.set_language(content::Language::kEnglish);
      net::PortService web;
      web.protocol = net::Protocol::kHttp;
      web.http = make_page_response(
          pages.generate_english(content::Topic::kCounterfeit, page_words(),
                                 rng),
          false);
      svc.profile().listen(net::kPortHttp, std::move(web));
    }
  }

  // ---------------------------------------------------------------
  // 2. Skynet bots: no open ports, only the 55080 abnormal close.
  // ---------------------------------------------------------------
  for (std::int64_t i = 0, n = scaled(s, 13854); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kSkynetBot);
    svc.set_label("Skynet");
    svc.profile().set_abnormal_close(net::kPortSkynet);
  }

  // ---------------------------------------------------------------
  // 3. Plain HTTP sites (port 80 only).
  // ---------------------------------------------------------------
  for (std::int64_t i = 0, n = scaled(s, 2661); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kWebSite);
    fill_http_page(svc, net::kPortHttp);
  }

  // ---------------------------------------------------------------
  // 4. TorHost-hosted sites: 80 + 443 with the shared esjqyk CN cert;
  //    most serve identical content on both ports; many still show the
  //    hosting service's default page.
  // ---------------------------------------------------------------
  for (std::int64_t i = 0, n = scaled(s, 1168); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kTorHostSite);
    svc.set_label("TorHostHosted");
    const bool default_page = rng.bernoulli(0.62);
    std::string body;
    if (default_page) {
      body = std::string(content::torhost_default_page());
      svc.set_topic(content::Topic::kOther);
      svc.set_language(content::Language::kEnglish);
    } else {
      svc.set_topic(sample_topic(rng));
      svc.set_language(sample_language(rng));
      body = pages.generate(svc.topic(), svc.language(), page_words(), rng);
    }
    net::PortService web;
    web.protocol = net::Protocol::kHttp;
    web.http = make_page_response(body, false);
    svc.profile().listen(net::kPortHttp, web);

    net::PortService tls;
    tls.protocol = net::Protocol::kHttps;
    const bool duplicate = rng.bernoulli(1108.0 / 1168.0);
    tls.http = make_page_response(
        duplicate ? body
                  : body + " secure area members only additional content",
        false);
    tls.certificate = torhost_certificate();
    svc.profile().listen(net::kPortHttps, std::move(tls));
  }

  // ---------------------------------------------------------------
  // 5. Independent HTTPS sites: 34/1225 of the paper's certificates
  //    carried public DNS names (deanonymising); the rest self-signed
  //    with matching or mismatching onion CNs.
  // ---------------------------------------------------------------
  {
    const std::int64_t n_public_dns = scaled(s, 34);
    const std::int64_t n_mismatch = scaled(s, 57);
    const std::int64_t n_match = scaled(s, 107);
    for (std::int64_t i = 0, n = n_public_dns + n_mismatch + n_match; i < n;
         ++i) {
      MutableRef svc = add(ServiceClass::kHttpsSite);
      svc.set_topic(sample_topic(rng));
      svc.set_language(sample_language(rng));
      const std::string body =
          pages.generate(svc.topic(), svc.language(), page_words(), rng);

      net::PortService web;
      web.protocol = net::Protocol::kHttp;
      web.http = make_page_response(body, false);
      svc.profile().listen(net::kPortHttp, web);

      net::PortService tls;
      tls.protocol = net::Protocol::kHttps;
      // Most independent HTTPS sites, like the TorHost ones, serve the
      // same document on both ports (the paper excluded 1,108 of 1,366
      // port-443 destinations as copies).
      tls.http = make_page_response(
          rng.bernoulli(0.70)
              ? body
              : body + " secure login area for registered members",
          false);
      net::TlsCertificate cert;
      if (i < n_public_dns) {
        cert.common_name =
            "host" + std::to_string(i) + ".example-clearnet.com";
        cert.self_signed = true;
        cert.matches_requested_host = false;
        svc.set_label("CertLeaksDns");
      } else if (i < n_public_dns + n_mismatch) {
        cert.common_name = "wrongservice" + std::to_string(i) + ".onion";
        cert.self_signed = true;
        cert.matches_requested_host = false;
      } else {
        cert.common_name = svc.onion() + ".onion";
        cert.self_signed = true;
        cert.matches_requested_host = true;
      }
      tls.certificate = cert;
      svc.profile().listen(net::kPortHttps, std::move(tls));
    }
  }

  // ---------------------------------------------------------------
  // 6. SSH-only hosts.
  // ---------------------------------------------------------------
  for (std::int64_t i = 0, n = scaled(s, 1238); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kSshHost);
    net::PortService ssh;
    ssh.protocol = net::Protocol::kSsh;
    ssh.banner = std::string(content::ssh_banner());
    svc.profile().listen(net::kPortSsh, std::move(ssh));
  }

  // ---------------------------------------------------------------
  // 7. TorChat / port-4050 / IRC clusters.
  // ---------------------------------------------------------------
  for (std::int64_t i = 0, n = scaled(s, 385); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kTorChat);
    net::PortService chat;
    chat.protocol = net::Protocol::kTorChat;
    svc.profile().listen(net::kPortTorChat, std::move(chat));
  }
  for (std::int64_t i = 0, n = scaled(s, 138); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kPort4050);
    net::PortService raw;
    raw.protocol = net::Protocol::kRawTcp;
    svc.profile().listen(net::kPort4050, std::move(raw));
  }
  for (std::int64_t i = 0, n = scaled(s, 113); i < n; ++i) {
    MutableRef svc = add(ServiceClass::kIrcServer);
    net::PortService irc;
    irc.protocol = net::Protocol::kIrc;
    irc.banner = ":server NOTICE AUTH :*** Found your hostname";
    svc.profile().listen(net::kPortIrc, std::move(irc));
  }

  // ---------------------------------------------------------------
  // 8. Rare-port services: ~495 unique port numbers in total; slightly
  //    over half of these destinations actually speak HTTP (Table I's
  //    "Other 451" + the four port-8080 sites).
  // ---------------------------------------------------------------
  {
    const std::int64_t n_other = scaled(s, 886);
    const std::int64_t n_8080 = std::max<std::int64_t>(1, std::llround(4 * s));
    // The paper saw 886 rare-port services spread over ~487 distinct port
    // numbers (495 minus the named ones), i.e. ~1.8 services per port;
    // draw from a bounded pool rather than the whole 16-bit space.
    const std::size_t pool_size = static_cast<std::size_t>(
        std::max<std::int64_t>(8, std::llround(560 * s)));
    std::vector<std::uint16_t> port_pool;
    while (port_pool.size() < pool_size) {
      const auto candidate =
          static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
      if (candidate == net::kPortSkynet || candidate == net::kPortTorChat ||
          candidate == net::kPort4050 || candidate == net::kPortHttpAlt)
        continue;
      port_pool.push_back(candidate);
    }
    for (std::int64_t i = 0; i < n_other; ++i) {
      MutableRef svc = add(ServiceClass::kOtherPort);
      std::uint16_t port;
      if (i < n_8080) {
        port = net::kPortHttpAlt;
      } else {
        port = port_pool[rng.index(port_pool.size())];
      }
      if (i < n_8080 || rng.bernoulli(0.55)) {
        fill_http_page(svc, port);
      } else {
        net::PortService raw;
        raw.protocol = net::Protocol::kRawTcp;
        svc.profile().listen(port, std::move(raw));
      }
    }
  }

  // ---------------------------------------------------------------
  // 9. Dark services (published descriptor, no open ports) + the
  //    addresses whose descriptors had already vanished by the scan.
  // ---------------------------------------------------------------
  const std::int64_t target_total = std::llround(39824 * s);
  const std::int64_t target_published = std::llround(24511 * s);
  const std::int64_t have = static_cast<std::int64_t>(pop.keys_.size());
  const std::int64_t dark =
      std::max<std::int64_t>(0, target_published - have);
  for (std::int64_t i = 0; i < dark; ++i) add(ServiceClass::kDark);
  const std::int64_t unpublished = std::max<std::int64_t>(
      0, target_total - static_cast<std::int64_t>(pop.keys_.size()));
  for (std::int64_t i = 0; i < unpublished; ++i) {
    MutableRef svc = add(ServiceClass::kUnpublished);
    svc.set_published_at_scan(false);
    svc.set_alive_at_crawl(false);
  }

  // ---------------------------------------------------------------
  // 10. Popularity tail: ~10% of published services are ever requested
  //     (3,140 resolved onions for 24,511 published). The pinned head
  //     already has rates; give a Zipf-decaying trickle to enough
  //     unpinned published services to hit the paper's resolved count.
  // ---------------------------------------------------------------
  {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < pop.keys_.size(); ++i)
      if (pop.published_at_scan_[i] != 0 && pop.requests_per_2h_[i] == 0.0)
        candidates.push_back(i);
    rng.shuffle(candidates);
    const std::size_t want = static_cast<std::size_t>(
        std::max<std::int64_t>(0, std::llround((3140 - 36) * s)));
    const std::size_t tail = std::min(want, candidates.size());
    for (std::size_t rank = 0; rank < tail; ++rank) {
      // Two-regime decay fitted to Table II's deep rows: a moderately
      // flat shoulder (so ~150 unnamed services sit between the pinned
      // head and DuckDuckGo's 55 req/2h near paper-rank 157), then a
      // steeper power-law tail down to a couple of requests per window.
      const double r = static_cast<double>(rank + 1);
      const double rate = r <= 100.0 ? 400.0 / std::pow(r, 0.30)
                                     : 100.5 * std::pow(100.0 / r, 1.3);
      pop.requests_per_2h_[candidates[rank]] = std::max(2.5, rate);
    }
  }

  pop.by_id_.reserve(pop.keys_.size());
  for (ServiceId id = 0; id < pop.keys_.size(); ++id)
    pop.by_id_.emplace_back(pop.permanent_id(id), id);
  std::sort(pop.by_id_.begin(), pop.by_id_.end());
  return pop;
}

}  // namespace torsim::population
