// The synthetic hidden-service population.
//
// The paper measured ~40k real services operated by strangers; we cannot
// re-crawl 2013's Tor, so we synthesize a population whose *observable
// surface* (ports, TLS certificates, page content, popularity, uptime
// behaviour) is calibrated to the marginals the paper publishes, then run
// the paper's measurement pipelines against it. `scale` shrinks the
// population proportionally for tests (pinned head services are always
// generated).
//
// Storage is structure-of-arrays (ROADMAP item 3, docs/data-layout.md):
// one column per field, addressed by dense ServiceId. Identity is the
// index — stable for the population's lifetime and across copies/moves —
// never a pointer or an owning string. A service's onion address is
// not stored: it is the base32 of the permanent id, the first 10 bytes
// of its key's fingerprint, rendered on demand. Labels and paper
// aliases are small indices into the population's own text table, so
// copies and moves carry their own strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "content/page_generator.hpp"
#include "content/topics.hpp"
#include "crypto/digest.hpp"
#include "crypto/keypair.hpp"
#include "net/service.hpp"
#include "population/paper_constants.hpp"
#include "util/rng.hpp"

namespace torsim::population {

/// Behavioural class of a synthetic hidden service.
enum class ServiceClass : std::uint8_t {
  kSkynetBot,       ///< infected machine: only the 55080 abnormal-close
  kSkynetCnC,       ///< Skynet command & control (popular, port 80)
  kGoldnetCnC,      ///< the "Goldnet" botnet the paper discovered (503s)
  kBitcoinMiner,    ///< Skynet bitcoin pooling server ("BcMine")
  kWebSite,         ///< generic HTTP site (port 80, maybe 443)
  kTorHostSite,     ///< hosted on TorHost (80+443, esjqyk CN cert)
  kHttpsSite,       ///< independent HTTPS site
  kSshHost,         ///< port 22 only
  kTorChat,         ///< port 11009
  kIrcServer,       ///< port 6667
  kPort4050,        ///< the unexplained port-4050 cluster
  kOtherPort,       ///< one of the ~487 rare ports
  kNamed,           ///< pinned Table II services (SilkRoad, DuckDuckGo, …)
  kDark,            ///< published but no open ports
  kUnpublished,     ///< harvested address whose descriptor was gone
};

const char* to_string(ServiceClass klass);

/// Dense index of one service in its Population — the stable identity
/// every pipeline joins on (pointer/string identity is gone with the
/// SoA layout).
using ServiceId = std::uint32_t;

struct PopulationConfig {
  std::uint64_t seed = 42;
  /// 1.0 reproduces the paper's full 39,824-service landscape; tests use
  /// smaller scales. Pinned head services are generated at any scale.
  double scale = 1.0;
  /// Words per generated page (min/max).
  int page_words_min = 60;
  int page_words_max = 260;
};

class Population {
 public:
  /// Read-only view of one service: a (population, id) handle whose
  /// accessors read the SoA columns. Copy it freely; it stays valid (and
  /// keeps denoting the same service) for the population's lifetime.
  class ServiceRef {
   public:
    ServiceId index() const { return id_; }
    const crypto::KeyPair& key() const { return pop_->keys_[id_]; }
    /// 16-char base32 of the permanent id, rendered per call.
    std::string onion() const { return pop_->onion(id_); }
    ServiceClass klass() const { return pop_->klasses_[id_]; }
    /// "Goldnet", "SilkRoad", "" for generic.
    std::string_view label() const { return pop_->label(id_); }
    /// Table II address this service stands for.
    std::string_view paper_alias() const { return pop_->paper_alias(id_); }
    const net::ServiceProfile& profile() const { return pop_->profiles_[id_]; }
    content::Topic topic() const { return pop_->topics_[id_]; }
    content::Language language() const { return pop_->languages_[id_]; }
    /// Descriptor published during the 14–21 Feb scan window.
    bool published_at_scan() const {
      return pop_->published_at_scan_[id_] != 0;
    }
    /// Probability the host answers on a given scan day (captures the
    /// churn that limited the paper to 87% port coverage).
    double daily_availability() const {
      return pop_->daily_availability_[id_];
    }
    /// Still alive at the crawl two months later.
    bool alive_at_crawl() const { return pop_->alive_at_crawl_[id_] != 0; }
    /// Expected descriptor fetches per 2-hour window (Table II scale);
    /// 0 for the ~90% of published services nobody ever asked for.
    double requests_per_2h() const { return pop_->requests_per_2h_[id_]; }
    /// Ground-truth Table II rank for pinned services (0 = unpinned).
    int paper_rank() const { return pop_->paper_ranks_[id_]; }
    /// Goldnet physical-server grouping (Apache uptime fingerprinting);
    /// -1 for services that are not Goldnet fronts.
    int physical_server() const { return pop_->physical_servers_[id_]; }

    /// Lets std::optional<ServiceRef> callers keep the svc-> spelling.
    const ServiceRef* operator->() const { return this; }

   private:
    friend class Population;
    ServiceRef(const Population* pop, ServiceId id) : pop_(pop), id_(id) {}
    const Population* pop_;
    ServiceId id_;
  };

  /// Forward range over every service, in id order.
  class ServiceRange {
   public:
    class iterator {
     public:
      ServiceRef operator*() const { return ServiceRef(pop_, id_); }
      iterator& operator++() {
        ++id_;
        return *this;
      }
      bool operator!=(const iterator& other) const { return id_ != other.id_; }

     private:
      friend class ServiceRange;
      iterator(const Population* pop, ServiceId id) : pop_(pop), id_(id) {}
      const Population* pop_;
      ServiceId id_;
    };
    iterator begin() const { return {pop_, 0}; }
    iterator end() const { return {pop_, static_cast<ServiceId>(pop_->size())}; }

   private:
    friend class Population;
    explicit ServiceRange(const Population* pop) : pop_(pop) {}
    const Population* pop_;
  };

  /// Generates the full calibrated population.
  static Population generate(const PopulationConfig& config);

  ServiceRange services() const { return ServiceRange(this); }

  ServiceRef service(ServiceId id) const { return ServiceRef(this, id); }

  std::size_t size() const { return keys_.size(); }

  /// Lookup by permanent id (nullopt if unknown).
  std::optional<ServiceRef> find(const crypto::PermanentId& id) const;
  /// Lookup by onion address in any spelling parse_onion_address
  /// accepts (either case, with or without ".onion"); nullopt for
  /// unknown or malformed text. Never throws on bad input.
  std::optional<ServiceRef> find(std::string_view onion) const;

  /// Ids of all services of a class, ascending.
  std::vector<ServiceId> of_class(ServiceClass klass) const;

  /// Count of services whose descriptor is published at scan time.
  std::size_t published_count() const;

  /// Direct column reads for hot loops that already hold an id.
  crypto::PermanentId permanent_id(ServiceId id) const {
    return crypto::permanent_id_from_fingerprint(keys_[id].fingerprint());
  }
  std::string onion(ServiceId id) const {
    return crypto::onion_address(permanent_id(id));
  }
  std::string_view label(ServiceId id) const { return texts_[labels_[id]]; }
  std::string_view paper_alias(ServiceId id) const {
    return texts_[aliases_[id]];
  }

  /// The one sanctioned post-build mutation (test harnesses zero the
  /// popularity column to isolate phantom traffic).
  void set_requests_per_2h(ServiceId id, double value) {
    requests_per_2h_[id] = value;
  }

  const PopulationConfig& config() const { return config_; }

  /// Deterministic column byte accounting (PopulationLayoutTest pins
  /// it to the exact per-service cost).
  struct MemoryFootprint {
    std::size_t services = 0;
    /// Sum of column capacities (keys/profiles counted as slots only;
    /// their heap payloads are excluded).
    std::size_t column_bytes = 0;
  };
  MemoryFootprint memory_footprint() const;

 private:
  explicit Population(PopulationConfig config) : config_(config) {}

  /// Build-time handle used by generate(): setters write the columns
  /// through the population pointer, so column growth/reallocation
  /// never dangles (no references into vectors are held anywhere).
  class MutableRef;

  /// Index into texts_.
  using TextId = std::uint16_t;

  /// The index of `text` in texts_, appending it on first sight.
  TextId text_id(std::string_view text);

  PopulationConfig config_;
  // One column per legacy ServiceRecord field, indexed by ServiceId.
  std::vector<crypto::KeyPair> keys_;
  std::vector<ServiceClass> klasses_;
  std::vector<TextId> labels_;
  std::vector<TextId> aliases_;
  std::vector<net::ServiceProfile> profiles_;
  std::vector<content::Topic> topics_;
  std::vector<content::Language> languages_;
  std::vector<std::uint8_t> published_at_scan_;
  std::vector<double> daily_availability_;
  std::vector<std::uint8_t> alive_at_crawl_;
  std::vector<double> requests_per_2h_;
  std::vector<std::int32_t> paper_ranks_;
  std::vector<std::int32_t> physical_servers_;
  /// The distinct label and alias texts: the generator's fixed class
  /// labels and Table II aliases, a few dozen in all. Index 0 is "".
  std::vector<std::string> texts_{std::string()};
  /// (permanent id, id) for every service, sorted: find() binary-
  /// searches it, and a repeated permanent id finds its lowest id.
  std::vector<std::pair<crypto::PermanentId, ServiceId>> by_id_;
};

}  // namespace torsim::population
