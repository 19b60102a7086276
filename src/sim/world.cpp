#include "sim/world.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "util/encoding.hpp"
#include "util/parallel.hpp"

namespace torsim::sim {

util::UnixTime default_start_time() {
  return util::make_utc(2013, 2, 1, 0, 0, 0);
}

World::World(WorldConfig config)
    : config_(config),
      clock_(config.start != 0 ? config.start : default_start_time()),
      rng_(config.seed),
      threads_(util::resolve_threads(config.threads)),
      authority_(config.authority_policy),
      dirnet_(hsdir::DirectoryNetworkConfig{.metrics = config.metrics}) {
  if (config_.faults.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.faults);
    injector_->set_metrics(config_.metrics);
    dirnet_.set_fault_injector(injector_.get());
  }
  bootstrap();
}

void World::bootstrap() {
  const util::UnixTime start = clock_.now();
  for (int i = 0; i < config_.honest_relays; ++i) {
    relay::RelayConfig rc;
    rc.nickname = "relay" + std::to_string(i);
    rc.address = util::Ipv4::random_public(rng_);
    rc.or_port = 9001;
    rc.bandwidth_kbps = 50.0 + rng_.exponential(1.0 / 400.0);
    const relay::RelayId id = registry_.create(rc, rng_, start - 1);

    // Stagger bootstrap uptimes so the initial consensus already has a
    // realistic flag mix.
    util::Seconds uptime;
    const double roll = rng_.uniform01();
    if (roll < config_.bootstrap_guard_fraction) {
      uptime = rng_.uniform_int(9, 200) * util::kSecondsPerDay;
    } else if (roll <
               config_.bootstrap_guard_fraction +
                   config_.bootstrap_hsdir_fraction *
                       (1.0 - config_.bootstrap_guard_fraction)) {
      uptime = rng_.uniform_int(26, 24 * 8) * util::kSecondsPerHour;
    } else {
      uptime = rng_.uniform_int(0, 24) * util::kSecondsPerHour;
    }
    registry_.get(id).set_online(true, start - uptime);
  }
  churn_exempt_.assign(registry_.size(), false);
  rebuild_consensus();
}

void World::apply_churn() {
  const util::UnixTime now = clock_.now();
  for (relay::Relay& r : registry_.all()) {
    if (r.id() < churn_exempt_.size() && churn_exempt_[r.id()]) continue;
    if (r.online()) {
      if (rng_.bernoulli(config_.hourly_down_probability))
        r.set_online(false, now);
    } else {
      if (rng_.bernoulli(config_.hourly_up_probability))
        r.set_online(true, now);
    }
  }
}

void World::publish_services() {
  // Every service's period, ids and responsible sets, in parallel
  // against the read-only consensus (each task writes only its own
  // service's slots); then the republishes in index order, which is
  // where every RNG draw happens. The scratch columns grow here, on
  // the calling thread.
  const std::size_t n = service_count();
  hour_responsible_.resize(n);
  hour_republish_.resize(n);
  // detlint: hot
  util::parallel_for(n, threads_, [&](std::size_t i) {
    hour_republish_[i] = needs_publish(i, false, hour_responsible_[i]);
  });
  for (std::size_t i = 0; i < n; ++i)
    if (hour_republish_[i] != 0) commit_publish(i, hour_responsible_[i]);
  dirnet_.apply_uploads(threads_);
}

void World::set_churn_rates(double down_probability, double up_probability) {
  config_.hourly_down_probability =
      std::clamp(down_probability, 0.0, 1.0);
  config_.hourly_up_probability = std::clamp(up_probability, 0.0, 1.0);
}

void World::set_authority_online(bool online) {
  authority_online_ = online;
  if (config_.metrics != nullptr)
    config_.metrics->gauge("sim.authority_online").set(online ? 1 : 0);
}

void World::set_fault_plan(const fault::FaultPlan& plan) {
  config_.faults = plan;
  if (plan.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(plan);
    injector_->set_metrics(config_.metrics);
    dirnet_.set_fault_injector(injector_.get());
  } else {
    dirnet_.set_fault_injector(nullptr);
    injector_.reset();
  }
}

void World::rebuild_consensus() {
  if (!authority_online_) return;
  consensus_ = authority_.build_consensus(registry_, clock_.now());
  if (config_.record_archive) {
    // Archive requires strictly increasing times; mid-hour rebuilds
    // replace nothing and are simply not archived twice.
    if (archive_.empty() || consensus_.valid_after() > archive_.last_time())
      archive_.add(consensus_);
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("sim.consensus_rebuilds").inc();
    m.gauge("sim.consensus_relays")
        .set(static_cast<std::int64_t>(consensus_.entries().size()));
  }
  if (post_consensus_hook_) post_consensus_hook_(*this);
}

void World::step_hour() {
  // Constructed before the clock moves, so the span covers the full
  // simulated hour [t, t+3600] rather than a zero-length tick.
  TRACE_SPAN(config_.trace, clock_, "step_hour");
  clock_.advance(util::kSecondsPerHour);
  apply_churn();
  rebuild_consensus();
  publish_services();
  dirnet_.expire_all(clock_.now(), threads_);
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("sim.hours_stepped").inc();
    std::int64_t online = 0;
    for (const relay::Relay& r : registry_.all())
      if (r.online()) ++online;
    m.gauge("sim.relays_online").set(online);
    m.gauge("sim.hsdir_count")
        .set(static_cast<std::int64_t>(consensus_.hsdir_count()));
  }
}

void World::run_hours(int hours) {
  for (int i = 0; i < hours; ++i) step_hour();
}

std::size_t World::add_service() {
  return add_service(crypto::KeyPair::generate(rng_));
}

std::size_t World::add_service(crypto::KeyPair key,
                               std::vector<std::uint8_t> cookie) {
  const std::size_t index = service_count();
  if (dirnet_.keys().size() != index)
    throw std::logic_error(
        "World::add_service: the key table holds keys of no service");
  dirnet_.add_key(key.public_bytes());
  const crypto::PermanentId permanent_id =
      crypto::permanent_id_from_fingerprint(key.fingerprint());
  const std::uint32_t period = crypto::time_period(clock_.now(), permanent_id);
  ids_.push_back(
      crypto::descriptor_ids_for_period(permanent_id, period, cookie));
  ids_periods_.push_back(period);
  permanent_ids_.push_back(permanent_id);
  cookies_.push_back(std::move(cookie));
  online_.push_back(1);
  last_periods_.push_back(0);
  published_once_.push_back(0);
  last_responsible_.emplace_back();
  intro_points_.emplace_back();
  publish_records_.emplace_back();
  publish_lost_.push_back(0);
  addresses_.emplace_back();
  guards_.emplace_back();
  // Publish immediately so a service added mid-simulation is reachable
  // without waiting for the next hour step.
  publish(index);
  return index;
}

void World::set_descriptor_cookie(std::size_t index,
                                  std::vector<std::uint8_t> cookie) {
  cookies_[index] = std::move(cookie);
  ids_[index] = crypto::descriptor_ids_for_period(
      permanent_ids_[index], ids_periods_[index], cookies_[index]);
}

World::DescriptorIds World::descriptor_ids_at(std::size_t index,
                                              util::UnixTime now) const {
  const std::uint32_t period = crypto::time_period(now, permanent_ids_[index]);
  if (period == ids_periods_[index]) return ids_[index];
  return crypto::descriptor_ids_for_period(permanent_ids_[index], period,
                                           cookies_[index]);
}

namespace {

// True when `sets`, flattened replica by replica, lists exactly the
// fingerprints in `fingerprints`.
bool same_directories(std::span<const dirauth::ResponsibleSet> sets,
                      std::span<const crypto::Fingerprint> fingerprints) {
  std::size_t k = 0;
  for (const dirauth::ResponsibleSet& set : sets) {
    for (std::uint8_t i = 0; i < set.count; ++i, ++k) {
      if (k >= fingerprints.size() ||
          set.dirs[i]->fingerprint != fingerprints[k])
        return false;
    }
  }
  return k == fingerprints.size();
}

}  // namespace

std::vector<relay::RelayId> World::publish(std::size_t index, bool force) {
  ResponsibleSets responsible;
  if (!needs_publish(index, force, responsible)) return {};
  auto receivers = commit_publish(index, responsible);
  dirnet_.apply_uploads(threads_);
  return receivers;
}

// detlint: hot
bool World::needs_publish(std::size_t index, bool force,
                          ResponsibleSets& responsible) {
  if (online_[index] == 0) return false;
  const util::UnixTime now = clock_.now();
  const crypto::PermanentId& permanent_id = permanent_ids_[index];
  const std::uint32_t period = crypto::time_period(now, permanent_id);
  if (period != ids_periods_[index]) {
    ids_[index] = crypto::descriptor_ids_for_period(permanent_id, period,
                                                    cookies_[index]);
    ids_periods_[index] = period;
  }
  const DescriptorIds& ids = ids_[index];

  // The currently responsible HSDirs for both replicas.
  for (std::size_t replica = 0; replica < responsible.size(); ++replica) {
    dirauth::ResponsibleSet& set = responsible[replica];
    set.count = static_cast<std::uint8_t>(consensus_.responsible_hsdirs_into(
        ids[replica], set.dirs.data(), set.dirs.size()));
  }
  return published_once_[index] == 0 || period != last_periods_[index] ||
         force ||
         !same_directories(responsible, last_responsible_[index].items());
}

std::vector<relay::RelayId> World::commit_publish(
    std::size_t index, const ResponsibleSets& responsible) {
  const util::UnixTime now = clock_.now();
  const std::uint32_t period = ids_periods_[index];
  const DescriptorIds& ids = ids_[index];

  // Sample 3 introduction points among Fast relays.
  auto& intro_points = intro_points_[index];
  intro_points.count = 0;
  const auto& fast = consensus_.fast_indices();
  if (!fast.empty()) {
    for (std::size_t i = 0; i < hsdir::kMaxIntroPoints; ++i)
      intro_points.push_back(
          consensus_.entries()[fast[rng_.index(fast.size())]].fingerprint);
  }

  // The directories read the key from the key table by handle (the
  // service index), so the descriptors carry none.
  for (std::size_t replica = 0; replica < descriptors_.size(); ++replica) {
    hsdir::Descriptor& d = descriptors_[replica];
    d.descriptor_id = ids[replica];
    d.permanent_id = permanent_ids_[index];
    d.introduction_points.assign(intro_points.items().begin(),
                                 intro_points.items().end());
    d.replica = static_cast<std::uint8_t>(replica);
    d.time_period = period;
    d.published = now;
  }

  last_periods_[index] = period;
  published_once_[index] = 1;
  auto& last_responsible = last_responsible_[index];
  last_responsible.count = 0;
  std::array<relay::RelayId, kMaxResponsible> responsible_relays{};
  std::size_t responsible_count = 0;
  for (const dirauth::ResponsibleSet& set : responsible) {
    for (std::uint8_t i = 0; i < set.count; ++i) {
      last_responsible.push_back(set.dirs[i]->fingerprint);
      responsible_relays[responsible_count++] = set.dirs[i]->relay;
    }
  }
  auto receivers = dirnet_.publish(
      static_cast<hsdir::KeyTable::Handle>(index), descriptors_, responsible);

  // Typed outcome: directories the upload never reached despite the
  // network's bounded retries (receivers is deduplicated, so compare
  // against the deduplicated responsible set).
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < responsible_count; ++i) {
    const auto seen_end = responsible_relays.begin() + i;
    if (std::find(responsible_relays.begin(), seen_end,
                  responsible_relays[i]) == seen_end)
      ++distinct;
  }
  publish_lost_[index] = static_cast<int>(distinct - receivers.size());

  // Each upload rides its own guard-fronted circuit (when the service
  // maintains guards; a guard-less service uploads unprotected, which is
  // what made the original attack so effective against default setups).
  auto& records = publish_records_[index];
  records.count = 0;
  for (const relay::RelayId hsdir : receivers) {
    PublishRecord record;
    record.hsdir = hsdir;
    if (const auto guard = guards_[index].pick(consensus_, rng_))
      record.guard = guard->relay;
    records.push_back(record);
  }
  return receivers;
}

ServiceView World::service_view(std::size_t index) const {
  if (index >= service_count())
    throw std::out_of_range("World::service_view: bad service index");
  ServiceView view;
  view.index = index;
  view.onion = crypto::onion_address(permanent_ids_[index]);
  view.online = online_[index] != 0;
  view.last_published_period = last_periods_[index];
  const DescriptorIds ids = descriptor_ids_at(index, clock_.now());
  for (std::size_t r = 0; r < view.descriptor_hex.size(); ++r)
    view.descriptor_hex[r] =
        util::hex_encode(std::span<const std::uint8_t>(ids[r]));
  return view;
}

NetworkStats World::network_stats() const {
  NetworkStats stats;
  const util::UnixTime start =
      config_.start != 0 ? config_.start : default_start_time();
  stats.hours_since_start = (clock_.now() - start) / util::kSecondsPerHour;
  for (const relay::Relay& r : registry_.all())
    if (r.online()) ++stats.relays_online;
  stats.hsdir_count = static_cast<std::int64_t>(consensus_.hsdir_count());
  stats.services_online = std::count(online_.begin(), online_.end(), 1);
  stats.descriptors_stored =
      static_cast<std::int64_t>(dirnet_.descriptors_stored());
  stats.consensus_valid_after = consensus_.valid_after();
  return stats;
}

ResolveView World::resolve_view(std::size_t index) const {
  if (index >= service_count())
    throw std::out_of_range("World::resolve_view: bad service index");
  const util::UnixTime now = clock_.now();
  const DescriptorIds ids = descriptor_ids_at(index, now);
  ResolveView view;
  view.index = index;
  for (std::size_t r = 0; r < view.resolved.size(); ++r) {
    for (const dirauth::ConsensusEntry* e :
         consensus_.responsible_hsdirs(ids[r])) {
      if (injector_ != nullptr && injector_->hsdir_unresponsive(e->relay, now)) {
        ++view.dirs_unresponsive;
        continue;
      }
      const hsdir::DescriptorStore* store = dirnet_.find_store(e->relay);
      if (store != nullptr && store->contains(ids[r], now)) {
        view.resolved[r] = true;
        break;
      }
    }
  }
  return view;
}

void World::set_churn_exempt(relay::RelayId id, bool exempt) {
  if (id >= registry_.size())
    throw std::out_of_range("World::set_churn_exempt: bad relay id");
  if (churn_exempt_.size() < registry_.size())
    churn_exempt_.resize(registry_.size(), false);
  churn_exempt_[id] = exempt;
}

bool World::churn_exempt(relay::RelayId id) const {
  return id < churn_exempt_.size() && churn_exempt_[id];
}

}  // namespace torsim::sim
