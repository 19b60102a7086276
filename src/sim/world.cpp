#include "sim/world.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "util/encoding.hpp"

namespace torsim::sim {

util::UnixTime default_start_time() {
  return util::make_utc(2013, 2, 1, 0, 0, 0);
}

World::World(WorldConfig config)
    : config_(config),
      clock_(config.start != 0 ? config.start : default_start_time()),
      rng_(config.seed),
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
  for (auto& service : services_)
    service->maybe_publish(consensus_, dirnet_, rng_, clock_.now());
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
  dirnet_.expire_all(clock_.now());
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

std::size_t World::add_service(crypto::KeyPair key) {
  services_.push_back(
      std::make_unique<hs::ServiceHost>(std::move(key), clock_.now()));
  // Publish immediately so a service added mid-simulation is reachable
  // without waiting for the next hour step.
  services_.back()->maybe_publish(consensus_, dirnet_, rng_, clock_.now());
  return services_.size() - 1;
}

ServiceView World::service_view(std::size_t index) const {
  if (index >= services_.size())
    throw std::out_of_range("World::service_view: bad service index");
  const hs::ServiceHost& host = *services_[index];
  ServiceView view;
  view.index = index;
  view.onion = host.onion_address();
  view.online = host.online();
  view.last_published_period = host.last_published_period();
  const auto ids = host.current_descriptor_ids(clock_.now());
  for (std::size_t r = 0; r < view.descriptor_hex.size() && r < ids.size();
       ++r) {
    view.descriptor_hex[r] =
        util::hex_encode(std::span<const std::uint8_t>(ids[r]));
  }
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
  for (const auto& service : services_)
    if (service->online()) ++stats.services_online;
  stats.descriptors_stored =
      static_cast<std::int64_t>(dirnet_.descriptors_stored());
  stats.consensus_valid_after = consensus_.valid_after();
  return stats;
}

ResolveView World::resolve_view(std::size_t index) const {
  if (index >= services_.size())
    throw std::out_of_range("World::resolve_view: bad service index");
  const util::UnixTime now = clock_.now();
  const auto ids = services_[index]->current_descriptor_ids(now);
  ResolveView view;
  view.index = index;
  for (std::size_t r = 0; r < view.resolved.size() && r < ids.size(); ++r) {
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
