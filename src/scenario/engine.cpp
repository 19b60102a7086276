#include "scenario/engine.hpp"

#include <cstdio>

#include "fault/plan.hpp"
#include "hs/client.hpp"
#include "relay/registry.hpp"
#include "sim/world.hpp"

namespace torsim::scenario {
namespace {

/// A scheduled end-of-window action (churn storm / authority outage /
/// fault window). Windows of the same kind are not meant to overlap in
/// curated packs; when they do, each restore still resets to the run
/// baseline, so the last-ending window wins.
struct Restore {
  int hour = 0;
  enum class What { kChurn, kAuthority, kFaults } what = What::kChurn;
};

struct Counters {
  obs::Counter* events = nullptr;
  obs::Counter* migrated = nullptr;
  obs::Counter* taken_down = nullptr;
  obs::Counter* added = nullptr;
  obs::Counter* relays = nullptr;
  obs::Counter* flash_ok = nullptr;
  obs::Counter* flash_failed = nullptr;
};

Counters make_counters(obs::MetricsRegistry* metrics) {
  Counters c;
  if (metrics == nullptr) return c;
  c.events = &metrics->counter("scenario.events_applied");
  c.migrated = &metrics->counter("scenario.services_migrated");
  c.taken_down = &metrics->counter("scenario.services_taken_down");
  c.added = &metrics->counter("scenario.services_added");
  c.relays = &metrics->counter("scenario.relays_injected");
  c.flash_ok = &metrics->counter("scenario.flash_fetches_ok");
  c.flash_failed = &metrics->counter("scenario.flash_fetches_failed");
  return c;
}

void bump(obs::Counter* counter, std::int64_t delta = 1) {
  if (counter != nullptr && delta != 0) counter->inc(delta);
}

int services_online(const sim::World& world) {
  int online = 0;
  for (std::size_t i = 0; i < world.service_count(); ++i)
    if (world.service(i).online()) ++online;
  return online;
}

int relays_online(const sim::World& world) {
  int online = 0;
  for (const relay::Relay& r : world.registry().all())
    if (r.online()) ++online;
  return online;
}

/// The engine owns the world non-const only through this helper set;
/// every mutation below runs in the serial hour loop, so world.rng()
/// draws happen in one fixed order regardless of --threads.
class EventApplier {
 public:
  EventApplier(sim::World& world, ScenarioRunReport& report,
               const Counters& counters, const fault::FaultPlan& baseline,
               int horizon)
      : world_(world),
        report_(report),
        counters_(counters),
        baseline_faults_(baseline),
        horizon_(horizon) {}

  std::vector<Restore>& restores() { return restores_; }

  void apply(const ScenarioEvent& event, int hour) {
    ++report_.events_applied;
    bump(counters_.events);
    switch (event.kind) {
      case EventKind::kChurnStorm: apply_churn_storm(event, hour); break;
      case EventKind::kTakedown: apply_takedown(event); break;
      case EventKind::kMigrationWave: apply_migration(event); break;
      case EventKind::kFlashCrowd: apply_flash_crowd(event); break;
      case EventKind::kHsdirFlood: apply_relay_injection(event, true); break;
      case EventKind::kRelayJoin: apply_relay_injection(event, false); break;
      case EventKind::kAuthorityOutage: apply_outage(event, hour); break;
      case EventKind::kFaultWindow: apply_fault_window(event, hour); break;
      case EventKind::kAddServices: apply_add_services(event); break;
    }
  }

  void restore(const Restore& action) {
    switch (action.what) {
      case Restore::What::kChurn:
        world_.set_churn_rates(baseline_down_, baseline_up_);
        break;
      case Restore::What::kAuthority:
        world_.set_authority_online(true);
        break;
      case Restore::What::kFaults:
        world_.set_fault_plan(baseline_faults_);
        break;
    }
  }

  void capture_baseline_churn() {
    baseline_down_ = world_.hourly_down_probability();
    baseline_up_ = world_.hourly_up_probability();
  }

 private:
  int window_hours(const ScenarioEvent& event, int hour) const {
    return std::min(event.hours, horizon_ - hour);
  }

  void schedule(int hour, Restore::What what) {
    restores_.push_back({hour, what});
  }

  void apply_churn_storm(const ScenarioEvent& event, int hour) {
    world_.set_churn_rates(event.down, event.up);
    report_.churn_storm_hours += window_hours(event, hour);
    schedule(hour + event.hours, Restore::What::kChurn);
  }

  void apply_takedown(const ScenarioEvent& event) {
    const auto count = static_cast<std::int64_t>(world_.service_count());
    std::int64_t hit = 0;
    for (int i = 0; i < event.services; ++i) {
      const std::int64_t index = event.first + i;
      if (index >= count) break;
      const auto service =
          world_.service(static_cast<std::size_t>(index));
      if (!service.online()) continue;
      service.set_online(false);
      ++hit;
    }
    report_.services_taken_down += hit;
    bump(counters_.taken_down, hit);
  }

  void apply_migration(const ScenarioEvent& event) {
    const auto count = static_cast<std::int64_t>(world_.service_count());
    std::int64_t migrated = 0;
    for (int i = 0; i < event.services; ++i) {
      const std::int64_t index = event.first + i;
      if (index >= count) break;
      const auto old_service =
          world_.service(static_cast<std::size_t>(index));
      if (!old_service.online()) continue;
      // The v2 identity retires; its successor appears under a fresh
      // key (the simulator's stand-in for a v3 address) and publishes
      // immediately.
      old_service.set_online(false);
      world_.add_service();
      ++migrated;
    }
    report_.services_migrated += migrated;
    bump(counters_.migrated, migrated);
  }

  void apply_flash_crowd(const ScenarioEvent& event) {
    if (world_.service_count() == 0) {
      report_.flash_fetches_failed +=
          static_cast<std::int64_t>(event.clients) * event.fetches;
      bump(counters_.flash_failed,
           static_cast<std::int64_t>(event.clients) * event.fetches);
      return;
    }
    const std::size_t target = static_cast<std::size_t>(event.service) %
                               world_.service_count();
    const std::string onion = world_.service(target).onion_address();
    std::int64_t ok = 0;
    std::int64_t failed = 0;
    for (int c = 0; c < event.clients; ++c) {
      hs::Client client(util::Ipv4::random_public(world_.rng()),
                        world_.rng().next());
      client.maintain(world_.consensus(), world_.now());
      for (int f = 0; f < event.fetches; ++f) {
        const auto outcome =
            client.fetch_descriptor(onion, world_.consensus(),
                                    world_.directories(), world_.now());
        if (outcome.found)
          ++ok;
        else
          ++failed;
      }
    }
    report_.flash_fetches_ok += ok;
    report_.flash_fetches_failed += failed;
    bump(counters_.flash_ok, ok);
    bump(counters_.flash_failed, failed);
  }

  void apply_relay_injection(const ScenarioEvent& event, bool flood) {
    for (int i = 0; i < event.relays; ++i) {
      relay::RelayConfig rc;
      rc.nickname = (flood ? "flood" : "join") +
                    std::to_string(injected_serial_++);
      rc.address = util::Ipv4::random_public(world_.rng());
      rc.or_port = 9001;
      rc.bandwidth_kbps = event.bandwidth;
      const relay::RelayId id =
          world_.registry().create(rc, world_.rng(), world_.now());
      world_.registry().get(id).set_online(true, world_.now());
      // Flood relays are adversary-operated: pinned online so they ripen
      // into HSDir positions on schedule. Joins churn like any relay.
      if (flood) world_.set_churn_exempt(id, true);
    }
    report_.relays_injected += event.relays;
    bump(counters_.relays, event.relays);
  }

  void apply_outage(const ScenarioEvent& event, int hour) {
    world_.set_authority_online(false);
    report_.authority_outage_hours += window_hours(event, hour);
    schedule(hour + event.hours, Restore::What::kAuthority);
  }

  void apply_fault_window(const ScenarioEvent& event, int hour) {
    world_.set_fault_plan(fault::FaultPlan::parse(event.fault_spec));
    report_.fault_window_hours += window_hours(event, hour);
    schedule(hour + event.hours, Restore::What::kFaults);
  }

  void apply_add_services(const ScenarioEvent& event) {
    for (int i = 0; i < event.count; ++i) world_.add_service();
    report_.services_added += event.count;
    bump(counters_.added, event.count);
  }

  sim::World& world_;
  ScenarioRunReport& report_;
  Counters counters_;
  fault::FaultPlan baseline_faults_;
  int horizon_;
  double baseline_down_ = 0.0;
  double baseline_up_ = 0.0;
  int injected_serial_ = 0;
  std::vector<Restore> restores_;
};

TimelineRow sample_row(const sim::World& world, int hour,
                       const ScenarioRunReport& report,
                       std::string events_fired) {
  TimelineRow row;
  row.hour = hour;
  row.time = world.now();
  row.relays_total = static_cast<int>(world.registry().size());
  row.relays_online = relays_online(world);
  row.consensus_relays = static_cast<int>(world.consensus().entries().size());
  row.hsdirs = static_cast<int>(world.consensus().hsdir_count());
  row.services_total = static_cast<int>(world.service_count());
  row.services_online = services_online(world);
  row.descriptors_stored =
      static_cast<std::int64_t>(world.directories().descriptors_stored());
  row.migrated_total = report.services_migrated;
  row.taken_down_total = report.services_taken_down;
  row.flash_ok_total = report.flash_fetches_ok;
  row.flash_failed_total = report.flash_fetches_failed;
  row.events = std::move(events_fired);
  return row;
}

}  // namespace

void ScenarioRunReport::write_timeline(util::CsvWriter& csv) const {
  csv.row({"hour", "time", "relays_total", "relays_online",
           "consensus_relays", "hsdirs", "services_total", "services_online",
           "descriptors_stored", "migrated_total", "taken_down_total",
           "flash_ok_total", "flash_failed_total", "events"});
  for (const TimelineRow& row : timeline)
    csv.typed_row(row.hour, util::format_utc(row.time), row.relays_total,
                  row.relays_online, row.consensus_relays, row.hsdirs,
                  row.services_total, row.services_online,
                  row.descriptors_stored, row.migrated_total,
                  row.taken_down_total, row.flash_ok_total,
                  row.flash_failed_total, row.events);
}

std::string ScenarioRunReport::describe() const {
  char line[256];
  std::snprintf(
      line, sizeof line,
      "scenario %s: %d hours, %d events | migrated %lld, taken down %lld, "
      "added %lld, relays injected %lld | flash fetches %lld ok / %lld "
      "failed",
      pack_name.c_str(), horizon_hours, events_applied,
      static_cast<long long>(services_migrated),
      static_cast<long long>(services_taken_down),
      static_cast<long long>(services_added),
      static_cast<long long>(relays_injected),
      static_cast<long long>(flash_fetches_ok),
      static_cast<long long>(flash_fetches_failed));
  return line;
}

ScenarioRunReport run_pack(const ScenarioPack& pack,
                           const ScenarioRunConfig& config) {
  validate_pack(pack);
  const fault::FaultPlan baseline =
      !config.fault_override.empty()
          ? fault::FaultPlan::parse(config.fault_override)
          : (!pack.fault_spec.empty() ? fault::FaultPlan::parse(pack.fault_spec)
                                      : fault::FaultPlan{});

  sim::WorldConfig wc;
  wc.seed = pack.seed;
  wc.start = pack.start;
  wc.honest_relays = pack.relays;
  wc.threads = config.threads;
  wc.faults = baseline;
  wc.metrics = config.metrics;
  wc.trace = config.trace;
  // Multi-month horizons at hourly consensus granularity: keeping every
  // consensus would dominate memory for zero scenario value.
  wc.record_archive = false;
  sim::World world(wc);
  for (int i = 0; i < pack.services; ++i) world.add_service();

  ScenarioRunReport report;
  report.pack_name = pack.name;
  report.horizon_hours = pack.horizon_hours;

  const Counters counters = make_counters(config.metrics);
  EventApplier applier(world, report, counters, baseline,
                       pack.horizon_hours);
  applier.capture_baseline_churn();

  std::size_t next_event = 0;
  for (int hour = 0; hour < pack.horizon_hours; ++hour) {
    // End-of-window restores land before new events so back-to-back
    // windows hand over cleanly at the shared boundary hour.
    for (const Restore& action : applier.restores())
      if (action.hour == hour) applier.restore(action);

    std::string fired;
    while (next_event < pack.events.size() &&
           pack.events[next_event].at_hours == hour) {
      const ScenarioEvent& event = pack.events[next_event];
      if (!fired.empty()) fired += ' ';
      fired += event_kind_name(event.kind);
      applier.apply(event, hour);
      ++next_event;
    }

    if (hour % pack.sample_every_hours == 0 || !fired.empty())
      report.timeline.push_back(
          sample_row(world, hour, report, std::move(fired)));

    world.step_hour();
  }
  for (const Restore& action : applier.restores())
    if (action.hour == pack.horizon_hours) applier.restore(action);
  report.timeline.push_back(
      sample_row(world, pack.horizon_hours, report, std::string()));

  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    m.gauge("scenario.timeline_rows")
        .set(static_cast<std::int64_t>(report.timeline.size()));
    m.gauge("scenario.horizon_hours").set(report.horizon_hours);
  }
  return report;
}

}  // namespace torsim::scenario
