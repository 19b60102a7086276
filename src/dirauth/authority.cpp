#include "dirauth/authority.hpp"

#include <algorithm>

#include "stats/descriptive.hpp"

namespace torsim::dirauth {

FlagSet Authority::compute_flags(const relay::Relay& relay,
                                 double median_bandwidth,
                                 util::UnixTime now) const {
  FlagSet flags = 0;
  if (!relay.online()) return flags;
  flags = with_flag(flags, Flag::kRunning);
  flags = with_flag(flags, Flag::kValid);
  const util::Seconds uptime = relay.continuous_uptime(now);
  const double bw = relay.config().bandwidth_kbps;
  if (bw >= policy_.fast_min_bandwidth_kbps)
    flags = with_flag(flags, Flag::kFast);
  if (uptime >= policy_.stable_min_uptime)
    flags = with_flag(flags, Flag::kStable);
  if (uptime >= policy_.hsdir_min_uptime)
    flags = with_flag(flags, Flag::kHSDir);
  if (uptime >= policy_.guard_min_uptime &&
      bw >= policy_.guard_bandwidth_median_fraction * median_bandwidth &&
      relay.fractional_uptime(now) >= policy_.guard_min_fractional_uptime)
    flags = with_flag(flags, Flag::kGuard);
  return flags;
}

Consensus Authority::build_consensus(const relay::Registry& registry,
                                     util::UnixTime now) const {
  // Online relays grouped by IP with one sort: by address, then the
  // election order within an address (higher measured bandwidth, then
  // longer uptime, then lower id). Entries are emitted group by group
  // in address order, as an ordered map of groups would.
  struct Candidate {
    util::Ipv4 address;
    double bandwidth_kbps = 0.0;
    util::Seconds uptime = 0;
    const relay::Relay* relay = nullptr;
  };
  std::vector<Candidate> candidates;
  std::vector<double> bandwidths;
  for (const relay::Relay& r : registry.all()) {
    if (!r.online() || !r.authority_reachable()) continue;
    candidates.push_back({r.config().address, r.config().bandwidth_kbps,
                          r.continuous_uptime(now), &r});
    bandwidths.push_back(r.config().bandwidth_kbps);
  }
  const double median_bw =
      bandwidths.empty() ? 0.0 : stats::median(bandwidths);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.address != b.address) return a.address < b.address;
              if (a.bandwidth_kbps != b.bandwidth_kbps)
                return a.bandwidth_kbps > b.bandwidth_kbps;
              if (a.uptime != b.uptime) return a.uptime > b.uptime;
              return a.relay->id() < b.relay->id();
            });

  std::vector<ConsensusEntry> entries;
  const auto keep = static_cast<std::size_t>(policy_.max_relays_per_ip);
  std::size_t rank = 0;  // position within the current address's group
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    rank = i > 0 && candidates[i].address == candidates[i - 1].address
               ? rank + 1
               : 0;
    if (rank >= keep) continue;
    const relay::Relay& r = *candidates[i].relay;
    ConsensusEntry e;
    e.relay = r.id();
    e.fingerprint = r.fingerprint();
    e.nickname = r.config().nickname;
    e.address = r.config().address;
    e.or_port = r.config().or_port;
    e.bandwidth_kbps = r.config().bandwidth_kbps;
    e.flags = compute_flags(r, median_bw, now);
    entries.push_back(std::move(e));
  }
  return Consensus(now, std::move(entries));
}

}  // namespace torsim::dirauth
