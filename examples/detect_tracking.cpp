// Sec. VII: detect hidden-service tracking from consensus history.
// Replays the paper's Silk Road case study — a three-year synthetic
// archive with the three real tracking episodes injected — and runs the
// statistical detector over it.
//
//   $ ./detect_tracking [seed]
#include <cstdint>
#include <cstdio>

#include "args.hpp"
#include "trackdet/scenario.hpp"

int main(int argc, char** argv) {
  using namespace torsim;
  using namespace torsim::trackdet;

  const auto seed = examples::number_arg<std::uint64_t>(argc, argv, 1,
                                                        20130204, 0, "[seed]");
  std::printf("simulating 2011-02-01 .. 2013-10-31 consensus history "
              "(seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  const auto study = run_silkroad_study(seed);

  std::printf("archive: %lld daily snapshots, mean ring size %.0f\n",
              static_cast<long long>(study.report.snapshots),
              study.report.mean_hsdirs);
  std::printf("binomial suspicion threshold: > %.1f responsible periods\n\n",
              study.report.suspicion_threshold);

  std::printf("detected campaign clusters:\n");
  for (const auto& cluster : study.report.clusters) {
    std::printf("  '%s*': %zu servers, %lld periods, max ratio %.0f%s\n",
                cluster.shared_prefix.c_str(), cluster.servers.size(),
                static_cast<long long>(cluster.periods_covered),
                cluster.max_ratio,
                cluster.full_takeover ? " — FULL 6-HSDir TAKEOVER" : "");
    std::printf("      active %s .. %s\n",
                util::format_utc(cluster.first_seen).substr(0, 10).c_str(),
                util::format_utc(cluster.last_seen).substr(0, 10).c_str());
  }

  std::printf("\nper-year verdicts:\n");
  for (std::size_t y = 0; y < study.yearly.size(); ++y) {
    int campaign = 0, honest = 0;
    for (const auto& s : study.yearly[y].suspicious)
      (s.truth_campaign.empty() ? honest : campaign)++;
    std::printf("  %d: %d campaign servers, %d honest false alarms\n",
                2011 + static_cast<int>(y), campaign, honest);
  }

  std::printf("\nmost suspicious servers (name / responsible periods / "
              "fp switches / max ratio / rules hit):\n");
  int shown = 0;
  for (const auto& s : study.report.suspicious) {
    if (shown++ >= 10) break;
    const std::string truth =
        s.truth_campaign.empty() ? "" : "[" + s.truth_campaign + "]";
    std::printf("  %-14s %4lld %4lld %12.0f %2d   %s\n", s.name.c_str(),
                static_cast<long long>(s.stats.periods_responsible),
                static_cast<long long>(s.stats.fingerprint_switches),
                s.stats.max_ratio, s.flags.count(), truth.c_str());
  }
  return study.report.clusters.empty() ? 1 : 0;
}
