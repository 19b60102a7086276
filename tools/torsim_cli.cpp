// torsim — command-line driver for every experiment in the reproduction.
//
//   torsim scan        [--scale S] [--seed N] [--csv FILE]   Fig. 1
//   torsim crawl       [--scale S] [--seed N]                Table I
//   torsim classify    [--scale S] [--seed N] [--csv FILE]   Fig. 2
//   torsim popularity  [--scale S] [--seed N] [--csv FILE]   Table II
//   torsim botnet      [--scale S] [--seed N]                Goldnet inference
//   torsim harvest     [--ips N] [--relays M] [--seed N]     Sec. II attack
//   torsim trackdet    [--seed N] [--csv FILE]               Sec. VII
//   torsim consensus   [--hours N] [--out FILE]              dir-spec dump
//   torsim scenario    run|check|list [PACK]                 scenario packs
//   torsim geoip IP [IP...]                                  GeoIP lookups
//   torsim serve       --socket PATH [--services N]          warm-world daemon
//   torsim load        --socket PATH [--clients N]           load generator
//   torsim query       [--requests N] [--script FILE]        in-process answers
//
// The command list below is driven by kCommands: usage(), dispatch,
// the unknown-command error, and the hidden --list-commands flag all
// read the same table, so they cannot drift apart.
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve_common.hpp"

#include "attack/harvester.hpp"
#include "content/pipeline.hpp"
#include "dirspec/consensus_doc.hpp"
#include "fault/plan.hpp"
#include "geo/client_map.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "popularity/botnet_inference.hpp"
#include "popularity/request_generator.hpp"
#include "popularity/resolver.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "scenario/engine.hpp"
#include "sim/world.hpp"
#include "stats/histogram.hpp"
#include "trackdet/scenario.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace {

using namespace torsim;

struct Options {
  double scale = 0.1;
  std::uint64_t seed = 20130204;
  std::string csv;
  std::string out;
  int ips = 10;
  int relays = 12;
  int hours = 6;
  /// Fan-out worker threads; 0 = one per hardware thread, 1 = serial.
  int threads = 0;
  /// Injected-fault plan (--faults mild|moderate|severe|k=v,...).
  fault::FaultPlan faults{};
  /// The raw --faults text, kept for commands (scenario) that re-apply
  /// the spec themselves.
  std::string faults_spec;
  /// Deterministic-metrics JSON destination (--metrics-out FILE).
  std::string metrics_out;
  /// Chrome trace_event JSON destination (--trace-out FILE).
  std::string trace_out;

  // Serving subsystem knobs (serve / load / query; docs/serving.md).
  std::string socket;       ///< --socket PATH (unix-domain socket)
  int services = 16;        ///< --services N (resident hidden services)
  int clients = 4;          ///< --clients N (load worker connections)
  int requests = 100;       ///< --requests N (generated mix length)
  bool open_loop = false;   ///< --open-loop (pipeline instead of RPC)
  bool shutdown = false;    ///< --shutdown (append a shutdown request)
  std::string script;       ///< --script FILE (explicit request list)
  int batch_max = 256;      ///< --batch-max N (requests per tick)
  int queue_cap = 1024;     ///< --queue-cap N (admission-control bound)
  std::string chaos_spec;   ///< --chaos SPEC (connection-level faults)
  std::string telemetry_out;  ///< --telemetry-out FILE (edge/load telemetry)

  std::vector<std::string> positional;

  /// Wired by main() when --metrics-out / --trace-out are given; the
  /// commands thread these into their component configs.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

util::LogLevel parse_log_level(const std::string& text) {
  if (text == "debug") return util::LogLevel::kDebug;
  if (text == "info") return util::LogLevel::kInfo;
  if (text == "warn") return util::LogLevel::kWarn;
  if (text == "error") return util::LogLevel::kError;
  if (text == "off") return util::LogLevel::kOff;
  throw std::invalid_argument("unknown log level '" + text +
                              "' (expected debug|info|warn|error|off)");
}

Options parse_options(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scale") opt.scale = std::stod(next());
    else if (arg == "--seed") opt.seed = std::stoull(next());
    else if (arg == "--csv") opt.csv = next();
    else if (arg == "--out") opt.out = next();
    else if (arg == "--ips") opt.ips = std::stoi(next());
    else if (arg == "--relays") opt.relays = std::stoi(next());
    else if (arg == "--hours") opt.hours = std::stoi(next());
    else if (arg == "--threads") opt.threads = std::stoi(next());
    else if (arg == "--faults") {
      opt.faults_spec = next();
      opt.faults = fault::FaultPlan::parse(opt.faults_spec);
    }
    else if (arg == "--metrics-out") opt.metrics_out = next();
    else if (arg == "--trace-out") opt.trace_out = next();
    else if (arg == "--log-level") util::set_log_level(parse_log_level(next()));
    else if (arg == "--socket") opt.socket = next();
    else if (arg == "--services") opt.services = std::stoi(next());
    else if (arg == "--clients") opt.clients = std::stoi(next());
    else if (arg == "--requests") opt.requests = std::stoi(next());
    else if (arg == "--open-loop") opt.open_loop = true;
    else if (arg == "--shutdown") opt.shutdown = true;
    else if (arg == "--script") opt.script = next();
    else if (arg == "--batch-max") opt.batch_max = std::stoi(next());
    else if (arg == "--queue-cap") opt.queue_cap = std::stoi(next());
    else if (arg == "--chaos") opt.chaos_spec = next();
    else if (arg == "--telemetry-out") opt.telemetry_out = next();
    else if (!arg.empty() && arg[0] == '-')
      throw std::invalid_argument("unknown option " + arg);
    else opt.positional.push_back(arg);
  }
  return opt;
}

/// Writes `text` to `path`; returns 0 or prints an `error:` line and
/// returns 1. Every command funnels file output through this helper so
/// unwritable destinations fail the same way everywhere.
int write_text_file(const std::string& path, const std::string& text,
                    const char* what);

population::Population make_population(const Options& opt) {
  population::PopulationConfig config;
  config.seed = opt.seed;
  config.scale = opt.scale;
  return population::Population::generate(config);
}

int cmd_scan(const Options& opt) {
  const auto pop = make_population(opt);
  scan::PortScanner scanner(scan::ScanConfig{.seed = opt.seed + 1,
                                             .scan_days = 8,
                                             .probe_timeout_probability =
                                                 0.02,
                                             .threads = opt.threads,
                                             .faults = opt.faults,
                                             .metrics = opt.metrics});
  const auto report = scanner.scan(pop);
  std::printf("scanned %lld onions (descriptors available), found %lld open "
              "ports on %lld of them (coverage %.0f%%)\n",
              static_cast<long long>(report.onions_scanned),
              static_cast<long long>(report.total_open_ports()),
              static_cast<long long>(report.onions_with_open_ports),
              report.coverage * 100);
  std::printf("probe failures: %lld timeout, %lld closed",
              static_cast<long long>(report.probe_timeouts),
              static_cast<long long>(report.probes_closed));
  if (opt.faults.enabled())
    std::printf(" | faults: %lld corrupt, %lld recovered by retry, "
                "%zu typed records",
                static_cast<long long>(report.probes_corrupt),
                static_cast<long long>(report.probes_recovered),
                report.failures.size());
  std::printf("\n");
  const auto rows =
      report.figure1(static_cast<std::int64_t>(50 * opt.scale));
  for (const auto& [label, count] : rows)
    std::printf("%s\n",
                stats::bar_line(label, count, report.total_open_ports(), 40)
                    .c_str());
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    csv.row({"port", "open", "timeout", "closed"});
    std::map<std::uint16_t, std::array<std::int64_t, 3>> per_port;
    for (const auto& [port, count] : report.open_ports.entries())
      per_port[port][0] = count;
    for (const auto& [port, count] : report.timeout_ports.entries())
      per_port[port][1] = count;
    for (const auto& [port, count] : report.closed_ports.entries())
      per_port[port][2] = count;
    for (const auto& [port, counts] : per_port)
      csv.typed_row(port, counts[0], counts[1], counts[2]);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  return 0;
}

int cmd_crawl(const Options& opt) {
  const auto pop = make_population(opt);
  scan::PortScanner scanner(scan::ScanConfig{.threads = opt.threads,
                                             .faults = opt.faults,
                                             .metrics = opt.metrics});
  const auto scan_report = scanner.scan(pop);
  scan::Crawler crawler(scan::CrawlConfig{
      .faults = opt.faults,
      .revisit_attempts =
          opt.faults.enabled() ? opt.faults.retry.max_attempts : 1,
      .metrics = opt.metrics});
  const auto crawl = crawler.crawl(pop, scan_report);
  std::printf("destinations %lld -> still open %lld -> connected %lld "
              "(failed: %lld timeout, %lld closed)\n",
              static_cast<long long>(crawl.destinations),
              static_cast<long long>(crawl.still_open),
              static_cast<long long>(crawl.connected),
              static_cast<long long>(crawl.failed_timeout),
              static_cast<long long>(crawl.failed_closed));
  if (opt.faults.enabled())
    std::printf("faults: %lld corrupt pages, %lld recovered by re-visit, "
                "%zu typed records\n",
                static_cast<long long>(crawl.corrupt_pages),
                static_cast<long long>(crawl.recovered_by_revisit),
                crawl.failures.size());
  std::map<std::uint16_t, int> per_port;
  for (const auto& page : crawl.pages) ++per_port[page.port];
  std::printf("per-port (Table I):\n");
  for (const auto& [port, count] : per_port)
    if (count >= 3 || port == 8080)
      std::printf("  %-6u %d\n", port, count);
  const auto certs = scan::analyse_certificates(pop, scan_report);
  std::printf("certificates: %lld seen, %lld CN-mismatch (%lld TorHost), "
              "%lld public-DNS\n",
              static_cast<long long>(certs.certificates_seen),
              static_cast<long long>(certs.selfsigned_mismatch),
              static_cast<long long>(certs.torhost_cn),
              static_cast<long long>(certs.public_dns_cn));
  return 0;
}

int cmd_classify(const Options& opt) {
  const auto pop = make_population(opt);
  scan::PortScanner scanner(scan::ScanConfig{.threads = opt.threads,
                                             .faults = opt.faults,
                                             .metrics = opt.metrics});
  const auto scan_report = scanner.scan(pop);
  scan::Crawler crawler(scan::CrawlConfig{
      .faults = opt.faults,
      .revisit_attempts =
          opt.faults.enabled() ? opt.faults.retry.max_attempts : 1,
      .metrics = opt.metrics});
  const auto crawl = crawler.crawl(pop, scan_report);
  util::Rng rng(opt.seed + 2);
  const auto classifier = content::TopicClassifier::make_default(rng);
  content::ContentPipeline pipeline(classifier,
                                    content::LanguageDetector::instance(),
                                    {.threads = opt.threads});
  const auto result = pipeline.run(crawl.pages);
  std::printf("classifiable %zu, English %zu (%.0f%%), TorHost defaults %zu, "
              "classified %zu\n",
              result.classifiable, result.english,
              100.0 * result.language_shares()[0], result.torhost_default,
              result.classified);
  const auto pct = result.topic_percentages();
  for (int i = 0; i < content::kNumTopics; ++i)
    std::printf("  %-20s %5.1f%%\n",
                std::string(content::topic_name(content::topic_from_index(i)))
                    .c_str(),
                pct[i]);
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    csv.row({"topic", "count", "percent"});
    for (int i = 0; i < content::kNumTopics; ++i)
      csv.typed_row(content::topic_name(content::topic_from_index(i)),
                    result.topic_counts[i], pct[i]);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  return 0;
}

int cmd_popularity(const Options& opt) {
  const auto pop = make_population(opt);
  popularity::RequestGenerator generator(popularity::RequestGeneratorConfig{
      .seed = opt.seed + 3, .metrics = opt.metrics});
  const auto stream = generator.generate(pop);
  popularity::DescriptorResolver resolver(popularity::ResolverConfig{
      .threads = opt.threads, .metrics = opt.metrics});
  resolver.build_dictionary(pop);
  const auto report = resolver.resolve(stream, pop);
  std::printf("%lld requests, %lld unique ids, %lld resolved to %lld onions "
              "(unresolved share %.2f)\n",
              static_cast<long long>(report.total_requests),
              static_cast<long long>(report.unique_descriptor_ids),
              static_cast<long long>(report.resolved_descriptor_ids),
              static_cast<long long>(report.resolved_onions),
              report.unresolved_request_share());
  for (std::size_t i = 0; i < report.ranking.size() && i < 20; ++i) {
    const auto& row = report.ranking[i];
    std::printf("  %2zu  %-7lld %s %s\n", i + 1,
                static_cast<long long>(row.requests), row.onion.c_str(),
                row.label.empty() ? "" : ("[" + row.label + "]").c_str());
  }
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    csv.row({"rank", "onion", "requests", "label", "paper_rank"});
    for (std::size_t i = 0; i < report.ranking.size(); ++i)
      csv.typed_row(i + 1, report.ranking[i].onion,
                    report.ranking[i].requests, report.ranking[i].label,
                    report.ranking[i].paper_rank);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  return 0;
}

int cmd_botnet(const Options& opt) {
  const auto pop = make_population(opt);
  popularity::RequestGenerator generator(popularity::RequestGeneratorConfig{
      .seed = opt.seed + 3, .metrics = opt.metrics});
  const auto stream = generator.generate(pop);
  popularity::DescriptorResolver resolver(popularity::ResolverConfig{
      .threads = opt.threads, .metrics = opt.metrics});
  resolver.build_dictionary(pop);
  const auto ranking = resolver.resolve(stream, pop);
  const auto report = popularity::infer_botnet_infrastructure(ranking, pop);
  std::printf("C&C-fingerprint candidates among top of ranking: %zu\n",
              report.cnc_candidates.size());
  for (const auto& server : report.physical_servers) {
    std::printf("  physical server (Apache uptime %lld s): %zu onions, "
                "%.0f KB/s, %.1f req/s\n",
                static_cast<long long>(server.apache_uptime_seconds),
                server.onions.size(),
                server.mean_traffic_bytes_per_sec / 1024.0,
                server.mean_requests_per_sec);
    for (const auto& onion : server.onions)
      std::printf("    %s.onion\n", onion.c_str());
  }
  return 0;
}

int cmd_harvest(const Options& opt) {
  sim::WorldConfig wc;
  wc.seed = opt.seed;
  wc.honest_relays = 300;
  wc.threads = opt.threads;
  wc.faults = opt.faults;
  wc.metrics = opt.metrics;
  wc.trace = opt.trace;
  sim::World world(wc);
  std::set<std::string> truth;
  for (int i = 0; i < 80; ++i)
    truth.insert(world.service(world.add_service()).onion_address());
  attack::HarvesterConfig hc;
  hc.num_ips = opt.ips;
  hc.relays_per_ip = opt.relays;
  hc.metrics = opt.metrics;
  hc.trace = opt.trace;
  attack::ShadowHarvester harvester(hc);
  harvester.deploy(world);
  const auto report = harvester.run(world, 24);
  std::size_t hits = 0;
  for (const auto& onion : report.onions) hits += truth.count(onion);
  std::printf("%d IPs x %d relays -> %d ring positions, %zu/%zu onions "
              "(%.0f%%), %lld fetches logged\n",
              opt.ips, opt.relays, report.positions_used, hits, truth.size(),
              100.0 * static_cast<double>(hits) /
                  static_cast<double>(truth.size()),
              static_cast<long long>(report.fetch_requests_logged));
  return 0;
}

int cmd_trackdet(const Options& opt) {
  const auto study = trackdet::run_silkroad_study(opt.seed);
  std::printf("%lld daily snapshots, threshold %.1f, takeover periods %lld\n",
              static_cast<long long>(study.report.snapshots),
              study.report.suspicion_threshold,
              static_cast<long long>(study.report.full_takeover_periods));
  for (const auto& cluster : study.report.clusters)
    std::printf("  cluster '%s*': %zu servers, %lld periods, ratio %.0f%s\n",
                cluster.shared_prefix.c_str(), cluster.servers.size(),
                static_cast<long long>(cluster.periods_covered),
                cluster.max_ratio,
                cluster.full_takeover ? " [TAKEOVER]" : "");
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    csv.row({"server", "responsible_periods", "fp_switches", "max_ratio",
             "flags", "truth_campaign"});
    for (const auto& s : study.report.suspicious)
      csv.typed_row(s.name, s.stats.periods_responsible,
                    s.stats.fingerprint_switches, s.stats.max_ratio,
                    s.flags.count(), s.truth_campaign);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  return 0;
}

int cmd_consensus(const Options& opt) {
  sim::WorldConfig wc;
  wc.seed = opt.seed;
  wc.honest_relays = 100;
  wc.threads = opt.threads;
  wc.faults = opt.faults;
  wc.metrics = opt.metrics;
  wc.trace = opt.trace;
  sim::World world(wc);
  world.run_hours(opt.hours);
  const auto text = dirspec::render_archive(world.archive());
  if (opt.out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  const std::string what =
      "consensus archive (" + std::to_string(world.archive().size()) +
      " consensuses)";
  return write_text_file(opt.out, text, what.c_str());
}

int cmd_report(const Options& opt) {
  // Full pipeline at the requested scale, emitted as a measured-vs-paper
  // markdown report (the generator behind EXPERIMENTS.md).
  const auto pop = make_population(opt);
  scan::PortScanner scanner(scan::ScanConfig{.threads = opt.threads,
                                             .faults = opt.faults,
                                             .metrics = opt.metrics});
  const auto scan_report = scanner.scan(pop);
  const auto certs = scan::analyse_certificates(pop, scan_report);
  scan::Crawler crawler(scan::CrawlConfig{
      .faults = opt.faults,
      .revisit_attempts =
          opt.faults.enabled() ? opt.faults.retry.max_attempts : 1,
      .metrics = opt.metrics});
  const auto crawl = crawler.crawl(pop, scan_report);
  util::Rng rng(opt.seed + 2);
  const auto classifier = content::TopicClassifier::make_default(rng);
  content::ContentPipeline pipeline(classifier,
                                    content::LanguageDetector::instance(),
                                    {.threads = opt.threads});
  const auto content_report = pipeline.run(crawl.pages);
  popularity::RequestGenerator generator(popularity::RequestGeneratorConfig{
      .seed = opt.seed + 3, .metrics = opt.metrics});
  const auto stream = generator.generate(pop);
  popularity::DescriptorResolver resolver(popularity::ResolverConfig{
      .threads = opt.threads, .metrics = opt.metrics});
  resolver.build_dictionary(pop);
  const auto resolution = resolver.resolve(stream, pop);

  const auto& paper = population::paper();
  const double s = opt.scale;
  std::string out;
  char line[256];
  const auto row = [&](const std::string& label, double measured,
                       double paper_val) {
    std::snprintf(line, sizeof line, "| %s | %.0f | %.0f | %.2f |\n",
                  label.c_str(), measured, paper_val * s,
                  paper_val * s != 0 ? measured / (paper_val * s) : 0.0);
    out += line;
  };
  std::snprintf(line, sizeof line,
                "# torsim generated report (scale %.2f, seed %llu)\n\n", s,
                static_cast<unsigned long long>(opt.seed));
  out += line;
  out += "## Fig. 1 / Sec. III\n\n| quantity | measured | paper(scaled) | "
         "ratio |\n|---|---|---|---|\n";
  row("descriptors available",
      static_cast<double>(scan_report.descriptors_available),
      static_cast<double>(paper.descriptors_at_scan));
  row("open ports", static_cast<double>(scan_report.total_open_ports()),
      static_cast<double>(paper.open_ports_total));
  for (const auto& pc : paper.fig1_ports) {
    if (pc.port == 0) continue;
    row(std::string(pc.label),
        static_cast<double>(scan_report.open_ports.count(pc.port)),
        static_cast<double>(pc.count));
  }
  row("CN-mismatch certs", static_cast<double>(certs.selfsigned_mismatch),
      static_cast<double>(paper.certs_selfsigned_mismatch));
  row("public-DNS certs", static_cast<double>(certs.public_dns_cn),
      static_cast<double>(paper.certs_public_dns_cn));

  out += "\n## Table I / Sec. IV\n\n| quantity | measured | paper(scaled) | "
         "ratio |\n|---|---|---|---|\n";
  row("crawl destinations", static_cast<double>(crawl.destinations),
      static_cast<double>(paper.crawl_destinations));
  row("connected", static_cast<double>(crawl.connected),
      static_cast<double>(paper.crawl_connected));
  row("classifiable", static_cast<double>(content_report.classifiable),
      static_cast<double>(paper.classifiable));
  row("english", static_cast<double>(content_report.english),
      static_cast<double>(paper.english_pages));
  row("classified", static_cast<double>(content_report.classified),
      static_cast<double>(paper.classified_pages));

  out += "\n## Fig. 2 topics (% of classified)\n\n| topic | measured | paper "
         "|\n|---|---|---|\n";
  const auto pct = content_report.topic_percentages();
  for (int i = 0; i < content::kNumTopics; ++i) {
    std::snprintf(line, sizeof line, "| %s | %.1f | %.0f |\n",
                  std::string(content::topic_name(
                                  content::topic_from_index(i)))
                      .c_str(),
                  pct[i], content::paper_topic_percentages()[i]);
    out += line;
  }

  out += "\n## Table II / Sec. V\n\n| quantity | measured | paper(scaled) | "
         "ratio |\n|---|---|---|---|\n";
  row("unique descriptor ids",
      static_cast<double>(resolution.unique_descriptor_ids),
      static_cast<double>(paper.unique_descriptor_ids));
  row("resolved ids", static_cast<double>(resolution.resolved_descriptor_ids),
      static_cast<double>(paper.resolved_descriptor_ids));
  row("resolved onions", static_cast<double>(resolution.resolved_onions),
      static_cast<double>(paper.resolved_onions));
  std::snprintf(line, sizeof line,
                "\nunresolved request share: measured %.2f, paper %.2f\n",
                resolution.unresolved_request_share(),
                paper.nonexistent_request_share);
  out += line;

  if (opt.out.empty()) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  return write_text_file(opt.out, out, "report");
}

/// Maps a `torsim scenario` pack operand to a file path: an existing
/// file wins; a bare name is looked up as scenarios/NAME.scn relative
/// to the working directory.
std::string resolve_pack_path(const std::string& arg) {
  if (std::filesystem::is_regular_file(arg)) return arg;
  if (arg.find('/') == std::string::npos && !arg.ends_with(".scn"))
    return "scenarios/" + arg + ".scn";
  return arg;
}

int cmd_scenario(const Options& opt) {
  if (opt.positional.empty()) {
    std::fprintf(stderr, "usage: torsim scenario run|check|list [PACK]\n");
    return 1;
  }
  const std::string& sub = opt.positional.front();
  if (sub == "list") {
    const std::string dir =
        opt.positional.size() > 1 ? opt.positional[1] : "scenarios";
    for (const auto& name : scenario::list_packs(dir))
      std::printf("%s\n", name.c_str());
    return 0;
  }
  if (sub != "run" && sub != "check") {
    std::fprintf(stderr,
                 "error: unknown scenario subcommand '%s' "
                 "(expected run|check|list)\n",
                 sub.c_str());
    return 1;
  }
  if (opt.positional.size() < 2) {
    std::fprintf(stderr, "usage: torsim scenario %s PACK\n", sub.c_str());
    return 1;
  }
  const scenario::ScenarioPack pack =
      scenario::load_pack_file(resolve_pack_path(opt.positional[1]));
  if (sub == "check") {
    scenario::validate_pack(pack);
    if (!(scenario::parse_pack(scenario::render_pack(pack)) == pack)) {
      std::fprintf(stderr,
                   "error: pack '%s' does not round-trip through the "
                   "canonical renderer\n",
                   pack.name.c_str());
      return 1;
    }
    std::printf("pack '%s' OK: %zu events, horizon %d hours\n",
                pack.name.c_str(), pack.events.size(), pack.horizon_hours);
    return 0;
  }
  scenario::ScenarioRunConfig rc;
  rc.threads = opt.threads;
  rc.fault_override = opt.faults_spec;
  rc.metrics = opt.metrics;
  rc.trace = opt.trace;
  const auto report = scenario::run_pack(pack, rc);
  std::printf("%s\n", report.describe().c_str());
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    report.write_timeline(csv);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  return 0;
}

int cmd_geoip(const Options& opt) {
  if (opt.positional.empty()) {
    std::fprintf(stderr, "usage: torsim geoip IP [IP...]\n");
    return 1;
  }
  const auto db = geo::GeoDatabase::standard();
  for (const auto& text : opt.positional) {
    const auto ip = util::Ipv4::parse(text);
    const auto& country = db.lookup(ip);
    std::printf("%-16s %s (%s)\n", ip.to_string().c_str(),
                country.name.c_str(), country.code.c_str());
  }
  return 0;
}

tools::ServeParams serve_params(const Options& opt) {
  tools::ServeParams params;
  params.scale = opt.scale;
  params.seed = opt.seed;
  params.services = opt.services;
  params.warmup_hours = opt.hours;
  params.threads = opt.threads;
  params.faults = opt.faults;
  return params;
}

/// Reads a --script file whole; throws on open failure so script typos
/// fail like any other bad flag value.
std::string read_script_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::invalid_argument("cannot open script file '" + path + "'");
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0)
    text.append(buffer, n);
  std::fclose(f);
  return text;
}

/// The request stream `torsim load` and `torsim query` share: the
/// seeded default mix (or a parsed --script), plus the trailing
/// shutdown request when --shutdown is given — identical inputs are
/// what makes their CSVs byte-comparable.
std::vector<serve::Request> request_mix(const Options& opt,
                                        bool append_shutdown) {
  std::vector<serve::Request> mix =
      opt.script.empty()
          ? serve::default_request_mix(
                opt.seed, opt.requests,
                static_cast<std::uint64_t>(opt.services), opt.clients)
          : serve::parse_script(read_script_file(opt.script));
  if (append_shutdown) {
    serve::Request request;
    request.id = mix.size() + 1;
    request.kind = serve::QueryKind::kShutdown;
    mix.push_back(request);
  }
  return mix;
}

int cmd_serve(const Options& opt) {
  if (opt.socket.empty())
    throw std::invalid_argument("serve needs --socket PATH");
  serve::WorldSession session(
      tools::make_session_config(serve_params(opt), opt.metrics));
  serve::ServerConfig sc;
  sc.socket_path = opt.socket;
  sc.max_batch = opt.batch_max;
  sc.queue_capacity = opt.queue_cap;
  if (!opt.chaos_spec.empty()) sc.chaos = fault::FaultPlan::parse(opt.chaos_spec);
  obs::MetricsRegistry telemetry;
  sc.telemetry = &telemetry;
  serve::Server server(session, sc);
  server.start();
  std::printf("torsimd listening on %s (services %d, warmup %dh)\n",
              server.socket_path().c_str(), opt.services, opt.hours);
  std::fflush(stdout);
  server.run();
  std::printf("torsimd: event loop exited\n");
  if (!opt.telemetry_out.empty())
    return write_text_file(opt.telemetry_out, telemetry.to_json(),
                           "serve telemetry");
  return 0;
}

int cmd_load(const Options& opt) {
  if (opt.socket.empty())
    throw std::invalid_argument("load needs --socket PATH");
  serve::LoadConfig lc;
  lc.socket_path = opt.socket;
  lc.clients = opt.clients;
  lc.requests = opt.requests;
  lc.open_loop = opt.open_loop;
  lc.seed = opt.seed;
  lc.services = static_cast<std::uint64_t>(opt.services);
  lc.shutdown = opt.shutdown;
  if (!opt.script.empty())
    lc.script = serve::parse_script(read_script_file(opt.script));
  obs::MetricsRegistry telemetry;
  lc.telemetry = &telemetry;
  const serve::LoadResult result = serve::run_load(lc);
  std::int64_t ok = 0, errors = 0;
  for (const serve::Response& response : result.responses) {
    if (response.status == serve::Status::kOk) ++ok;
    else ++errors;
  }
  std::printf("load: %zu requests (%s loop), %lld ok, %lld errors, "
              "%lld retries, %lld reconnects\n",
              result.requests.size(), opt.open_loop ? "open" : "closed",
              static_cast<long long>(ok), static_cast<long long>(errors),
              static_cast<long long>(result.retries),
              static_cast<long long>(result.reconnects));
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    tools::write_result_csv(csv, result.requests, result.responses);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  if (!opt.telemetry_out.empty())
    return write_text_file(opt.telemetry_out, telemetry.to_json(),
                           "load telemetry");
  return 0;
}

int cmd_query(const Options& opt) {
  serve::WorldSession session(
      tools::make_session_config(serve_params(opt), opt.metrics));
  const std::vector<serve::Request> mix = request_mix(opt, opt.shutdown);
  // One request at a time: this is the serial reference the daemon's
  // batched execution must match byte-for-byte (docs/serving.md).
  std::vector<serve::Response> responses;
  responses.reserve(mix.size());
  for (const serve::Request& request : mix)
    responses.push_back(session.execute(request));
  std::int64_t ok = 0, errors = 0;
  for (const serve::Response& response : responses) {
    if (response.status == serve::Status::kOk) ++ok;
    else ++errors;
  }
  std::printf("query: %zu requests, %lld ok, %lld errors\n", mix.size(),
              static_cast<long long>(ok), static_cast<long long>(errors));
  if (!opt.csv.empty()) {
    util::CsvWriter csv(opt.csv);
    tools::write_result_csv(csv, mix, responses);
    std::printf("wrote %zu rows to %s\n", csv.rows_written(),
                opt.csv.c_str());
  }
  return 0;
}

int write_text_file(const std::string& path, const std::string& text,
                    const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s to %s\n", what, path.c_str());
  return 0;
}

/// The single source of truth for the command list. usage(), the
/// dispatcher, the unknown-command error, and --list-commands all walk
/// this table; the cli_help_lists_every_command smoke test walks
/// --list-commands, so adding a command here is the whole job.
struct Command {
  const char* name;
  int (*run)(const Options&);
  /// Whether bare (non-flag) operands are legal after the command name.
  bool takes_positional;
  const char* summary;
};

const Command kCommands[] = {
    {"scan", cmd_scan, false,
     "port-scan the synthetic landscape (Fig. 1)"},
    {"crawl", cmd_crawl, false,
     "crawl HTTP(S) destinations (Table I + certificates)"},
    {"classify", cmd_classify, false,
     "language + topic classification (Fig. 2)"},
    {"popularity", cmd_popularity, false,
     "request resolution and ranking (Table II)"},
    {"botnet", cmd_botnet, false, "Goldnet infrastructure inference"},
    {"harvest", cmd_harvest, false,
     "shadow-relay onion harvesting (Sec. II)"},
    {"trackdet", cmd_trackdet, false,
     "Silk Road tracking detection (Sec. VII)"},
    {"consensus", cmd_consensus, false,
     "dump a dir-spec consensus archive"},
    {"report", cmd_report, false,
     "full-pipeline measured-vs-paper markdown report"},
    {"scenario", cmd_scenario, true,
     "run|check|list longitudinal scenario packs (docs/scenarios.md)"},
    {"geoip", cmd_geoip, true, "look up synthetic GeoIP for addresses"},
    {"serve", cmd_serve, false,
     "warm-world query daemon on a unix socket (docs/serving.md)"},
    {"load", cmd_load, false,
     "closed/open-loop load generator against a serve socket"},
    {"query", cmd_query, false,
     "answer a request mix in-process (serve equivalence reference)"},
};

const Command* find_command(const std::string& name) {
  for (const Command& command : kCommands)
    if (name == command.name) return &command;
  return nullptr;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "torsim — Tor hidden-service landscape reproduction "
               "(Biryukov et al., ICDCS 2014)\n\n"
               "usage: torsim COMMAND [options]\n\ncommands:\n");
  for (const Command& command : kCommands)
    std::fprintf(out, "  %-11s %s\n", command.name, command.summary);
  std::fprintf(
      out,
      "\noptions: --scale S --seed N --csv FILE --out FILE --ips N "
      "--relays M --hours N --threads T --faults SPEC\n"
      "         --metrics-out FILE --trace-out FILE --log-level LEVEL\n"
      "  --threads T   fan-out workers (0 = one per hardware thread,\n"
      "                1 = serial; results are identical either way)\n"
      "  --faults SPEC inject connection/directory faults: a profile\n"
      "                (mild, moderate, severe) or k=v pairs, e.g.\n"
      "                drop=0.05,timeout=0.1,retries=4 — see\n"
      "                docs/fault-injection.md\n"
      "  --metrics-out FILE  deterministic metrics JSON (byte-identical\n"
      "                for every --threads value; docs/observability.md)\n"
      "  --trace-out FILE    sim-time Chrome trace_event JSON (open in\n"
      "                chrome://tracing or Perfetto)\n"
      "  --log-level LEVEL   debug|info|warn|error|off (default warn)\n"
      "\nserving options (serve/load/query; docs/serving.md):\n"
      "  --socket PATH --services N --clients N --requests N\n"
      "  --open-loop --shutdown --script FILE --batch-max N\n"
      "  --queue-cap N --chaos SPEC --telemetry-out FILE\n"
      "  (serve warms --services services for --hours hours; load and\n"
      "  query share one seeded request mix, so their --csv outputs are\n"
      "  byte-comparable — the serve equivalence gate)\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Global --help/-h anywhere on the line wins, exits 0, and prints to
  // stdout — so `torsim --help` and `torsim CMD --help` both work and
  // the per-command help smoke test can loop over every entry.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--list-commands") == 0) {
      for (const Command& command : kCommands)
        std::printf("%s\n", command.name);
      return 0;
    }
  }
  if (argc < 2) {
    usage(stderr);
    return 1;
  }
  const std::string command_name = argv[1];
  try {
    const Command* command = find_command(command_name);
    if (command == nullptr) {
      std::fprintf(stderr, "error: unknown command '%s'\n\n",
                   command_name.c_str());
      usage(stderr);
      return 1;
    }
    Options opt = parse_options(argc, argv, 2);
    // A stray bare word after a flags-only command is almost certainly
    // a typo'd flag value, so fail loudly instead of silently ignoring
    // it.
    if (!command->takes_positional && !opt.positional.empty())
      throw std::invalid_argument("unexpected argument '" +
                                  opt.positional.front() + "'");

    // Observability sinks live here so every command shares the same
    // export path; the registries outlive all components they observe.
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    if (!opt.metrics_out.empty()) opt.metrics = &metrics;
    if (!opt.trace_out.empty()) opt.trace = &trace;

    const int rc = command->run(opt);
    if (rc != 0) return rc;
    if (opt.metrics != nullptr &&
        write_text_file(opt.metrics_out, metrics.to_json(), "metrics") != 0)
      return 1;
    if (opt.trace != nullptr &&
        write_text_file(opt.trace_out, trace.chrome_json(), "trace") != 0)
      return 1;
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
