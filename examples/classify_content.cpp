// The Sec. III/IV measurement pipeline on a scaled-down landscape:
// generate a calibrated hidden-service population, port-scan it across
// several days, crawl the HTTP(S) destinations two months later, apply
// the paper's exclusion rules, and classify language + topic.
//
//   $ ./classify_content [scale]   (default 0.1 = ~4k services)
#include <cstdio>

#include "args.hpp"
#include "content/pipeline.hpp"
#include "scan/cert_analysis.hpp"
#include "scan/crawler.hpp"
#include "scan/port_scanner.hpp"
#include "stats/histogram.hpp"

int main(int argc, char** argv) {
  using namespace torsim;

  const double scale =
      examples::number_arg(argc, argv, 1, 0.1, 0.0, "[scale]");

  population::PopulationConfig pc;
  pc.seed = 404;
  pc.scale = scale;
  const auto pop = population::Population::generate(pc);
  std::printf("population: %zu services (%zu published)\n", pop.size(),
              pop.published_count());

  // --- Sec. III: the multi-day port scan -----------------------------
  scan::PortScanner scanner;
  const auto scan_report = scanner.scan(pop);
  std::printf("\nport scan: %lld open ports on %lld onions "
              "(coverage %.0f%%)\n",
              static_cast<long long>(scan_report.total_open_ports()),
              static_cast<long long>(scan_report.onions_with_open_ports),
              scan_report.coverage * 100);
  for (const auto& [label, count] : scan_report.figure1(
           static_cast<std::int64_t>(50 * scale)))
    std::printf("  %s\n",
                stats::bar_line(label, count,
                                scan_report.total_open_ports(), 40)
                    .c_str());

  const auto certs = scan::analyse_certificates(pop, scan_report);
  std::printf("\nHTTPS certificates: %lld seen, %lld self-signed CN "
              "mismatches (%lld TorHost), %lld leak public DNS names\n",
              static_cast<long long>(certs.certificates_seen),
              static_cast<long long>(certs.selfsigned_mismatch),
              static_cast<long long>(certs.torhost_cn),
              static_cast<long long>(certs.public_dns_cn));

  // --- Sec. IV: crawl + classify --------------------------------------
  scan::Crawler crawler;
  const auto crawl = crawler.crawl(pop, scan_report);
  std::printf("\ncrawl: %lld destinations, %lld connected over HTTP(S)\n",
              static_cast<long long>(crawl.destinations),
              static_cast<long long>(crawl.connected));

  util::Rng rng(405);
  const auto classifier = content::TopicClassifier::make_default(rng);
  content::ContentPipeline pipeline(classifier,
                                    content::LanguageDetector::instance());
  const auto result = pipeline.run(crawl.pages);

  std::printf("\nexclusions: %zu short (%zu SSH banners), %zu 443-dups, "
              "%zu error pages\n",
              result.excluded_short, result.excluded_ssh_banner,
              result.excluded_dup443, result.excluded_error);
  std::printf("classifiable: %zu; English %zu (%.0f%%); TorHost defaults "
              "%zu; classified %zu\n",
              result.classifiable, result.english,
              100.0 * result.language_shares()[0], result.torhost_default,
              result.classified);

  std::printf("\ntopic distribution:\n");
  const auto pct = result.topic_percentages();
  for (int i = 0; i < content::kNumTopics; ++i) {
    const auto name = content::topic_name(content::topic_from_index(i));
    std::printf("  %s\n",
                stats::bar_line(std::string(name),
                                static_cast<std::int64_t>(
                                    result.topic_counts[i]),
                                static_cast<std::int64_t>(result.classified),
                                36)
                    .c_str());
  }
  return result.classified > 0 ? 0 : 1;
}
