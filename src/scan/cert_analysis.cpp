#include "scan/cert_analysis.hpp"

#include "content/corpus.hpp"

namespace torsim::scan {

CertReport analyse_certificates(const population::Population& pop,
                                const ScanReport& scan) {
  CertReport report;
  for (const PortObservation& obs : scan.observations) {
    if (obs.result != net::ConnectResult::kOpen) continue;
    const net::PortService* ps =
        pop.service(obs.service).profile().service_at(obs.port);
    if (ps == nullptr || !ps->certificate) continue;
    const net::TlsCertificate& cert = *ps->certificate;
    ++report.certificates_seen;

    if (cert.matches_requested_host) {
      ++report.matching_cn;
      continue;
    }
    if (cert.common_name_is_public_dns()) {
      ++report.public_dns_cn;
      CertFinding finding;
      finding.onion = pop.onion(obs.service);
      finding.port = obs.port;
      finding.common_name = cert.common_name;
      finding.self_signed = cert.self_signed;
      finding.matches_requested_host = false;
      finding.public_dns_cn = true;
      report.deanonymising.push_back(std::move(finding));
      continue;
    }
    if (cert.self_signed) {
      ++report.selfsigned_mismatch;
      if (cert.common_name == content::kTorHostCertCn) ++report.torhost_cn;
    }
  }
  return report;
}

}  // namespace torsim::scan
