// Sec. III HTTPS-certificate analysis: classify certificates seen on
// open TLS ports into self-signed/common-name-mismatch, the shared
// TorHost CN, and the deanonymising public-DNS common names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "population/population.hpp"
#include "scan/port_scanner.hpp"

namespace torsim::scan {

struct CertFinding {
  std::string onion;
  std::uint16_t port = 443;
  std::string common_name;
  bool self_signed = true;
  bool matches_requested_host = false;
  bool public_dns_cn = false;
};

struct CertReport {
  std::int64_t certificates_seen = 0;
  /// Self-signed certificates whose CN does not match the .onion host.
  std::int64_t selfsigned_mismatch = 0;
  /// Mismatching certs bearing the shared TorHost CN.
  std::int64_t torhost_cn = 0;
  /// Certificates whose CN is a public DNS name (deanonymising).
  std::int64_t public_dns_cn = 0;
  /// Certificates whose CN matches the requested onion address.
  std::int64_t matching_cn = 0;
  std::vector<CertFinding> deanonymising;  ///< the public-DNS cases
};

/// Inspects the certificate on every HTTPS observation in the scan;
/// `pop` must be the population `scan` was taken of.
CertReport analyse_certificates(const population::Population& pop,
                                const ScanReport& scan);

}  // namespace torsim::scan
