#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace torbench {
namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

void append_metrics(std::string& out, const std::map<std::string, Metric>& m) {
  out += "{";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(number, sizeof number, "%.9g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + number +
           ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  out += "}";
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"end_to_end\":";
  append_metrics(out, end_to_end_);
  out += ",\"per_layer\":";
  append_metrics(out, layer_);
  out += ",\"digests\":[";
  for (std::size_t i = 0; i < digests_.size(); ++i)
    out += (i == 0 ? "\"" : ",\"") + digests_[i] + "\"";
  out += "],\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    out += (i == 0 ? "\"" : ",\"") + json_escape(failures_[i]) + "\"";
  out += "]}";
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string samples_line(const std::string& label,
                         const std::vector<double>& values) {
  std::string out = label + ":";
  char number[32];
  for (const double value : values) {
    std::snprintf(number, sizeof number, " %.4f", value);
    out += number;
  }
  return out;
}

void Digest::add(const std::string& text) {
  for (const char c : text) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 1099511628211ULL;
}

void Digest::add(std::int64_t value) { add(std::to_string(value)); }

std::string Digest::hex() const {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h_));
  return out;
}

}  // namespace torbench
