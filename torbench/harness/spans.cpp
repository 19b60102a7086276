#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace torbench {

Tracer::Span::Span(Tracer& tracer, std::string name, std::uint64_t request_id)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back({std::move(name), now_s(), 0.0, parent, request_id});
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end = now_s();
  tracer_.open_.pop_back();
}

int Tracer::record(std::string name, double start, double end, int parent,
                   std::uint64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start, end, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const SpanRecord& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

std::string Tracer::chrome_json() const {
  double origin = 0.0;
  if (!spans_.empty())
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.start < b.start;
                              })->start;
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const std::string module = span.name.substr(0, span.name.find('.'));
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request_id\":%llu}}",
                  i == 0 ? "" : ",\n", span.name.c_str(), module.c_str(),
                  (span.start - origin) * 1e6, (span.end - span.start) * 1e6,
                  i, span.parent,
                  static_cast<unsigned long long>(span.request_id));
    out += line;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace torbench
