// Wall-clock spans recorded by the harness around each public torsim call
// it makes. Spans stay in memory and are written as Chrome trace JSON
// when the run ends; a disabled tracer records nothing, so untraced runs
// pay one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace torbench {

struct SpanRecord {
  std::string name;  ///< "<module>.<call>", e.g. "scan.scan"
  double start = 0.0;  ///< seconds, harness clock
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at the root
  std::uint64_t request_id = 0;  ///< serve spans: the request they serve
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Turns recording on or off between spans (traced and untraced
  /// repetitions alternate inside one --trace run).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opened at construction under the innermost open span,
  /// closed at destruction.
  class Span {
   public:
    Span(Tracer& tracer, std::string name, std::uint64_t request_id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Records an already-timed span (serve requests, which the generator
  /// timestamps itself); returns its index for use as a parent, or -1
  /// when disabled.
  int record(std::string name, double start, double end, int parent,
             std::uint64_t request_id);

  /// Self time per span name: each span's duration minus the part its
  /// child spans cover, summed over spans of that name.
  std::map<std::string, double> self_seconds() const;

  /// Chrome trace_event JSON (complete "X" events, microseconds).
  std::string chrome_json() const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

}  // namespace torbench
