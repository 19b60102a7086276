// Shared plumbing of the benchmark harness: run arguments, the result
// record each workload fills, wall/CPU clocks, order statistics and the
// result digest. The harness prints one JSON record per run; run.py turns
// it into the benchmark's result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace torbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: the same code paths on inputs small enough for the
  /// self-test.
  bool smoke = false;
  /// Self-test hook: perturb one result so the correctness check fails.
  bool inject_mismatch = false;
  /// Fan-out width handed to every torsim component (fixed per run).
  int threads = 2;
  /// Batch workloads: repetitions made even when --seconds is spent
  /// (0 = the workload's default).
  int min_reps = 0;
  /// serve-open: the daemon's socket and process id.
  std::string socket;
  int daemon_pid = 0;
  /// Chrome trace destination for --trace runs.
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to run.py.
class Result {
 public:
  void end_to_end(const std::string& name, double value, std::string unit) {
    end_to_end_[name] = {value, std::move(unit)};
  }
  void layer(const std::string& name, double value, std::string unit) {
    layer_[name] = {value, std::move(unit)};
  }
  /// One repetition's output digest; every repetition of a run must
  /// agree, and run.py compares it with the recorded expectation.
  void digest(const std::string& hex) { digests_.push_back(hex); }
  /// A failed correctness check, in words.
  void fail(const std::string& why) {
    failures_.push_back(why);
    ++failed;
  }
  /// Lines printed for people before the JSON record.
  void note(const std::string& line) { notes_.push_back(line); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// The JSON record (one line).
  std::string to_json() const;
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> digests_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// Monotonic wall-clock seconds.
double now_s();
/// CPU seconds (user + system) used by this process so far.
double cpu_s();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// part / whole; 0 when whole is 0.
inline double ratio(double part, double whole) {
  return whole == 0 ? 0.0 : part / whole;
}
/// Median; 0 for an empty sample.
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
/// "<label>: v1 v2 ..." — the samples behind a median, for the notes.
std::string samples_line(const std::string& label,
                         const std::vector<double>& values);

/// FNV-1a accumulator for result digests.
class Digest {
 public:
  void add(const std::string& text);
  void add(std::int64_t value);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

int run_pipeline(const Args& args, Tracer& tracer, Result& result);
int run_harvest(const Args& args, Tracer& tracer, Result& result);
int run_serve_open(const Args& args, Tracer& tracer, Result& result);

}  // namespace torbench
