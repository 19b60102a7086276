// torbench_harness: runs one benchmark workload against the torsim
// libraries and prints human-readable notes followed by one JSON record
// (metrics, digests, failures). run.py builds and invokes it.
//
//   torbench_harness --workload paper-pipeline|harvest-world|serve-open
//                   --seed N --seconds S --trace 0|1 [--smoke]
//                   [--inject-mismatch] [--threads T] [--min-reps N]
//                   [--socket PATH] [--daemon-pid PID] [--trace-out FILE]
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/logging.hpp"

namespace {

torbench::Args parse_args(int argc, char** argv) {
  torbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") args.workload = next();
    else if (arg == "--seed") args.seed = std::stoull(next());
    else if (arg == "--seconds") args.seconds = std::stod(next());
    else if (arg == "--trace") args.trace = next() != "0";
    else if (arg == "--smoke") args.smoke = true;
    else if (arg == "--inject-mismatch") args.inject_mismatch = true;
    else if (arg == "--threads") args.threads = std::stoi(next());
    else if (arg == "--min-reps") args.min_reps = std::stoi(next());
    else if (arg == "--socket") args.socket = next();
    else if (arg == "--daemon-pid") args.daemon_pid = std::stoi(next());
    else if (arg == "--trace-out") args.trace_out = next();
    else throw std::invalid_argument("unknown option " + arg);
  }
  if (args.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const torbench::Args args = parse_args(argc, argv);
    torsim::util::set_log_level(torsim::util::LogLevel::kOff);
    torbench::Tracer tracer(args.trace);
    torbench::Result result;
    if (args.workload == "paper-pipeline")
      torbench::run_pipeline(args, tracer, result);
    else if (args.workload == "harvest-world")
      torbench::run_harvest(args, tracer, result);
    else if (args.workload == "serve-open")
      torbench::run_serve_open(args, tracer, result);
    else
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    if (args.trace && !args.trace_out.empty()) {
      std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
      if (f == nullptr)
        throw std::runtime_error("cannot write " + args.trace_out);
      std::fputs(tracer.chrome_json().c_str(), f);
      std::fclose(f);
    }
    for (const std::string& note : result.notes())
      std::printf("%s\n", note.c_str());
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "torbench_harness: %s\n", error.what());
    return 2;
  }
}
