// torsimd — the standalone warm-world serving daemon. Equivalent to
// `torsim serve` (both funnel through tools/serve_common.hpp, so the
// resident world they build is identical); exists so deployments and
// the CI serve-smoke job have a single-purpose binary with a small
// flag surface. Protocol and determinism contract: docs/serving.md.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve_common.hpp"
#include "util/logging.hpp"

namespace {

using namespace torsim;

struct DaemonOptions {
  std::string socket;
  tools::ServeParams params{};
  int batch_max = 256;
  int queue_cap = 1024;
  std::string chaos_spec;
  std::string metrics_out;
  std::string telemetry_out;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "torsimd — torsim warm-world query daemon (docs/serving.md)\n\n"
      "usage: torsimd --socket PATH [options]\n\n"
      "  --socket PATH       unix-domain socket to listen on (required)\n"
      "  --scale S           world scale (default 0.1; relays = 3000*S)\n"
      "  --seed N            world seed (default 20130204)\n"
      "  --services N        resident hidden services (default 16)\n"
      "  --hours N           warmup hours before serving (default 6)\n"
      "  --threads T         batch fan-out width (0 = hardware threads)\n"
      "  --faults SPEC       world-side fault plan (docs/fault-injection.md)\n"
      "  --chaos SPEC        connection-level chaos at the socket edge\n"
      "  --batch-max N       requests executed per tick (default 256)\n"
      "  --queue-cap N       admission-control queue bound (default 1024)\n"
      "  --metrics-out FILE  deterministic session metrics JSON at exit\n"
      "  --telemetry-out FILE  scheduling-dependent edge telemetry JSON\n"
      "  --log-level LEVEL   debug|info|warn|error|off (default warn)\n");
}

util::LogLevel parse_log_level(const std::string& text) {
  if (text == "debug") return util::LogLevel::kDebug;
  if (text == "info") return util::LogLevel::kInfo;
  if (text == "warn") return util::LogLevel::kWarn;
  if (text == "error") return util::LogLevel::kError;
  if (text == "off") return util::LogLevel::kOff;
  throw std::invalid_argument("unknown log level '" + text +
                              "' (expected debug|info|warn|error|off)");
}

DaemonOptions parse_options(int argc, char** argv) {
  DaemonOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--socket") opt.socket = next();
    else if (arg == "--scale") opt.params.scale = std::stod(next());
    else if (arg == "--seed") opt.params.seed = std::stoull(next());
    else if (arg == "--services") opt.params.services = std::stoi(next());
    else if (arg == "--hours") opt.params.warmup_hours = std::stoi(next());
    else if (arg == "--threads") opt.params.threads = std::stoi(next());
    else if (arg == "--faults")
      opt.params.faults = fault::FaultPlan::parse(next());
    else if (arg == "--chaos") opt.chaos_spec = next();
    else if (arg == "--batch-max") opt.batch_max = std::stoi(next());
    else if (arg == "--queue-cap") opt.queue_cap = std::stoi(next());
    else if (arg == "--metrics-out") opt.metrics_out = next();
    else if (arg == "--telemetry-out") opt.telemetry_out = next();
    else if (arg == "--log-level") util::set_log_level(parse_log_level(next()));
    else throw std::invalid_argument("unknown option " + arg);
  }
  return opt;
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

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
  }
  try {
    const DaemonOptions opt = parse_options(argc, argv);
    if (opt.socket.empty()) {
      std::fprintf(stderr, "error: torsimd needs --socket PATH\n\n");
      usage(stderr);
      return 1;
    }
    obs::MetricsRegistry metrics;
    obs::MetricsRegistry telemetry;
    serve::WorldSession session(tools::make_session_config(
        opt.params, opt.metrics_out.empty() ? nullptr : &metrics));
    serve::ServerConfig sc;
    sc.socket_path = opt.socket;
    sc.max_batch = opt.batch_max;
    sc.queue_capacity = opt.queue_cap;
    if (!opt.chaos_spec.empty())
      sc.chaos = fault::FaultPlan::parse(opt.chaos_spec);
    sc.telemetry = &telemetry;
    serve::Server server(session, sc);
    server.start();
    std::printf("torsimd listening on %s (services %d, warmup %dh)\n",
                server.socket_path().c_str(), opt.params.services,
                opt.params.warmup_hours);
    std::fflush(stdout);
    server.run();
    std::printf("torsimd: event loop exited\n");
    if (!opt.metrics_out.empty() &&
        write_text_file(opt.metrics_out, metrics.to_json(), "metrics") != 0)
      return 1;
    if (!opt.telemetry_out.empty() &&
        write_text_file(opt.telemetry_out, telemetry.to_json(),
                        "telemetry") != 0)
      return 1;
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
