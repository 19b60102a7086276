// Serving-path bench (docs/serving.md): google-benchmarks over the
// deterministic batcher core, the wire protocol, and the full daemon
// round trip, plus a closed-loop load pass against a real `torsim serve`
// event loop that records sustained requests/s and the latency
// histogram into the "serve" section of BENCH_serve.json
// (schema-checked by tools/check_bench_json.py).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace {

using namespace torsim;

constexpr int kServices = 16;
constexpr int kClients = 8;
constexpr int kRequests = 4000;

/// Smoke-scale session: the same relay mapping the CLIs use
/// (tools/serve_common.hpp), so --scale=0.05 in CI builds the same
/// world `torsim serve --scale 0.05` would.
serve::SessionConfig smoke_config(obs::MetricsRegistry* metrics) {
  serve::SessionConfig config;
  config.world.seed = 20130204;
  config.world.honest_relays =
      std::max(50, static_cast<int>(3000 * bench::scale()));
  config.world.metrics = metrics;
  config.services = kServices;
  config.warmup_hours = 2;
  config.threads = 0;  // hardware concurrency
  config.metrics = metrics;
  return config;
}

std::vector<serve::Request> bench_mix(int requests) {
  return serve::default_request_mix(20130204, requests, kServices, kClients);
}

/// Deterministic core only: the batcher executing the default mix
/// in-process (no socket, no framing).
void BM_SessionBatch(benchmark::State& state) {
  serve::WorldSession session(smoke_config(nullptr));
  const std::vector<serve::Request> mix = bench_mix(64);
  for (auto _ : state) {
    auto responses = session.execute_batch(mix);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mix.size()));
}

/// Wire protocol only: canonical render + strict parse round trip.
void BM_ProtoRoundTrip(benchmark::State& state) {
  const std::vector<serve::Request> mix = bench_mix(16);
  std::size_t i = 0;
  for (auto _ : state) {
    const serve::Request parsed =
        serve::parse_request(serve::render_request(mix[i++ % mix.size()]));
    benchmark::DoNotOptimize(parsed);
  }
}

/// Full daemon path, one closed-loop client: unix socket, framing,
/// admission, batch tick, response match.
void BM_SocketRoundTrip(benchmark::State& state) {
  serve::WorldSession session(smoke_config(nullptr));
  serve::ServerConfig edge;
  edge.socket_path = "/tmp/torsim_bench_serve_rt_" +
                     std::to_string(::getpid()) + ".sock";
  serve::Server server(session, edge);
  server.start();
  std::thread loop([&] { server.run(); });
  serve::Client client(edge.socket_path);
  client.connect();
  serve::Request request;
  request.kind = serve::QueryKind::kStats;
  for (auto _ : state) {
    ++request.id;
    benchmark::DoNotOptimize(client.call(request));
  }
  client.close();
  server.stop();
  loop.join();
  std::remove(edge.socket_path.c_str());
}

/// Upper edge of the bucket holding quantile `q` (the last edge for
/// the overflow bucket) — the histogram keeps no raw samples.
std::int64_t percentile_us(const obs::Histogram& histogram, double q) {
  const std::vector<std::int64_t> buckets = histogram.bucket_counts();
  const std::int64_t total = histogram.count();
  if (total == 0) return 0;
  const std::int64_t target = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(q * static_cast<double>(total) + 0.5));
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target)
      return i < histogram.edges().size() ? histogram.edges()[i]
                                          : histogram.edges().back();
  }
  return histogram.edges().back();
}

/// The record pass: a real daemon on a unix socket, the closed-loop
/// client fleet replaying the default mix, and the throughput/latency
/// summary into the rows and "serve" sections.
void record_load() {
  bench::print_header("serving throughput");

  std::unique_ptr<serve::WorldSession> session;
  {
    const auto timer = bench::report().phases().scope("serve/warmup");
    session = std::make_unique<serve::WorldSession>(
        smoke_config(&bench::report().metrics()));
  }

  serve::ServerConfig edge;
  edge.socket_path = "/tmp/torsim_bench_serve_" +
                     std::to_string(::getpid()) + ".sock";
  obs::MetricsRegistry telemetry;  // edge/load telemetry, never golden
  edge.telemetry = &telemetry;
  serve::Server server(*session, edge);
  server.start();
  std::thread loop([&] { server.run(); });

  serve::LoadConfig load;
  load.socket_path = edge.socket_path;
  load.clients = kClients;
  load.requests = kRequests;
  load.services = kServices;
  load.seed = 20130204;
  load.shutdown = true;  // ends the daemon loop after the run
  load.telemetry = &telemetry;

  serve::LoadResult result;
  double seconds = 0.0;
  try {
    const auto timer = bench::report().phases().scope("serve/load");
    const double t0 = obs::wall_clock_seconds();
    result = serve::run_load(load);
    seconds = obs::wall_clock_seconds() - t0;
  } catch (...) {
    server.stop();
    loop.join();
    std::remove(edge.socket_path.c_str());
    throw;
  }
  loop.join();
  std::remove(edge.socket_path.c_str());

  const obs::Histogram& latency =
      telemetry.histogram("load.latency_us", serve::latency_edges_us());
  const double rps =
      seconds > 0.0 ? static_cast<double>(result.responses.size()) / seconds
                    : 0.0;

  obs::ServeSummary summary;
  summary.clients = kClients;
  summary.threads = 0;  // hardware concurrency
  summary.requests = static_cast<std::int64_t>(result.responses.size());
  summary.retries = result.retries;
  summary.reconnects = result.reconnects;
  summary.seconds = seconds;
  summary.requests_per_second = rps;
  summary.latency_edges_us = latency.edges();
  summary.latency_buckets = latency.bucket_counts();
  summary.latency_count = latency.count();
  summary.latency_sum_us = latency.sum();
  summary.latency_p50_us = percentile_us(latency, 0.50);
  summary.latency_p90_us = percentile_us(latency, 0.90);
  summary.latency_p99_us = percentile_us(latency, 0.99);
  bench::report().set_serve_summary(summary);

  // No paper baseline for any of these (the paper never served its
  // simulator), so every ratio is n/a.
  bench::print_row("sustained requests/s", rps, 0);
  bench::print_row("p50 latency us",
                   static_cast<double>(summary.latency_p50_us), 0);
  bench::print_row("p99 latency us",
                   static_cast<double>(summary.latency_p99_us), 0);
  bench::print_row("retries", static_cast<double>(result.retries), 0);
  bench::print_row("reconnects", static_cast<double>(result.reconnects), 0);
}

}  // namespace

int main(int argc, char** argv) {
  torsim::bench::init("serve", &argc, argv);
  benchmark::RegisterBenchmark("BM_SessionBatch", BM_SessionBatch);
  benchmark::RegisterBenchmark("BM_ProtoRoundTrip", BM_ProtoRoundTrip);
  benchmark::RegisterBenchmark("BM_SocketRoundTrip", BM_SocketRoundTrip);
  torsim::bench::run_benchmarks();
  record_load();
  return torsim::bench::finish();
}
