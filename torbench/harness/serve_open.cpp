// serve-open: an open-loop load generator against a running `torsim
// serve` daemon. Requests replay serve::default_request_mix on a fixed
// schedule over a few unix-socket connections; the generator never waits
// for a reply before sending the next request, and each request is timed
// from when it was due. Every response must be byte-identical to a
// serial WorldSession::execute replay of the same request in-process.
//
// The generator drives raw sockets with serve's public framing
// (encode_frame / render_request / FrameReader / parse_response) from
// one poll loop: serve::Client blocks in receive(), so it cannot send on
// schedule while replies are outstanding.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dirauth/ring_cache.hpp"
#include "serve/loadgen.hpp"
#include "serve/proto.hpp"
#include "serve/session.hpp"
#include "serve_common.hpp"

namespace torbench {
namespace {

using namespace torsim;

/// The latency limit the capacity ladder holds p99 to.
constexpr double kLatencyLimitUs = 1000.0;
/// A step whose generator ran later than this at p99 is invalid: the
/// latencies it saw partly measure the generator, not the daemon.
constexpr double kMaxGeneratorLagUs = 250.0;
/// Connections the schedule is spread over (independent users).
constexpr int kConnections = 4;

/// The daemon's shape; run.py starts `torsim serve` with the same values.
struct ServeShape {
  double scale;  ///< 3000 * scale honest relays
  int services;
  int warmup_hours;
};

ServeShape shape_for(const Args& args) {
  return args.smoke ? ServeShape{0.02, 50, 4} : ServeShape{0.43334, 1000, 24};
}

/// CPU seconds the daemon's threads have run, from the scheduler's
/// nanosecond accounting (/proc/PID/task/*/schedstat); 0 when unknown.
double daemon_cpu_s(int pid) {
  if (pid <= 0) return 0.0;
  double total = 0.0;
  std::error_code error;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
    std::ifstream in(task.path() / "schedstat");
    double ns = 0.0;
    if (in >> ns) total += ns * 1e-9;
  }
  return total;
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  serve::FrameReader reader;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("bad socket path '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + strerror(saved));
  }
  return fd;
}

/// One sent request, indexed by (id - 1).
struct Flight {
  double due = 0.0;
  double sent = 0.0;
  double answered = 0.0;
  std::size_t base = 0;  ///< index into the base mix
  bool refused = false;  ///< answered retry-after at least once
  bool done = false;
};

/// A rate step sends rate * seconds requests on a fixed schedule; a
/// burst (rate 0) makes `count` requests due at once.
struct Step {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  bool traced = false;
  std::size_t count = 0;
};

struct StepResult {
  std::vector<double> latency_us;
  std::vector<std::size_t> base;  ///< mix index of each latency sample
  std::vector<double> lag_us;
  std::int64_t sent = 0;
  std::int64_t refused = 0;
  std::int64_t retries = 0;
  std::int64_t backlog = 0;  ///< outstanding when the schedule ended
  std::int64_t mismatches = 0;
  double daemon_cpu_s = 0.0;  ///< daemon CPU while the step ran
  double drain_s = 0.0;       ///< first due time to last answer
  bool connection_lost = false;

  /// Folds another step at the same rate into this one.
  void merge(const StepResult& other) {
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    base.insert(base.end(), other.base.begin(), other.base.end());
    lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
    sent += other.sent;
    refused += other.refused;
    retries += other.retries;
    backlog = std::max(backlog, other.backlog);
    mismatches += other.mismatches;
    daemon_cpu_s += other.daemon_cpu_s;
    connection_lost = connection_lost || other.connection_lost;
  }

  double p50() const { return percentile(latency_us, 0.50); }
  double p99() const { return percentile(latency_us, 0.99); }
  double lag_p99() const { return percentile(lag_us, 0.99); }
  bool generator_valid() const { return lag_p99() <= kMaxGeneratorLagUs; }
  /// Meets the latency limit without a growing backlog: p99 within the
  /// limit counting refusals as misses, and what was outstanding when
  /// the schedule ended drains within the limit.
  bool meets_limit(double rate) const {
    const auto answered = static_cast<std::int64_t>(latency_us.size());
    std::int64_t misses = refused;
    for (const double us : latency_us) misses += us > kLatencyLimitUs ? 1 : 0;
    return answered > 0 && !connection_lost && misses * 100 <= answered &&
           static_cast<double>(backlog) <= rate * kLatencyLimitUs * 1e-6 + 8;
  }
};

class Generator {
 public:
  Generator(const std::string& socket, const std::vector<serve::Request>& mix,
            const std::vector<serve::Response>& expected, Tracer& tracer,
            bool inject_mismatch)
      : mix_(mix), expected_(expected), tracer_(tracer),
        inject_mismatch_(inject_mismatch) {
    for (int i = 0; i < kConnections; ++i) {
      conns_.emplace_back();
      conns_.back().fd = connect_unix(socket);
    }
  }
  ~Generator() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  StepResult run(const Step& step);

 private:
  void send_request(std::size_t seq, double now);
  bool flush(Conn& conn);
  bool drain(Conn& conn, StepResult& result, double now);

  const std::vector<serve::Request>& mix_;
  const std::vector<serve::Response>& expected_;
  Tracer& tracer_;
  bool inject_mismatch_;
  std::vector<Conn> conns_;
  std::vector<Flight> flights_;
  std::vector<std::pair<std::size_t, std::string>> bodies_;
  std::deque<std::pair<double, std::size_t>> resend_;
  std::int64_t outstanding_ = 0;
};

void Generator::send_request(std::size_t seq, double now) {
  serve::Request request = mix_[flights_[seq].base];
  request.id = seq + 1;
  request.client = seq % conns_.size();
  Conn& conn = conns_[request.client];
  conn.out += serve::encode_frame(serve::render_request(request));
  flights_[seq].sent = now;
}

bool Generator::flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
  return true;
}

bool Generator::drain(Conn& conn, StepResult& result, double now) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      conn.reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  std::string body;
  while (conn.reader.next_frame(body)) {
    const serve::Response response = serve::parse_response(body);
    if (response.id == 0 || response.id > flights_.size()) {
      ++result.mismatches;
      continue;
    }
    const std::size_t seq = response.id - 1;
    Flight& flight = flights_[seq];
    if (response.status == serve::Status::kRetryAfter) {
      if (!flight.refused) ++result.refused;
      flight.refused = true;
      ++result.retries;
      resend_.emplace_back(now + 1e-3, seq);
      continue;
    }
    flight.answered = now;
    flight.done = true;
    --outstanding_;
    bodies_.emplace_back(seq, std::move(body));
  }
  return true;
}

StepResult Generator::run(const Step& step) {
  StepResult result;
  const bool burst = step.rate <= 0;
  const std::size_t total =
      burst ? step.count
            : static_cast<std::size_t>(std::llround(step.rate * step.seconds));
  const std::size_t first = flights_.size();
  flights_.resize(first + total);
  for (std::size_t k = 0; k < total; ++k)
    flights_[first + k].base = (first + k) % mix_.size();
  bodies_.clear();
  std::vector<pollfd> fds(conns_.size());

  const double t_start = now_s() + 2e-3;
  const double t_end = t_start + (burst ? 0.0 : step.seconds);
  const auto due_at = [&](std::size_t k) {
    return burst ? t_start : t_start + static_cast<double>(k) / step.rate;
  };
  // Every request must be answered for the byte-identity check; an
  // overloaded ladder step gets time to drain its backlog.
  const double drain_deadline = t_end + 10.0;
  bool ended = false;
  std::size_t next = 0;
  for (;;) {
    double now = now_s();
    while (next < total && due_at(next) <= now) {
      const std::size_t seq = first + next;
      flights_[seq].due = due_at(next);
      send_request(seq, now);
      result.lag_us.push_back((now - flights_[seq].due) * 1e6);
      ++outstanding_;
      ++next;
    }
    while (!resend_.empty() && resend_.front().first <= now) {
      send_request(resend_.front().second, flights_[resend_.front().second].sent);
      resend_.pop_front();
    }
    for (Conn& conn : conns_)
      if (!flush(conn)) result.connection_lost = true;
    if (!ended && now >= t_end) {
      ended = true;
      result.backlog = outstanding_;
    }
    if (result.connection_lost) break;
    if (next == total && outstanding_ == 0) break;
    if (now > drain_deadline) break;

    // The generator polls without sleeping: waking from a sleep would add
    // its own scheduler latency to every send and every answer it times.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_pos < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const int ready = ::poll(fds.data(), fds.size(), 0);
    if (ready < 0 && errno != EINTR)
      throw std::runtime_error("poll: " + std::string(strerror(errno)));
    if (ready <= 0) continue;
    now = now_s();
    for (std::size_t i = 0; i < conns_.size(); ++i)
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !drain(conns_[i], result, now))
        result.connection_lost = true;
  }
  if (!ended) result.backlog = outstanding_;

  // Latency from due time; refused requests keep their original due.
  result.sent = static_cast<std::int64_t>(total);
  for (std::size_t k = 0; k < total; ++k) {
    const Flight& flight = flights_[first + k];
    if (!flight.done) continue;
    result.latency_us.push_back((flight.answered - flight.due) * 1e6);
    result.base.push_back(flight.base);
    result.drain_s = std::max(result.drain_s, flight.answered - t_start);
    if (step.traced && k % 8 == 0) {
      const std::uint64_t id = first + k + 1;
      const int request =
          tracer_.record("serve.request", flight.due, flight.answered, -1, id);
      tracer_.record("serve.generator_lag", flight.due, flight.sent, request,
                     id);
    }
  }
  // Byte-identity against the serial replay, outside the timed window.
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    const auto& [seq, body] = bodies_[i];
    serve::Response want = expected_[flights_[seq].base];
    want.id = seq + 1;
    std::string rendered = serve::render_response(want);
    if (inject_mismatch_ && i == 0) rendered += "#";
    if (rendered != body) ++result.mismatches;
  }
  // Requests that never got an answer count as mismatches too.
  for (std::size_t k = 0; k < total; ++k)
    if (!flights_[first + k].done) ++result.mismatches;
  return result;
}

}  // namespace

int run_serve_open(const Args& args, Tracer& tracer, Result& result) {
  if (args.socket.empty())
    throw std::invalid_argument("serve-open needs --socket PATH");
  const ServeShape shape = shape_for(args);

  // The serial reference: the daemon's world, built in-process.
  tools::ServeParams params;
  params.scale = shape.scale;
  params.seed = args.seed;
  params.services = shape.services;
  params.warmup_hours = shape.warmup_hours;
  params.threads = args.threads;
  dirauth::ResponsibleSetCache::reset_stats();
  std::optional<serve::WorldSession> session;
  {
    Tracer::Span span(tracer, "sim.build");
    session.emplace(tools::make_session_config(params, nullptr));
  }
  const util::CacheStats ring = dirauth::ResponsibleSetCache::stats();

  const int mix_size = args.smoke ? 512 : 8192;
  const std::vector<serve::Request> mix = serve::default_request_mix(
      args.seed, mix_size, static_cast<std::uint64_t>(shape.services),
      kConnections);
  std::vector<serve::Response> expected;
  std::vector<double> exec_us;
  expected.reserve(mix.size());
  for (const serve::Request& request : mix) {
    Tracer::Span span(tracer, "serve.session", request.id);
    const double t0 = now_s();
    expected.push_back(session->execute(request));
    exec_us.push_back((now_s() - t0) * 1e6);
    if (expected.back().status != serve::Status::kOk)
      result.fail("serial replay of request " + std::to_string(request.id) +
                  " was not ok");
  }

  // The schedule: two fixed rates, the capacity ladder, and bursts. The
  // 5k rate runs in six segments spread over the run and its p50 is the
  // median of theirs, so a passing burst of load on the host cannot
  // decide it alone. Each segment is followed by four bursts of requests
  // all due at once; the job is the median time to drain one. A busy
  // daemon never sleeps during a burst, so its drain time does not
  // depend on how fast the host wakes idle cores, which moves the
  // low-rate latencies by tens of percent from minute to minute.
  const double s = args.seconds;
  const double k = args.smoke ? 0.1 : 1.0;  // smoke runs at a tenth the rate
  const bool traced = tracer.enabled();
  const Step r5k_segment{"r5k", 5000 * k, 0.07 * s, traced};
  const Step burst{"burst", 0.0, 0.0, false, args.smoke ? 256u : 2048u};
  std::vector<Step> steps;
  const auto add_segment = [&] {
    steps.push_back(r5k_segment);
    for (int i = 0; i < 4; ++i) steps.push_back(burst);
  };
  add_segment();
  if (traced) steps.push_back({"r5k-untraced", 5000 * k, 0.07 * s, false});
  steps.push_back({"r20k", 20000 * k, 0.15 * s, false});
  const std::vector<double> ladder = {10000, 15000, 20000, 25000,
                                      30000, 40000, 50000};
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (i % 2 == 0) add_segment();
    steps.push_back({"ladder", ladder[i] * k, 0.04 * s, false});
  }

  Generator generator(args.socket, mix, expected, tracer, args.inject_mismatch);
  std::map<std::string, StepResult> fixed;
  std::map<std::string, std::vector<double>> segment_p50;
  double max_rps = 0.0;
  std::int64_t refused = 0, retries = 0, backlog_max = 0, mismatches = 0;
  std::int64_t invalid_steps = 0, lost_connections = 0;
  std::vector<double> lag_all, burst_ms;
  bool ladder_open = true;
  for (const Step& step : steps) {
    if (step.name == "ladder" && !ladder_open) continue;
    const double cpu0 = daemon_cpu_s(args.daemon_pid);
    StepResult r = generator.run(step);
    r.daemon_cpu_s = daemon_cpu_s(args.daemon_pid) - cpu0;
    result.attempted += r.sent;
    refused += r.refused;
    retries += r.retries;
    mismatches += r.mismatches;
    if (r.connection_lost) {
      ++lost_connections;
      result.fail("a connection to the daemon was lost");
    }
    usleep(50000);  // let the daemon settle between steps
    if (step.name == "burst") {
      burst_ms.push_back(r.drain_s * 1e3);
      continue;
    }
    backlog_max = std::max(backlog_max, r.backlog);
    lag_all.insert(lag_all.end(), r.lag_us.begin(), r.lag_us.end());
    char line[240];
    std::snprintf(line, sizeof line,
                  "serve-open %-12s rate %6.0f/s sent %6lld p50 %8.1f us p99 "
                  "%9.1f us backlog %5lld refused %lld lag_p99 %6.1f us%s",
                  step.name.c_str(), step.rate, static_cast<long long>(r.sent),
                  r.p50(), r.p99(), static_cast<long long>(r.backlog),
                  static_cast<long long>(r.refused), r.lag_p99(),
                  r.generator_valid() ? "" : " [invalid: generator late]");
    result.note(line);
    // A step the generator ran late on measured the generator too: it
    // ends the ladder, and a fixed-rate segment is left out of its rate.
    if (!r.generator_valid()) {
      ++invalid_steps;
      if (step.name == "ladder") ladder_open = false;
    } else if (step.name == "ladder") {
      if (r.meets_limit(step.rate)) max_rps = step.rate;
      else ladder_open = false;
    } else {
      segment_p50[step.name].push_back(r.p50());
      fixed[step.name].merge(r);
    }
  }
  result.note(samples_line("serve-open bursts of " +
                               std::to_string(burst.count) + ", drain (ms)",
                           burst_ms));
  if (mismatches > 0) {
    result.fail(std::to_string(mismatches) +
                " responses differ from the serial replay");
    result.failed = mismatches;
  }

  if (segment_p50["r5k"].empty())
    result.fail("the generator ran late in every 5k segment");
  const StepResult& r5k = fixed["r5k"];
  const StepResult& r20k = fixed["r20k"];
  const double r5k_p50 = median(segment_p50["r5k"]);
  result.end_to_end("job_p50_ms", median(burst_ms), "ms");
  result.layer("serve.burst_drain_ms", median(burst_ms), "ms");

  std::vector<double> edge;
  for (std::size_t i = 0; i < r5k.latency_us.size(); ++i)
    edge.push_back(r5k.latency_us[i] - exec_us[r5k.base[i]]);

  result.layer("serve.p50_us.r5k", r5k_p50, "us");
  result.layer("serve.daemon_cpu_us.r5k",
               ratio(r5k.daemon_cpu_s * 1e6, static_cast<double>(r5k.sent)),
               "us");
  result.layer("serve.p99_us.r5k", r5k.p99(), "us");
  result.layer("serve.samples.r5k", static_cast<double>(r5k.latency_us.size()),
               "count");
  result.layer("serve.p50_us.r20k", r20k.p50(), "us");
  result.layer("serve.p99_us.r20k", r20k.p99(), "us");
  result.layer("serve.samples.r20k",
               static_cast<double>(r20k.latency_us.size()), "count");
  result.layer("serve.max_rps", max_rps, "1/s");
  result.layer("serve.refused", static_cast<double>(refused), "count");
  result.layer("serve.retries", static_cast<double>(retries), "count");
  // The generator does not reconnect: a lost connection fails the run,
  // so this counts the connections that would have needed one.
  result.layer("serve.reconnects", static_cast<double>(lost_connections),
               "count");
  result.layer("serve.backlog", static_cast<double>(backlog_max), "count");
  result.layer("serve.generator_lag_us", percentile(lag_all, 0.99), "us");
  result.layer("serve.invalid_steps", static_cast<double>(invalid_steps),
               "count");
  result.layer("serve.edge_us", median(edge), "us");
  result.layer("dirauth.ring_cache_hit_ratio",
               ratio(static_cast<double>(ring.hits),
                     static_cast<double>(ring.lookups())),
               "ratio");
  result.layer("dirauth.ring_lookups", static_cast<double>(ring.lookups()),
               "count");
  result.layer("hsdir.descriptors_stored",
               static_cast<double>(
                   session->world().network_stats().descriptors_stored),
               "count");

  // In-process layer costs on the same mix.
  {
    double t0 = now_s();
    std::size_t probes = 0;
    for (int round = 0; round < 3; ++round)
      for (std::size_t i = 0; i < static_cast<std::size_t>(shape.services); ++i) {
        const sim::ResolveView view = session->world().resolve_view(i);
        probes += view.resolved[0] ? 1 : 0;
      }
    const double n = 3.0 * shape.services;
    result.layer("sim.resolve_view_us", (now_s() - t0) * 1e6 / n, "us");
    if (probes == 0) result.fail("no resident service resolves");

    t0 = now_s();
    for (const serve::Request& request : mix)
      if (!(serve::parse_request(serve::render_request(request)) == request))
        result.fail("request does not round-trip through the wire format");
    result.layer("serve.proto_ns",
                 (now_s() - t0) * 1e9 / static_cast<double>(mix.size()), "ns");

    // execute_batch, as the daemon's batcher calls it: whole mix in
    // batches of 256, then per query kind.
    const auto batch_us = [&](const std::vector<serve::Request>& requests) {
      if (requests.empty()) return 0.0;
      const double b0 = now_s();
      for (std::size_t at = 0; at < requests.size(); at += 256) {
        const std::size_t end = std::min(requests.size(), at + 256);
        session->execute_batch(std::vector<serve::Request>(
            requests.begin() + static_cast<std::ptrdiff_t>(at),
            requests.begin() + static_cast<std::ptrdiff_t>(end)));
      }
      return (now_s() - b0) * 1e6 / static_cast<double>(requests.size());
    };
    result.layer("serve.session_us", batch_us(mix), "us");
    for (const serve::QueryKind kind :
         {serve::QueryKind::kStats, serve::QueryKind::kHarvest,
          serve::QueryKind::kResolve, serve::QueryKind::kScan,
          serve::QueryKind::kPopularity}) {
      std::vector<serve::Request> of_kind;
      for (const serve::Request& request : mix)
        if (request.kind == kind) of_kind.push_back(request);
      result.layer("serve.session_us." + std::string(serve::query_kind_name(kind)),
                   batch_us(of_kind), "us");
    }
  }
  // The first traced 5k segment against the untraced one right after it.
  const auto untraced = fixed.find("r5k-untraced");
  result.layer("trace.overhead_ratio",
               untraced == fixed.end() || untraced->second.p50() <= 0 ||
                       segment_p50["r5k"].empty()
                   ? 0.0
                   : segment_p50["r5k"].front() / untraced->second.p50() - 1.0,
               "ratio");
  return 0;
}

}  // namespace torbench
