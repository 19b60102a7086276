#!/usr/bin/env python3
"""torbench: the torsim end-to-end benchmark.

    python3 torbench/run.py --workload paper-pipeline|harvest-world|serve-open
                            --seed N --seconds S --trace 0|1

Run from the root of a torsim checkout. The first run builds the torsim
libraries, the torsim CLI and the benchmark harness into .bench_build/;
run files (the daemon socket, Chrome traces) go to .bench_run/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
lines before it name every metric the workload measured, for people.
The exit code is 0 only when every correctness check passed.

Extra options: --smoke runs the workload at a small size (the self-test
uses it); --inject-mismatch perturbs one result so that the correctness
check must fail; --record-expected SEEDS records result digests for
seeds such as 0-40 into expected.json.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
EXPECTED = os.path.join(HERE, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper-pipeline", "harvest-world", "serve-open")
# Fan-out width of every torsim component, daemon included; with the
# generator this fits the 4 cores the benchmark was sized on.
THREADS = 2
# Daemon set-ups per serve-open run; setup_s is their median.
SERVE_SETUPS = 9
# The serve-open daemon: 3000 * scale honest relays (1,300), resident
# services, warm-up hours. Must match ServeShape in harness/serve_open.cpp.
SERVE_SHAPE = {"full": ("0.43334", "1000", "24"), "smoke": ("0.02", "50", "4")}

# Per-layer metrics each workload measures itself. The others are layers
# the workload bypasses; they are reported as 0 on it.
MEASURED_LAYERS = {
    "paper-pipeline": [
        "population.generate_s", "population.services", "scan.scan_s",
        "scan.crawl_s", "scan.cert_s", "scan.onions_scanned",
        "scan.pages_fetched", "content.train_s", "content.classify_s",
        "content.classified_ratio", "popularity.requests_s",
        "popularity.dictionary_s", "popularity.resolve_s",
        "popularity.botnet_s", "popularity.resolved_id_ratio",
        "crypto.derivations", "crypto.derivation_hit_ratio",
        "trackdet.study_s", "bench.unattributed_s", "cpu_s",
        "parallel_efficiency", "trace.overhead_ratio", "error_rate"],
    "harvest-world": [
        "sim.build_s", "sim.step_hour_ms.p50", "sim.step_hour_ms.max",
        "attack.deploy_s", "attack.run_s", "attack.positions_used",
        "attack.coverage", "dirauth.ring_cache_hit_ratio",
        "dirauth.ring_lookups", "hsdir.descriptors_stored",
        "crypto.derivations", "crypto.derivation_hit_ratio",
        "bench.unattributed_s", "cpu_s", "parallel_efficiency",
        "trace.overhead_ratio", "error_rate"],
    "serve-open": [
        "serve.p50_us.r5k", "serve.p99_us.r5k", "serve.samples.r5k",
        "serve.daemon_cpu_us.r5k", "serve.burst_drain_ms",
        "serve.p50_us.r20k", "serve.p99_us.r20k", "serve.samples.r20k",
        "serve.max_rps", "serve.refused", "serve.retries",
        "serve.reconnects", "serve.backlog", "serve.generator_lag_us",
        "serve.invalid_steps", "serve.edge_us", "serve.proto_ns",
        "serve.session_us", "serve.session_us.stats",
        "serve.session_us.harvest", "serve.session_us.resolve",
        "serve.session_us.scan", "serve.session_us.popularity",
        "sim.resolve_view_us", "dirauth.ring_cache_hit_ratio",
        "dirauth.ring_lookups", "hsdir.descriptors_stored",
        "cpu_s", "parallel_efficiency", "trace.overhead_ratio",
        "error_rate"],
}

# The paper-facing names of the end-to-end quantities, printed on the
# human-readable lines: (name, source metric, scale, unit).
PAPER_NAMES = {
    "paper-pipeline": [("pipeline_s", "job_p50_ms", 1e-3, "s")],
    "harvest-world": [("harvest_s", "job_p50_ms", 1e-3, "s")],
    "serve-open": [
        ("serve_p50_us.r5k", "serve.p50_us.r5k", 1, "us"),
        ("serve_p99_us.r5k", "serve.p99_us.r5k", 1, "us"),
        ("serve_p50_us.r20k", "serve.p50_us.r20k", 1, "us"),
        ("serve_p99_us.r20k", "serve.p99_us.r20k", 1, "us"),
        ("serve_max_rps", "serve.max_rps", 1, "1/s")],
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the harness and the torsim CLI; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no torsim sources under %s; run from the root of "
                         "a torsim checkout" % ROOT)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env=env,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
                    "--target", "torbench_harness", "torsim_cli"], env=env,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(BUILD, "torbench_harness"),
            os.path.join(BUILD, "torsim"))


def pinned_to(cpus):
    """Popen preexec_fn that pins the child to `cpus` (None: no pinning)."""
    if not cpus:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_harness(harness, args, extra, cwd=None, cpus=None):
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(THREADS)] + extra
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            RUN_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=170, preexec_fn=pinned_to(cpus))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("harness exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


# --- serve-open: the daemon under test ---------------------------------

def proc_status_kb(pid, field):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError("no %s for pid %d" % (field, pid))


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """One `torsim serve` process on a unix socket in RUN_DIR."""

    def __init__(self, torsim, seed, size, socket_name, cpus):
        scale, services, hours = SERVE_SHAPE[size]
        self.socket = socket_name
        path = os.path.join(RUN_DIR, socket_name)
        if os.path.exists(path):
            os.unlink(path)
        cmd = [torsim, "serve", "--socket", socket_name, "--scale", scale,
               "--services", services, "--hours", hours, "--threads",
               str(THREADS), "--seed", str(seed), "--queue-cap", "4096",
               "--log-level", "off"]
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=RUN_DIR, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True,
                                     preexec_fn=pinned_to(cpus))
        try:
            self._await_listening(start + 120)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.monotonic() - start

    def _await_listening(self, deadline):
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("daemon did not start listening in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("daemon exited before listening (code %s)"
                                 % self.proc.wait())
            if "listening on" in line:
                return

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        path = os.path.join(RUN_DIR, self.socket)
        if os.path.exists(path):
            os.unlink(path)


def run_serve_open(harness, torsim, args):
    size = "smoke" if args.smoke else "full"
    # The daemon and the generator get disjoint CPUs, so the scheduler
    # cannot place them differently from one run to the next.
    cpus = sorted(os.sched_getaffinity(0))
    half = len(cpus) // 2
    daemon_cpus, generator_cpus = set(cpus[:half]), set(cpus[half:])
    setups = []
    daemon = None
    try:
        for i in range(SERVE_SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(torsim, args.seed, size, "serve-%d.sock" % i,
                            daemon_cpus)
            setups.append(daemon.ready_s)
        print("serve-open daemon set-ups (s): %s"
              % " ".join("%.4f" % s for s in setups))
        pid = daemon.proc.pid
        cpu0, t0 = proc_cpu_s(pid), time.monotonic()
        record = run_harness(harness, args, ["--socket", daemon.socket,
                                           "--daemon-pid", str(pid)],
                            cwd=RUN_DIR, cpus=generator_cpus)
        wall = time.monotonic() - t0
        cpu = proc_cpu_s(pid) - cpu0
        peak_mb = proc_status_kb(pid, "VmHWM") / 1024.0
        if daemon.proc.poll() is not None:
            raise BenchError("daemon died during the load")
    finally:
        if daemon is not None:
            daemon.stop()
    record["end_to_end"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s"}
    record["end_to_end"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    record["per_layer"]["cpu_s"] = {"value": cpu, "unit": "s"}
    record["per_layer"]["parallel_efficiency"] = {
        "value": cpu / (wall * THREADS), "unit": "ratio"}
    return record


# --- correctness --------------------------------------------------------

def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def check_digests(args, record):
    """Failures of the recorded-expectation check, as messages."""
    digests = record["digests"]
    if args.workload == "serve-open":
        return []
    if not digests:
        return ["no repetition produced a result digest"]
    size = "smoke" if args.smoke else "full"
    want = load_expected().get(args.workload, {}).get(size, {}).get(
        str(args.seed))
    if want is None:
        print("%s: no recorded digest for seed %d; checked that every "
              "repetition agrees" % (args.workload, args.seed))
        return []
    return ["repetition digest %s != recorded %s" % (d, want)
            for d in digests if d != want]


def record_expected(harness, seeds, smoke):
    expected = load_expected()
    size = "smoke" if smoke else "full"
    for workload in ("paper-pipeline", "harvest-world"):
        table = expected.setdefault(workload, {}).setdefault(size, {})
        for seed in seeds:
            cmd = [harness, "--workload", workload, "--seed", str(seed),
                   "--seconds", "0", "--trace", "0", "--threads",
                   str(THREADS), "--min-reps", "1"]
            if smoke:
                cmd.append("--smoke")
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            record = json.loads(out.strip().splitlines()[-1])
            if record["failures"] or len(set(record["digests"])) != 1:
                raise BenchError("seed %d of %s failed its checks"
                                 % (seed, workload))
            table[str(seed)] = record["digests"][0]
            log("%s %s seed %d: %s" % (workload, size, seed,
                                       table[str(seed)]))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


# --- result line ----------------------------------------------------------

def spec_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-mismatch", action="store_true")
    parser.add_argument("--record-expected", metavar="SEEDS")
    args = parser.parse_args()

    try:
        harness, torsim = build()
        os.makedirs(RUN_DIR, exist_ok=True)
        if args.record_expected:
            record_expected(harness, parse_seeds(args.record_expected),
                            args.smoke)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        wanted = spec_metrics(args.trace)
        if args.workload == "serve-open":
            record = run_serve_open(harness, torsim, args)
        else:
            record = run_harness(harness, args, [])
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as error:
        log("torbench: %s" % error)
        return 2

    failures = record["failures"] + check_digests(args, record)
    attempted = max(1, record["attempted"])
    failed = min(attempted, max(record["failed"], len(failures)))
    record["per_layer"]["error_rate"] = {
        "value": failed / attempted, "unit": "ratio"}

    measured = dict(record["end_to_end"])
    measured.update(record["per_layer"])
    own = set(MEASURED_LAYERS[args.workload]) if args.trace else set()
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name in measured:
            value = measured[name]["value"]
        elif name in own:
            failures.append("the harness did not report %s" % name)
            continue
        elif args.trace:
            value = 0  # a layer this workload bypasses
        else:
            failures.append("the harness did not report %s" % name)
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}

    for name, source, scale, unit in PAPER_NAMES[args.workload]:
        if source in measured:
            print("metric %s %.6g %s" % (name, measured[source]["value"] * scale,
                                         unit))
    for name in sorted(measured):
        print("metric %s %.6g %s" % (name, measured[name]["value"],
                                     measured[name]["unit"]))
    for failure in failures:
        print("FAILED: %s" % failure)

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
