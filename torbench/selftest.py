#!/usr/bin/env python3
"""Self-test of the torbench benchmark.

    python3 torbench/selftest.py

Run from the root of a torsim checkout. It runs every workload at smoke
size, untraced and traced, and asserts that each run passes its checks
and prints exactly the metrics BENCHMARK.json names, each with its unit.
It then asserts that an injected output mismatch fails the correctness
check of every workload, and that the benchmark refuses to run without
the torsim sources. Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "torbench",
                                                        "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            code, result = run(["--workload", workload, "--seed", str(SEED),
                                "--seconds", "1", "--trace", str(trace),
                                "--smoke"])
            where = "%s trace=%d" % (workload, trace)
            check(code == 0, "%s: exit code %d" % (where, code))
            if result is None:
                check(False, "%s: no JSON result line" % where)
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  "%s: result keys %s" % (where, sorted(result)))
            check(result.get("correct") is True, "%s: not correct" % where)
            check(isinstance(result.get("attempted"), int)
                  and result["attempted"] >= 1,
                  "%s: attempted %r" % (where, result.get("attempted")))
            metrics = result.get("metrics", {})
            check(set(metrics) == set(want),
                  "%s: metrics differ from BENCHMARK.json: missing %s, "
                  "extra %s" % (where, sorted(set(want) - set(metrics)),
                                sorted(set(metrics) - set(want))))
            for name, metric in metrics.items():
                check(metric.get("unit") == want.get(name),
                      "%s: %s has unit %r" % (where, name, metric.get("unit")))
                check(isinstance(metric.get("value"), (int, float)),
                      "%s: %s has no numeric value" % (where, name))
            print("ok: %s" % where)

        code, result = run(["--workload", workload, "--seed", str(SEED),
                            "--seconds", "1", "--trace", "0", "--smoke",
                            "--inject-mismatch"])
        check(code != 0, "%s: injected mismatch exited 0" % workload)
        check(result is None or result.get("correct") is False,
              "%s: injected mismatch reported correct" % workload)
        print("ok: %s rejects an injected mismatch" % workload)

    # Without the torsim sources the benchmark must fail without a result.
    bare = os.path.join(ROOT, ".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", workloads[0], "--seed", str(SEED),
                        "--seconds", "1", "--trace", "0"], cwd=bare)
    check(code != 0 and result is None,
          "a directory without torsim sources gave exit %d, result %r"
          % (code, result))
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the torsim sources")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
