#!/usr/bin/env python3
"""GoAT benchmark runner: build perfbench, measure set-up, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 25 --trace 0

Builds the perfbench program from the repository's sources into
.bench_build/ (Go build cache included, so nothing is read or written
outside the checkout), then:

  --trace 0  spawns the program SETUP_RUNS times in set-up-only mode and
             once for the timed run, and prints every end-to-end metric;
  --trace 1  runs the traced mode, which prints every per-layer metric
             and writes its spans to .bench_build/spans/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a
result, when the repository sources are missing or the build fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("table4", "service-mix", "native-ingest", "dpor-mix")

# Set-up is timed in this many set-up-only processes plus the timed run's
# own, and reported as their median: set-up takes a few milliseconds of
# CPU, and one sample of it is noisy.
SETUP_RUNS = 11
# Every process this script starts must end within this many seconds of
# the measured phase starting (the build has its own, longer limit).
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    for need in ("go.mod", "internal", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found next to perfbench/: run from a full checkout" % need)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        p = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           capture_output=True, text=True, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        die("build failed:\n" + p.stdout + p.stderr)


def spawn(args, deadline):
    """Runs the program once; returns its stdout lines and last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time before %s" % " ".join(args))
    try:
        p = subprocess.run([BINARY, "-data", os.path.join(HERE, "data")] + args, cwd=HERE,
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s did not finish in time" % " ".join(args))
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("%s exited %d" % (" ".join(args), p.returncode))
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        die("unparsable result line: %r" % lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["-workload", a.workload, "-seed", str(a.seed)]
    setups = []
    if not a.trace:
        for _ in range(SETUP_RUNS):
            _, res = spawn(common + ["-setup-only"], deadline)
            setups.append(res["ready_cpu_s"])
    args = common + ["-seconds", str(a.seconds), "-trace", str(a.trace)]
    if a.trace:
        args += ["-spans", os.path.join(BUILD, "spans")]
    lines, res = spawn(args, deadline)
    metrics = dict(res["metrics"])
    if not a.trace:
        setups.append(res["ready_cpu_s"])
        metrics["setup_s"] = statistics.median(setups)
        lines.append("setup: median %.6f s of %d set-ups (%s)" % (
            metrics["setup_s"], len(setups), ", ".join("%.4f" % s for s in setups)))
    if set(metrics) != set(units):
        die("metric set mismatch: got %s, want %s" % (sorted(metrics), sorted(units)))

    for line in lines:
        print(line)
    for m in wanted:
        print("%-28s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": bool(res["correct"]) and res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in (m["name"] for m in wanted)},
    }))


if __name__ == "__main__":
    main()
