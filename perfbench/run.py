#!/usr/bin/env python3
"""Build and run one workload of the bdrmap benchmark.

Run from the root of a bdrmap checkout:

    python3 perfbench/run.py --workload map-build --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune into .bench_build/dune
(first run only; later runs reuse the build), runs the workload, and
re-prints its output. The last line of standard output is the result:
one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero, without a result, when the build, the run or the
result line fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(".bench_build", exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "--cache", "disabled",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def cleanup(pid):
    shutil.rmtree(os.path.join(".bench_build", "run-%d" % pid),
                  ignore_errors=True)


def cpu_times():
    """Jiffies on the aggregate cpu line of /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_line(before, after):
    """An information line with the share of CPU time the hypervisor
    gave to other guests during the run (the steal column), which moves
    every timing this benchmark takes on a shared host."""
    if before is None or after is None:
        return None
    d = [b - a for a, b in zip(before, after)]
    total = sum(d)
    if total <= 0:
        return None
    return "# cpu steal %.1f%% of the run's CPU time" % (100.0 * d[7] / total)


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a bdrmap checkout "
             "(dune-project and lib/ not found)")
    build()
    # nproc: the CPUs this process may run on, which bounds the pool.
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--domains", str(len(os.sched_getaffinity(0)))]
    cpu0 = cpu_times()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        cleanup(child.pid)
        fail("run timed out", 3)
    # The run removes its scratch directory itself, unless it was killed.
    cleanup(child.pid)
    steal = steal_line(cpu0, cpu_times())
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(out)
        fail("run exited with code %d" % child.returncode, 3)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("no result line", 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 3)
    declared = declared_metrics(a.trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if declared is not None and got != declared:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(declared.items())), 3)
    print("\n".join(lines[:-1]))
    if steal is not None:
        print(steal)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
