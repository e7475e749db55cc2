#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 msvbench/run.py --workload <rmi_lifecycle|fleet_serve|enclave_gc_storm>
                            --seed <n> --seconds <s> --trace <0|1>
                            [--p99-limit-us <us>]

The first call configures and builds msvbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/msvbench, or .bench_build/msvbench when
that variable is unset; later calls only rebuild what changed. Every call
runs the benchmark's self-tests before the workload. The workload's result
line -- one JSON object -- is the last line printed on stdout. Traced runs
write their spans under .bench_out/, and the self-tests their JSON
fixtures under .bench_out/selftest/, which this script parses back.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"msvbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, cwd=ROOT, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").is_file():
        r = run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, **quiet)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = run(["cmake", "--build", str(build_dir), "-j", "4", "--target",
             "msvbench", "msvbench_selftest"], BUILD_TIMEOUT_S, **quiet)
    if r.returncode != 0:
        fail("build failed")


# The inputs selftest.cc writes its JSON fixtures from.
FIXTURE_METRICS = {
    "latency_ms": (1.2034, "ms"),
    "setup_s": (0.1 + 0.2, "s"),
    "rmi.calls_per_transition": (1e-7, "ratio"),
    "big": (123456789012345.0, "count"),
    'esc"aped\\name\n': (0.0, "1/s"),
}
FIXTURE_SPANS = [
    {"id": 0, "parent": -1, "request": 7, "name": "outer", "host_begin_ns": 0,
     "host_end_ns": 100, "host_self_ns": 70, "sim_begin": 5, "sim_end": 50},
    {"id": 1, "parent": 0, "request": 7, "name": "inner", "host_begin_ns": 10,
     "host_end_ns": 40, "host_self_ns": 30, "sim_begin": 6, "sim_end": 20},
]


def check_json_fixtures(fixtures):
    """The JSON round trip: the result line and span file the C++ side
    wrote from fixed inputs must parse back to exactly those inputs."""
    try:
        result = json.loads((fixtures / "result.json").read_text())
        spans = json.loads((fixtures / "spans.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"self-test JSON fixtures do not parse: {e}")
    metrics = {name: (m["value"], m["unit"])
               for name, m in result.get("metrics", {}).items()}
    if (result.get("correct") is not True or result.get("attempted") != 1000
            or result.get("failed") != 3 or len(result) != 4
            or metrics != FIXTURE_METRICS):
        fail(f"self-test result line did not round-trip: {result}")
    if spans != {"spans": FIXTURE_SPANS}:
        fail(f"self-test span file did not round-trip: {spans}")


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "msvbench"
    build(build_dir)

    fixtures = ROOT / ".bench_out" / "selftest"
    fixtures.mkdir(parents=True, exist_ok=True)
    r = run([str(build_dir / "msvbench_selftest"), str(fixtures)],
            RUN_TIMEOUT_S, stdout=sys.stderr)
    if r.returncode != 0:
        fail("self-tests failed")
    check_json_fixtures(fixtures)

    r = run([str(build_dir / "msvbench"), *argv, "--out-dir",
             str(ROOT / ".bench_out")], RUN_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True)
    lines = r.stdout.rstrip("\n").split("\n")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
