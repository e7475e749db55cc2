#!/usr/bin/env python3
"""Pytest-style checks for tools/bench_diff.py (run in CI by tier1.sh).

Each ``test_*`` function exercises one exit-protocol contract of the
perf-regression gate by invoking bench_diff.py as a subprocess on
synthetic report pairs:

  * identical runs pass (exit 0),
  * any changed simulated metric fails (exit 1), even inside the bands,
  * host-time metrics (``calls_per_sec_*``, ``*wall_ms``) are exempt,
  * a baseline metric missing from the candidate fails (exit 1), while
    candidate-only keys are informational,
  * a throughput drop / p99 rise past tolerance fails (exit 1),
  * a scale-key mismatch skips the gate (exit 0 with a notice),
  * an EMPTY metric-key intersection is a hard failure (exit 1) that
    names the keys on both sides — the regression this file pins is the
    old behaviour where a renamed scale key silently skipped *all*
    metrics and the gate rotted into a no-op,
  * malformed input exits 2.

Runs under pytest if available, but needs nothing beyond the standard
library: executing the file directly runs every test_* function and
exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def run_diff(base_doc, cand_doc, *extra):
    """Writes both docs to temp files and runs bench_diff.py on them."""
    with tempfile.TemporaryDirectory() as d:
        base = os.path.join(d, "base.json")
        cand = os.path.join(d, "cand.json")
        for path, doc in ((base, base_doc), (cand, cand_doc)):
            with open(path, "w", encoding="utf-8") as f:
                if isinstance(doc, str):
                    f.write(doc)
                else:
                    json.dump(doc, f)
        return subprocess.run(
            [sys.executable, BENCH_DIFF, base, cand, *extra],
            capture_output=True, text=True)


def report(metrics, name="stress"):
    return {"benchmark": name, "tables": {}, "metrics": metrics}


def test_identical_runs_pass():
    r = run_diff(report({"a_throughput_rps": 100.0, "a_p99_us": 50.0,
                         "a_final_clock_cycles": 123456789}),
                 report({"a_throughput_rps": 100.0, "a_p99_us": 50.0,
                         "a_final_clock_cycles": 123456789}))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "OK" in r.stdout


def test_change_within_bands_fails_exact_gate():
    # The bands used to absorb this; simulated numbers are exact now.
    r = run_diff(report({"a_throughput_rps": 100.0, "a_p99_us": 50.0}),
                 report({"a_throughput_rps": 95.0, "a_p99_us": 55.0}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "a_throughput_rps" in r.stdout and "a_p99_us" in r.stdout


def test_counter_drift_fails():
    # The drift that used to pass unseen: one counter off by one.
    r = run_diff(report({"storm_failed": 3, "storm_completed": 666}),
                 report({"storm_failed": 4, "storm_completed": 666}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "storm_failed" in r.stdout
    assert "storm_completed" not in r.stdout


def test_host_time_keys_are_exempt():
    r = run_diff(report({"calls_per_sec_transition_primitive": 3.1e6,
                         "wall_ms": 12.0, "lint_wall_ms": 3.0,
                         "invocations": 4096}),
                 report({"calls_per_sec_transition_primitive": 1.2e6,
                         "wall_ms": 40.0, "lint_wall_ms": 9.0,
                         "invocations": 4096}))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "3 host-time skipped" in r.stdout


def test_host_time_rule_is_by_name_only():
    # A key that merely mentions "wall" or "per_sec" elsewhere is gated.
    r = run_diff(report({"wall_ms_budget": 10, "ops_per_sec": 5}),
                 report({"wall_ms_budget": 11, "ops_per_sec": 5}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "wall_ms_budget" in r.stdout


def test_missing_baseline_key_fails():
    r = run_diff(report({"a_cycles": 10, "b_cycles": 20}),
                 report({"a_cycles": 10}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "b_cycles: missing from the candidate" in r.stdout


def test_candidate_only_keys_are_informational():
    # A baseline may pin a subset (BENCH_health.json vs the fleet run).
    r = run_diff(report({"a_cycles": 10}),
                 report({"a_cycles": 10, "new_cycles": 5}))
    assert r.returncode == 0, r.stdout + r.stderr


def test_throughput_regression_fails():
    r = run_diff(report({"a_throughput_rps": 100.0}),
                 report({"a_throughput_rps": 80.0}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "a_throughput_rps" in r.stdout


def test_p99_regression_fails():
    r = run_diff(report({"a_p99_cycles": 1000.0}),
                 report({"a_p99_cycles": 1500.0}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "a_p99_cycles" in r.stdout


def test_scale_key_mismatch_skips():
    # Same metric keys, different workload scale: smoke vs full runs are
    # not comparable, and the gate says so without crying wolf.
    r = run_diff(report({"requests": 100, "a_throughput_rps": 100.0}),
                 report({"requests": 10, "a_throughput_rps": 10.0}))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "not comparable" in r.stdout


def test_every_scale_key_is_known():
    # The pairs tier-1 used to compare across scales (fig_faults,
    # abl_rmi_batch, abl_partition) are caught by their own scale keys.
    for key in ("requests_per_tenant", "invocations", "n_classes",
                "requests", "tenants", "iterations", "ops", "calls"):
        r = run_diff(report({key: 1200, "x_cycles": 9}),
                     report({key: 320, "x_cycles": 3}))
        assert r.returncode == 0, key + ": " + r.stdout + r.stderr
        assert f"scale key '{key}'" in r.stdout, key


def test_empty_intersection_is_a_hard_failure():
    # The pinned regression: baseline predates a key rename, so the
    # intersection is empty. The old gate printed "nothing to compare"
    # and exited 0; it must exit 1 and name the keys on both sides.
    r = run_diff(report({"old_requests": 100, "old_throughput_rps": 50.0}),
                 report({"requests": 100, "a_throughput_rps": 50.0}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "no common metric keys" in r.stderr
    assert "old_throughput_rps" in r.stderr, "baseline keys must be named"
    assert "a_throughput_rps" in r.stderr, "candidate keys must be named"


def test_both_sides_empty_is_a_hard_failure():
    r = run_diff(report({}), report({}))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "(none)" in r.stderr


def test_mismatched_benchmark_names_exit_2():
    r = run_diff(report({"a_rps": 1.0}, name="x"),
                 report({"a_rps": 1.0}, name="y"))
    assert r.returncode == 2, r.stdout + r.stderr


def test_malformed_input_exits_2():
    r = run_diff("{not json", report({"a_rps": 1.0}))
    assert r.returncode == 2, r.stdout + r.stderr


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"  ok   {name}")
    print(f"test_bench_diff: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
