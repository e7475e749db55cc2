#!/usr/bin/env python3
"""bench_diff.py — the perf-regression gate (DESIGN.md §16).

Compares a freshly produced BENCH_*.json against the checked-in baseline.
Simulated numbers are the contract (ROADMAP.md), so the gate is exact:

  * every metric of the baseline must be present in the candidate with
    exactly the same value — counters, clocks, cycle totals, latency
    quantiles and throughputs alike;
  * the only exception is host-time metrics, chosen by name: keys
    starting with ``calls_per_sec_`` (wall-clock call rates) or ending in
    ``wall_ms`` (wall-clock durations). They vary from run to run and are
    printed with --verbose, never gated;
  * on top of exactness the tolerance bands still apply: throughput-like
    metrics (``*_throughput_rps``, ``*_rps``) FAIL when the candidate is
    more than --throughput-tol (default 10%) BELOW the baseline, and
    tail-latency metrics (``*_p99_us``, ``*_p99_cycles``) FAIL when it is
    more than --p99-tol (default 20%) ABOVE. The bands name the direction
    of a regression in the failure message; exactness catches the rest.

Only the ``metrics`` object is compared (checked-in artifacts carry extra
post-processed keys like ``git_sha``). Keys the candidate adds are
informational — a baseline may pin a subset, as BENCH_health.json does
for the fig_fleet run. A baseline key the candidate lacks fails the gate:
the baseline is stale and must be regenerated. An *empty* intersection is
a hard failure too: it means every key was renamed (or the wrong files
were paired) and the gate would silently compare nothing — exactly the
rot this tool exists to prevent.

Scale guard: when the two files disagree on workload-scale keys
(``requests``, ``requests_per_tenant``, ``tenants``, ``iterations``,
``invocations``, ``n_classes``, ``ops``, ``calls``) the comparison would
be meaningless — e.g. a --smoke run against a full-length baseline — so
the gate exits 0 with a notice instead of crying wolf.

Usage:
    bench_diff.py BASELINE CANDIDATE [--throughput-tol=0.10]
                  [--p99-tol=0.20] [--verbose]

Exit status: 0 = exact match and within bands (or scale-skipped),
1 = a changed or missing metric, a band regression or an empty
metric-key intersection, 2 = unreadable/malformed input.
"""

import argparse
import json
import sys

SCALE_KEYS = ("requests", "requests_per_tenant", "tenants", "iterations",
              "invocations", "n_classes", "ops", "calls")


def is_host_time(key):
    """Wall-clock metrics: the only keys exempt from the exact gate."""
    return key.startswith("calls_per_sec_") or key.endswith("wall_ms")


def is_throughput(key):
    return key.endswith("_throughput_rps") or key.endswith("_rps")


def is_p99(key):
    return key.endswith("_p99_us") or key.endswith("_p99_cycles")


def load_metrics(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        print(f"bench_diff: {path} has no metrics object", file=sys.stderr)
        sys.exit(2)
    out = {}
    for key, value in metrics.items():
        try:
            out[key] = float(value)
        except (TypeError, ValueError):
            continue
    return doc.get("benchmark", "?"), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--throughput-tol", type=float, default=0.10,
                    help="max fractional throughput drop (default 0.10)")
    ap.add_argument("--p99-tol", type=float, default=0.20,
                    help="max fractional p99 rise (default 0.20)")
    ap.add_argument("--verbose", action="store_true",
                    help="also print informational (ungated) deltas")
    args = ap.parse_args()

    base_name, base = load_metrics(args.baseline)
    cand_name, cand = load_metrics(args.candidate)
    if base_name != cand_name:
        print(f"bench_diff: comparing different benchmarks "
              f"({base_name} vs {cand_name})", file=sys.stderr)
        sys.exit(2)

    common = sorted(set(base) & set(cand))
    if not common:
        # An empty intersection is never a benign skip: it means the
        # baseline predates a metric-key rename (or one side is from a
        # different world entirely), and silently returning 0 here is how
        # a gate rots into a no-op. Name the keys on both sides so the
        # rename is obvious from the failure message alone.
        print(f"bench_diff: {base_name}: no common metric keys — the gate "
              "would compare nothing, failing hard instead.",
              file=sys.stderr)
        print(f"  baseline keys:  {', '.join(sorted(base)) or '(none)'}",
              file=sys.stderr)
        print(f"  candidate keys: {', '.join(sorted(cand)) or '(none)'}",
              file=sys.stderr)
        print("  (did a metric or scale key get renamed without "
              "re-baselining?)", file=sys.stderr)
        return 1

    for key in SCALE_KEYS:
        if key in base and key in cand and base[key] != cand[key]:
            print(f"bench_diff: {base_name}: scale key '{key}' differs "
                  f"({base[key]:g} vs {cand[key]:g}) — runs are not "
                  "comparable, skipping the gate")
            return 0

    failures = []
    for key in sorted(set(base) - set(cand)):
        if not is_host_time(key):
            failures.append(f"  FAIL {key}: missing from the candidate "
                            f"(baseline {base[key]:g})")
    gated = 0
    exact = 0
    for key in common:
        b, c = base[key], cand[key]
        if is_host_time(key):
            if args.verbose and b != c:
                delta = (c / b - 1.0) * 100 if b else float("inf")
                print(f"  host {key}: {c:g} vs {b:g} ({delta:+.1f}%)")
            continue
        exact += 1
        if is_throughput(key):
            gated += 1
            if b > 0 and c < b * (1.0 - args.throughput_tol):
                failures.append(
                    f"  FAIL {key}: {c:g} vs baseline {b:g} "
                    f"({(c / b - 1.0) * 100:+.1f}%, tolerance "
                    f"-{args.throughput_tol * 100:.0f}%)")
                continue
        elif is_p99(key):
            gated += 1
            if b > 0 and c > b * (1.0 + args.p99_tol):
                failures.append(
                    f"  FAIL {key}: {c:g} vs baseline {b:g} "
                    f"({(c / b - 1.0) * 100:+.1f}%, tolerance "
                    f"+{args.p99_tol * 100:.0f}%)")
                continue
        if b != c:
            delta = (c / b - 1.0) * 100 if b else float("inf")
            failures.append(f"  FAIL {key}: {c:.17g} vs baseline {b:.17g} "
                            f"({delta:+.4f}%, exact gate)")
        elif args.verbose:
            print(f"  ok   {key}: {c:g}")

    if failures:
        print(f"bench_diff: {base_name}: {len(failures)} metric(s) differ "
              f"from the baseline ({exact} compared exactly, {gated} also "
              "banded):")
        print("\n".join(failures))
        return 1
    print(f"bench_diff: {base_name}: OK — {exact} metrics exact "
          f"({gated} also within -{args.throughput_tol * 100:.0f}% "
          f"throughput / +{args.p99_tol * 100:.0f}% p99 bands), "
          f"{len(common) - exact} host-time skipped")
    return 0

if __name__ == "__main__":
    sys.exit(main())
