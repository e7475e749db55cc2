#!/usr/bin/env bash
# Tier-1 post-build gates (ROADMAP.md), the one list that tools/tier1.sh
# and the CMake `check` target both run after ctest.
#
# Usage: tools/tier1_gates.sh <build-dir>
set -euo pipefail

BUILD_DIR="$(cd "${1:?usage: tools/tier1_gates.sh <build-dir>}" && pwd)"
cd "$(dirname "$0")/.."

# RMI hot path (simulated cycles pinned per scenario) and the switchless
# ring (cycle-identical to the inline shortcut for a single caller).
"$BUILD_DIR"/bench/abl_rmi_fastpath --smoke > /dev/null
"$BUILD_DIR"/bench/abl_switchless --smoke > /dev/null

# Batched RMI at full scale (DESIGN.md §13, 0.2 s): aborts unless batch
# width 1 is cycle-identical to the unbatched path and width >= 16 clears
# the 5x amortization gate.
"$BUILD_DIR"/bench/abl_rmi_batch \
  --json="$BUILD_DIR"/BENCH_rmi_batch.json > /dev/null

# Fault storm at full scale (DESIGN.md §12, 30 ms): a seeded loss/
# transition/EPC/TCS/corruption storm through the serving layer, run
# twice — the binary aborts unless both runs agree bit-for-bit on clocks
# and counters, and unless the server stays partially available under
# the storm.
"$BUILD_DIR"/bench/fig_faults \
  --json="$BUILD_DIR"/BENCH_faults.json > /dev/null

# Multi-tenant request server at full scale (DESIGN.md §8, 0.2 s): load,
# TCS, switchless and coalescing sweeps with a two-run determinism
# self-check.
"$BUILD_DIR"/bench/fig_server \
  --json="$BUILD_DIR"/BENCH_server.json > /dev/null

# Fleet smoke (DESIGN.md §14 + §16): 64 Zipfian tenants over a sharded
# enclave fleet — ring routing, a loss storm served by warm-standby
# promotion vs the restart ladder (promotion must win the p99 by >= 3x),
# a hot-tenant migration, a fleet-wide two-run determinism self-check,
# and the health-under-storm scenario (SLO monitor + flight recorder +
# profiler armed at zero simulated-cycle cost; artifacts below).
"$BUILD_DIR"/bench/fig_fleet --smoke \
  --json="$BUILD_DIR"/BENCH_fleet.json \
  --health-out="$BUILD_DIR"/fleet_health.txt \
  --postmortem-out="$BUILD_DIR"/fleet_postmortem.json \
  --folded-out="$BUILD_DIR"/fleet_folded.txt > /dev/null

# msvmon must parse every artifact the health stack just wrote (exit 2 =
# malformed bundle; the post-mortems are only useful if they open).
"$BUILD_DIR"/tools/msvmon --health="$BUILD_DIR"/fleet_health.txt \
  --postmortem="$BUILD_DIR"/fleet_postmortem.json \
  --folded="$BUILD_DIR"/fleet_folded.txt --summary

# Regression gate (DESIGN.md §16): fresh reports vs the checked-in
# baselines of the same scale. Every simulated metric must match exactly;
# only host-time keys are exempt (tools/bench_diff.py).
tools/bench_diff.py BENCH_fleet.json "$BUILD_DIR"/BENCH_fleet.json
tools/bench_diff.py BENCH_health.json "$BUILD_DIR"/BENCH_fleet.json
tools/bench_diff.py BENCH_faults.json "$BUILD_DIR"/BENCH_faults.json
tools/bench_diff.py BENCH_rmi_batch.json "$BUILD_DIR"/BENCH_rmi_batch.json
tools/bench_diff.py BENCH_server.json "$BUILD_DIR"/BENCH_server.json

# msvlint must stay clean over the whole example/app corpus — including
# the §6.5/§6.6 app models and the value-trust analysis feeding MSV010 —
# with the native-edge dry run feeding MSV004 (exit 1 = unsuppressed lint
# errors; MSV010 demotion candidates are informational).
"$BUILD_DIR"/tools/msvlint examples/*.msv --bank --micro --paldb \
  --graphchi --specjvm --synthetic=40 --trace-native --trust \
  --quiet > /dev/null

# msvlint --fix dry-run smoke (DESIGN.md §15): profile the fig06-style
# workload, run the trust analysis + min-cut optimizer, apply the plan and
# replay original vs re-partitioned twice each — exits 1 unless all four
# runs are byte-identical and crossings do not regress.
"$BUILD_DIR"/tools/msvlint --synthetic=16 --untrusted-fraction=0 \
  --secret-fraction=0.25 --fix --quiet > /dev/null

# Partition optimizer at full scale (DESIGN.md §15, 18 ms): aborts unless
# the optimized partition replays byte-identically (2+2 runs), keeps
# every secret-carrying class inside, and cuts boundary crossings >= 20%.
"$BUILD_DIR"/bench/abl_partition \
  --json="$BUILD_DIR"/BENCH_partition.json > /dev/null
tools/bench_diff.py BENCH_partition.json "$BUILD_DIR"/BENCH_partition.json

# Stress smoke tier (DESIGN.md §17): the five adversarial-workload
# stressors, each its own abort-on-gate acceptance test — the EPC paging
# cliff curve + mid-run shrink, GC allocation storms + weakref churn,
# pathological serde shapes + sealed checkpoints, TCS exhaustion, and the
# fault storm under overload with the health stack armed. Their reports
# merge into one BENCH_stress.json gated against the checked-in baseline
# (the suite is deterministic, so smoke-vs-smoke compares exactly).
for s in epc gc serde tcs storm; do
  "$BUILD_DIR"/bench/stress_$s --smoke \
    --json="$BUILD_DIR"/stress_$s.json > /dev/null
done
tools/stress_report.py --out "$BUILD_DIR"/BENCH_stress.json \
  epc="$BUILD_DIR"/stress_epc.json gc="$BUILD_DIR"/stress_gc.json \
  serde="$BUILD_DIR"/stress_serde.json tcs="$BUILD_DIR"/stress_tcs.json \
  storm="$BUILD_DIR"/stress_storm.json > /dev/null
tools/bench_diff.py BENCH_stress.json "$BUILD_DIR"/BENCH_stress.json

# bench_diff's own contract (exact gate, host-time name rule, bands,
# scale-key skip, empty-intersection hard failure) is load-bearing for every gate above.
python3 tools/test_bench_diff.py > /dev/null

# Telemetry smoke: a traced serving run must emit a valid Chrome trace
# with the full span taxonomy linked by trace context (DESIGN.md §10).
"$BUILD_DIR"/bench/fig_server --smoke \
  --trace-out="$BUILD_DIR"/fig_server_trace.json \
  --metrics-out="$BUILD_DIR"/fig_server_metrics.txt > /dev/null
tools/check_trace.py "$BUILD_DIR"/fig_server_trace.json

echo "tier1: tests + ablations + batched-rmi + fault-storm + msvlint + partition-optimizer + telemetry-trace + health/bench-diff + stress smoke OK"
