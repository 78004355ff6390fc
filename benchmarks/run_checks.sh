#!/usr/bin/env sh
# Full verification gate in one command:
#
#   tier-1   — the complete test + figure-reproduction suite (pytest from the
#              repo root, exactly the ROADMAP command),
#   perf     — the wall-clock regression smokes against BENCH_pipeline.json
#              plus the session plan-cache smoke (prepared re-execution must
#              beat cold parse+plan by >= 2x),
#   bench    — the standalone bench-JSON comparator: re-measures every
#              scenario recorded in BENCH_pipeline.json and fails when any
#              regresses >2x versus the committed baseline; the aggregate-
#              pushdown scenarios additionally gate their live speedup over
#              the decode-then-reduce reference (grouped >=3x, zero-scan
#              MIN/MAX >=20x), the delta/main write split gates per-row
#              inserts at >=5x over the inline path, and the matview serve
#              gates >=5x over recompute-per-query,
#   matview  — the materialized-view suite, standalone: refresh machinery,
#              session serving/EXPLAIN/advisor tests, the matview-vs-base
#              differential fuzzer and the serve-vs-recompute perf gates
#              (also runs inside tier-1; this run proves the marker works),
#   fuzz     — the seeded differential suites, standalone (cross-store,
#              session-vs-legacy, pruning-vs-decode, and delta-vs-inline;
#              they also run inside tier-1; this run proves the marker works),
#   faults   — the crash-point recovery differential suite: a fault-injection
#              harness crashes the WAL/merge/checkpoint paths at every
#              declared crash point and recovery must land on the committed
#              prefix,
#   resilience — query deadlines (a timed-out query bills nothing) and
#              matview refresh crashes (an interrupted refresh never
#              installs a partial merge),
#   integrity — the corruption-fault matrix: flipped/truncated checkpoint
#              snapshots are detected (never restored from), in-memory
#              code-array flips are quarantined with typed errors naming
#              the exact table/partition/column, WAL-backed repair restores
#              rows and charges bit-identical, and checksum verification
#              bills zero simulated cost (the delta_insert_100k_ms bench
#              gate above doubles as the checksum-overhead guard),
#   sessionbench — the session benchmark's self-test: every workload at a
#              tiny size, untraced and traced, metric names against
#              BENCHMARK.json, and no process left behind,
#   examples — the session-API examples as executable documentation.
#
# Usage, from the repository root or this directory:
#   benchmarks/run_checks.sh
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1: full suite =="
python -m pytest -x -q

echo "== perf smoke: BENCH_pipeline.json + plan-cache gates =="
python -m pytest -m perf -q benchmarks

echo "== bench comparator: committed BENCH_pipeline.json baseline =="
python benchmarks/compare_bench.py \
    --fail-under grouped_agg_pushdown_100k_ms=3 \
    --fail-under minmax_zero_scan_100k_ms=20 \
    --fail-under delta_insert_100k_ms=5 \
    --fail-under matview_grouped_agg_100k_ms=5

echo "== matview: materialized-view suite + serve-vs-recompute gates =="
python -m pytest -m matview -q tests benchmarks

echo "== fuzz: differential suites =="
python -m pytest -m fuzz -q tests

echo "== faults: crash-point recovery suite =="
python -m pytest -m faultinject -q tests

echo "== resilience: deadlines + matview refresh crashes =="
python -m pytest -m resilience -q tests

echo "== integrity: corruption matrix + scrub/quarantine/repair =="
python -m pytest -m integrity -q tests

echo "== sessionbench: session benchmark self-test =="
python3 sessionbench/smoke.py

echo "== examples: session API smoke =="
python examples/session_api.py > /dev/null
python examples/quickstart.py > /dev/null
echo "examples ran clean."

echo "All checks passed."
