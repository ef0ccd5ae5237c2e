#!/usr/bin/env bash
# Determinism smoke test for acgpu_e2e, the check to run first after a
# change. Every workload runs at --quick size (about 1/20 of each count, one
# pass, one set-up), twice in each mode. It fails unless every match checks
# and, between the two runs, every simulated end-to-end metric and every
# per-layer metric not timed on the host clock is identical, and peak_rss_mb
# agrees within 1% (the allocator's page use varies slightly run to run).
#
#   bash bench/e2e/smoke.sh [seed]        # from the repository root
set -euo pipefail

seed="${1:-780}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2

results="$build/smoke"
mkdir -p "$results"
for workload in bulk_text_1k bulk_text_20k bulk_dna_1k sessions_text_1k; do
  for trace in 0 1; do
    for run in 1 2; do
      "$build/acgpu_e2e" --workload "$workload" --seed "$seed" --quick \
        --trace "$trace" --out-dir "$results" |
        tail -n 1 >"$results/$workload.trace$trace.run$run.json"
    done
  done
done

python3 - "$results" <<'EOF'
import json, pathlib, sys

results = pathlib.Path(sys.argv[1])
# Per-layer metrics timed on the host clock may differ between runs.
HOST_UNITS = {"ms", "us", "MB/s"}
HOST_PREFIXES = ("bench.", "trace.")

RSS_TOLERANCE = 0.01

def repeats(name, unit, trace):
    if trace == "0":
        return name.startswith("sim_") or name == "peak_rss_mb"
    return unit not in HOST_UNITS and not name.startswith(HOST_PREFIXES)

def same(name, x, y):
    if name == "peak_rss_mb":
        return abs(x - y) <= RSS_TOLERANCE * max(x, y)
    return x == y

bad = 0
for first in sorted(results.glob("*.run1.json")):
    workload, trace = first.name.split(".")[:2]
    trace = trace[-1]
    a = json.loads(first.read_text())
    b = json.loads(pathlib.Path(str(first).replace("run1", "run2")).read_text())
    for r in (a, b):
        if not r["correct"] or r["failed"]:
            print(f"FAIL {workload} --trace {trace}: {r['failed']} failed operations")
            bad += 1
    checked = 0
    for name, m in a["metrics"].items():
        if not repeats(name, m["unit"], trace):
            continue
        checked += 1
        if not same(name, m["value"], b["metrics"][name]["value"]):
            print(f"FAIL {workload} --trace {trace}: {name} "
                  f"{m['value']!r} != {b['metrics'][name]['value']!r}")
            bad += 1
    print(f"{workload} --trace {trace}: {checked} metrics repeat, "
          f"{a['attempted']} operations checked")
sys.exit(1 if bad else 0)
EOF
echo "smoke: every match checked and every deterministic metric repeated"
