#!/usr/bin/env bash
# Builds acgpu_e2e from this checkout's sources, then runs it with the given
# flags; run from the repository root:
#
#   bash bench/e2e/run.sh --workload bulk_text_1k --seed 780 --seconds 10 --trace 0
#
# Build output goes to stderr so the last stdout line stays acgpu_e2e's JSON
# result. The build tree is $CARGO_TARGET_DIR/e2e (default .bench_build/e2e),
# which is also where --trace 1 writes its trace file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2
exec "$build/acgpu_e2e" --out-dir "$build" "$@"
