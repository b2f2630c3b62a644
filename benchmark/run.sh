#!/usr/bin/env bash
# The repository's benchmark in one command: configures and builds
# pstore_bench (Release) into build/benchmark, then runs it with the
# given flags. Build output goes to stderr, so the last line of stdout
# is pstore_bench's own.
#
#   benchmark/run.sh                      all workloads, 5 + 1 traced reps
#   benchmark/run.sh --check              1 + 1 reps, correctness gate (CI)
#   benchmark/run.sh --workload b2w_flat_100n --seed 7 --seconds 20 --trace 0
#
# Flags are pstore_bench's (see benchmark/README.md). Results land in
# build/benchmark/results unless --out says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build/benchmark"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target pstore_bench -j "$(nproc)" >&2

args=("$@")
has_out=0
for arg in "$@"; do
  [[ "$arg" == --out || "$arg" == --out=* ]] && has_out=1
done
if [[ $has_out -eq 0 ]]; then
  args+=(--out "$build/results")
fi
exec "$build/pstore_bench" "${args[@]}"
