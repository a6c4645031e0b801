#!/usr/bin/env bash
# Builds the benchmark program (bench/suite/CMakeLists.txt) and runs it.
#
#   bench/suite/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
#   bench/suite/run.sh --seed N [--seconds S] [--trace 0|1] [--smoke]   # all workloads
#
# The build lives in build-bench-suite under the repository root.  Build
# output goes to stderr, so the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench-suite"
jobs="$(nproc 2>/dev/null || echo 2)"
((jobs > 4)) && jobs=4

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target tfno_suite -j "$jobs" >&2

if [[ " $* " == *" --workload "* ]]; then
  exec "$build/tfno_suite" "$@"
fi
# No --workload: every workload, each in its own process.
status=0
for w in fno2d_c2c fno1d_c2c fno2d_real serve_router; do
  "$build/tfno_suite" --workload "$w" "$@" || status=1
done
exit "$status"
