#!/usr/bin/env sh
# Records the per-PR performance trajectory (ROADMAP item): runs the SIMD
# micro bench, the serving-throughput bench (whose per-shape rows include
# the loopback-socket axis — the framed wire protocol through
# net::SocketServer priced against in-process serve-8 — and the
# sharded_router axis — a shard::Router fronting two workers priced
# against the direct socket), the FFT micro bench (including
# the 2D schedule A/B pairs), the fig15 2D-FFTopt pipeline bench, and the
# fig14/fig19 TurboFNO benches (their heatmap points, plus trailing figures
# that record the real-vs-complex RFFT-lane A/B with spectral_path-tagged
# rows), and merges the results with a host block (machine and code
# version) into BENCH_PR<N>.json at the repo root, so perf regressions show
# up in review as a diffable artifact.
#
# Usage: scripts/record_bench.sh <pr-number> [build-dir] [extra bench args]
#   scripts/record_bench.sh 2            # writes BENCH_PR2.json from ./build
#   scripts/record_bench.sh 3 build --full
#   scripts/record_bench.sh 4 --full     # build-dir may be omitted
#
# Extra args go to the bench_common harness binaries only; bench_micro_fft
# is google-benchmark (different flag spelling) and always runs its full
# default suite.
#
# Failure contract: any bench exiting non-zero aborts the script with that
# bench's name and exit code, and BENCH_PR<N>.json is written atomically
# (tmp + rename) — a failed or interrupted run never leaves a partial or
# truncated artifact behind.
set -eu

PR=${1:?usage: record_bench.sh <pr-number> [build-dir] [extra bench args]}
shift
BUILD=build
# The build dir is positional but optional: treat a leading "-" as the start
# of the extra bench args instead of silently using "--full" as a directory.
if [ $# -gt 0 ] && [ "${1#-}" = "$1" ]; then
  BUILD=$1
  shift
fi

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BIN="$ROOT/$BUILD"
# The code the artifact describes: the checkout's commit at run time, and
# whether its working tree differs from that commit (uncommitted or
# untracked files).  Read before this script writes its own temp file into
# the checkout.  Outside a git checkout: sha "unknown", dirty null.
GIT_SHA=$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)
if GIT_PORCELAIN=$(git -C "$ROOT" status --porcelain 2>/dev/null); then
  if [ -n "$GIT_PORCELAIN" ]; then GIT_DIRTY=true; else GIT_DIRTY=false; fi
else
  GIT_DIRTY=null
fi
OUT="$ROOT/BENCH_PR$PR.json"
TMP_SIMD=$(mktemp)
TMP_SERVE=$(mktemp)
TMP_FIG15=$(mktemp)
TMP_FIG14=$(mktemp)
TMP_FIG19=$(mktemp)
TMP_FFT=$(mktemp)
# The merged artifact's temp file must live on the SAME filesystem as $OUT:
# mv is only an atomic rename within one filesystem, and a /tmp tempfile
# would degrade it to copy-then-unlink — killable mid-copy, leaving exactly
# the truncated BENCH_PR<N>.json this script promises never to write.
TMP_OUT=$(mktemp "$ROOT/BENCH_PR$PR.json.XXXXXX")
trap 'rm -f "$TMP_SIMD" "$TMP_SERVE" "$TMP_FIG15" "$TMP_FIG14" "$TMP_FIG19" "$TMP_FFT" "$TMP_OUT"' EXIT

for exe in bench_micro_simd bench_serve_throughput bench_fig15_2d_fftopt \
           bench_fig14_1d_turbofno bench_fig19_2d_turbofno; do
  if [ ! -x "$BIN/$exe" ]; then
    echo "record_bench.sh: $BIN/$exe not built (run the tier-1 cmake build first)" >&2
    exit 1
  fi
done

# Runs one bench, propagating its exit code with a diagnostic instead of
# writing a partial artifact.  $1 = bench name, $2 = json output path; the
# remaining args are the harness flags.
run_bench() {
  rb_name=$1
  rb_json=$2
  shift 2
  echo "running $rb_name ..." >&2
  rb_rc=0
  "$BIN/$rb_name" --json "$rb_json" "$@" >/dev/null || rb_rc=$?
  if [ "$rb_rc" -ne 0 ]; then
    echo "record_bench.sh: $rb_name failed (exit $rb_rc); not writing $OUT" >&2
    exit "$rb_rc"
  fi
  if [ ! -s "$rb_json" ]; then
    echo "record_bench.sh: $rb_name wrote no JSON; not writing $OUT" >&2
    exit 1
  fi
}

run_bench bench_micro_simd "$TMP_SIMD" "$@"
run_bench bench_serve_throughput "$TMP_SERVE" "$@"
run_bench bench_fig15_2d_fftopt "$TMP_FIG15" "$@"
run_bench bench_fig14_1d_turbofno "$TMP_FIG14" "$@"
run_bench bench_fig19_2d_turbofno "$TMP_FIG19" "$@"

# bench_micro_fft is optional (needs google-benchmark at configure time).
if [ -x "$BIN/bench_micro_fft" ]; then
  echo "running bench_micro_fft ..." >&2
  rc=0
  "$BIN/bench_micro_fft" --benchmark_format=json >"$TMP_FFT" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "record_bench.sh: bench_micro_fft failed (exit $rc); not writing $OUT" >&2
    exit "$rc"
  fi
  if [ ! -s "$TMP_FFT" ]; then
    echo "record_bench.sh: bench_micro_fft wrote no JSON; not writing $OUT" >&2
    exit 1
  fi
else
  echo "record_bench.sh: $BIN/bench_micro_fft not built, skipping" >&2
  printf 'null\n' >"$TMP_FFT"
fi

# The host that produced the numbers: a 1-core box and a 4-core one give
# different figure-bench ratios, so the artifact carries the core count,
# the OpenMP thread setting and the CPU model, next to the code version.
CPU=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr -d '"\\')
{
  printf '{\n"pr": %s,\n' "$PR"
  printf '"host": {"nproc": %s, "omp_num_threads": "%s", "cpu": "%s", "git_sha": "%s", "dirty": %s},\n' \
    "$(nproc 2>/dev/null || echo 0)" "${OMP_NUM_THREADS:-}" "${CPU:-unknown}" "$GIT_SHA" \
    "$GIT_DIRTY"
  printf '"bench_micro_simd":\n'
  cat "$TMP_SIMD"
  printf ',\n"bench_serve_throughput":\n'
  cat "$TMP_SERVE"
  printf ',\n"bench_fig15_2d_fftopt":\n'
  cat "$TMP_FIG15"
  printf ',\n"bench_fig14_1d_turbofno":\n'
  cat "$TMP_FIG14"
  printf ',\n"bench_fig19_2d_turbofno":\n'
  cat "$TMP_FIG19"
  printf ',\n"bench_micro_fft":\n'
  cat "$TMP_FFT"
  printf '}\n'
} > "$TMP_OUT"
mv "$TMP_OUT" "$OUT"

echo "wrote $OUT" >&2
