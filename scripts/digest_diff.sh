#!/usr/bin/env sh
# Checks that a build computes the same bits as another commit: builds
# <rev>'s library in a temporary git worktree with the same TURBOFNO_SIMD
# and build type as <build-dir>, runs the same tfno_digest harness on both
# and diffs their output (every ladder row, both lanes, 1 and 4 threads,
# 1-3 layers; see tools/digest/tfno_digest.cpp).
#
#   scripts/digest_diff.sh <rev> [build-dir]     (build-dir defaults to build)
#
# <build-dir> must be a configured build; its tfno_digest target is brought
# up to date first.  The harness both sides run is the one in that build's
# source tree, copied over <rev>'s, so a harness that grew new lines
# compares them on <rev> too.  If it does not compile against <rev>, <rev>
# runs its own harness, and only the lines that harness prints are
# compared (a note on stderr says so).  Exit status: 0 when the compared
# outputs are byte-identical, 1 when they differ (the diff is printed), 2
# on a usage or setup error.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <rev> [build-dir]" >&2
  exit 2
fi
rev=$1
build=${2:-build}

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
case $build in
  /*) ;;
  *) build=$PWD/$build ;;
esac
cache=$build/CMakeCache.txt
if [ ! -f "$cache" ]; then
  echo "$0: $build is not a configured build (no CMakeCache.txt)" >&2
  exit 2
fi
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$cache"
}
simd=$(cache_value TURBOFNO_SIMD)
build_type=$(cache_value CMAKE_BUILD_TYPE)
harness=$(cache_value CMAKE_HOME_DIRECTORY)/tools/digest/tfno_digest.cpp
[ -f "$harness" ] || {
  echo "$0: no tfno_digest harness at $harness" >&2
  exit 2
}
jobs=$(nproc 2>/dev/null || echo 2)

base_sha=$(git -C "$repo_root" rev-parse --verify "$rev^{commit}") || exit 2
tmp=$(mktemp -d)
cleanup() {
  git -C "$repo_root" worktree remove --force "$tmp/src" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "$0: $1" >&2
  exit 2
}
git -C "$repo_root" worktree add --detach "$tmp/src" "$base_sha" >/dev/null ||
  fail "cannot check out $base_sha"
cmake -S "$tmp/src" -B "$tmp/build" -DTURBOFNO_SIMD="${simd:-auto}" \
  -DCMAKE_BUILD_TYPE="${build_type:-Release}" -DBUILD_TESTING=OFF >/dev/null ||
  fail "cannot configure $base_sha"
own_harness=0
cp "$harness" "$tmp/src/tools/digest/tfno_digest.cpp" || fail "cannot copy the harness"
if ! cmake --build "$tmp/build" -j "$jobs" --target tfno_digest >/dev/null 2>&1; then
  echo "digest_diff: this harness does not build against $base_sha;" \
    "comparing the lines of $base_sha's own harness only" >&2
  own_harness=1
  git -C "$tmp/src" checkout -- tools/digest/tfno_digest.cpp ||
    fail "cannot restore $base_sha's harness"
  cmake --build "$tmp/build" -j "$jobs" --target tfno_digest >/dev/null ||
    fail "cannot build tfno_digest at $base_sha"
fi
cmake --build "$build" -j "$jobs" --target tfno_digest >/dev/null ||
  fail "cannot build tfno_digest in $build"

"$tmp/build/tfno_digest" >"$tmp/base.txt" || fail "tfno_digest failed at $base_sha"
"$build/tfno_digest" >"$tmp/head.txt" || fail "tfno_digest failed in $build"
if [ "$own_harness" = 1 ]; then
  # Keep the lines whose shape, lane, threads and row the base printed.
  awk 'NR == FNR { keep[$1 " " $2 " " $3 " " $4] = 1; next }
       ($1 " " $2 " " $3 " " $4) in keep' "$tmp/base.txt" "$tmp/head.txt" >"$tmp/common.txt"
  mv "$tmp/common.txt" "$tmp/head.txt"
fi
if diff "$tmp/base.txt" "$tmp/head.txt"; then
  echo "digest_diff: $(wc -l <"$tmp/head.txt") lines byte-identical to ${base_sha}" \
    "(TURBOFNO_SIMD=${simd:-auto})"
else
  echo "digest_diff: tfno_digest output differs from ${base_sha}" >&2
  exit 1
fi
