#!/usr/bin/env sh
# Checks that a build computes the same bits as another commit: builds
# <rev>'s tfno_digest in a temporary git worktree with the same
# TURBOFNO_SIMD and build type as <build-dir>, runs both digests and diffs
# their output (every ladder row, both lanes, 1 and 4 threads; see
# tools/digest/tfno_digest.cpp).
#
#   scripts/digest_diff.sh <rev> [build-dir]     (build-dir defaults to build)
#
# <build-dir> must be a configured build of this checkout; its tfno_digest
# target is brought up to date first.  Exit status: 0 when the outputs are
# byte-identical, 1 when they differ (the diff is printed), 2 on a usage or
# setup error.
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
cmake --build "$tmp/build" -j "$jobs" --target tfno_digest >/dev/null ||
  fail "cannot build tfno_digest at $base_sha"
cmake --build "$build" -j "$jobs" --target tfno_digest >/dev/null ||
  fail "cannot build tfno_digest in $build"

"$tmp/build/tfno_digest" >"$tmp/base.txt" || fail "tfno_digest failed at $base_sha"
"$build/tfno_digest" >"$tmp/head.txt" || fail "tfno_digest failed in $build"
if diff "$tmp/base.txt" "$tmp/head.txt"; then
  echo "digest_diff: $(wc -l <"$tmp/head.txt") lines byte-identical to ${base_sha}" \
    "(TURBOFNO_SIMD=${simd:-auto})"
else
  echo "digest_diff: tfno_digest output differs from ${base_sha}" >&2
  exit 1
fi
