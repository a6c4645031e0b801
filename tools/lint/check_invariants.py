#!/usr/bin/env python3
"""Repo-invariant linter for TurboFNO.

Machine-checks cross-file invariants that slip through compilers and code
review because each one lives in two places at once:

  public-headers   every header reachable from the curated facade
                   (src/core/api.hpp) must be listed in CMake's
                   TURBOFNO_PUBLIC_HEADERS, or an installed tree cannot
                   compile against the advertised surface (the exact bug
                   class that shipped thread_pool.hpp late).
  knob-docs        every TURBOFNO_* environment knob read through the
                   runtime/env helpers must have a row in README's
                   "Runtime knobs" env table, and every documented row
                   must still be read somewhere in src/ or tools/ (no
                   stale docs).
  raw-getenv       all environment access goes through runtime/env, so
                   knobs are greppable one way and parsing stays
                   defensive in one place.  std::getenv anywhere else in
                   src/ or tools/ (tfno_shardd reads knobs too) is a
                   violation.
  hotpath-alloc    regions bracketed by `// tfno-hot-begin` and
                   `// tfno-hot-end` in src/core/, src/fused/, src/fft/,
                   src/gemm/ and src/baseline/ are arena-scoped kernel
                   worker bodies, GEMM tile tasks, the baseline's copy
                   kernels and model layer loops; heap allocation
                   there (new/malloc/resize/push_back/AlignedBuffer<T>
                   construction/...) would serialize the parallel sweep
                   on the allocator lock.

Usage:
  check_invariants.py [--root DIR]   lint the tree rooted at DIR (default:
                                     the repository containing this script)
  check_invariants.py --self-test    run the linter against the seeded
                                     fixture corpus in tools/lint/fixtures
                                     (one clean tree + one tree per
                                     violation class) and verify it passes
                                     and fails exactly where it should:
                                     every fixture line marked `BAD` must
                                     be reported

Exit status: 0 when clean, 1 when any invariant is violated (each
violation is printed as an `INVARIANT: ...` line with file context).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------- utilities


def fail(violations: list[str]) -> int:
    for v in violations:
        print(f"INVARIANT: {v}")
    return 1 if violations else 0


def strip_line_comment(line: str) -> str:
    """Drops a trailing // comment (string literals in this codebase never
    contain //, so a lexer is not needed)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


# Knob and getenv containment cover the tool binaries too: tfno_shardd
# reads TURBOFNO_SHARD_WORKERS, and any future tool knob must stay
# documented and env-helper-routed the same way library knobs are.
KNOB_SUBDIRS = ("src", "tools")


def source_files(root: Path, subdirs: tuple[str, ...] = ("src",)) -> list[Path]:
    # tools/lint holds this linter's fixture corpus — trees deliberately
    # seeded with violations — so it is never part of the linted surface.
    fixture_base = root / "tools" / "lint"
    out: list[Path] = []
    for sub in subdirs:
        base = root / sub
        if base.is_dir():
            out.extend(p for p in sorted(base.rglob("*"))
                       if p.suffix in (".hpp", ".cpp", ".h", ".cc")
                       and not p.is_relative_to(fixture_base))
    return out


# ------------------------------------------------- check 1: public headers


def check_public_headers(root: Path) -> list[str]:
    api = root / "src" / "core" / "api.hpp"
    cmake = root / "CMakeLists.txt"
    if not api.is_file() or not cmake.is_file():
        return []  # nothing to check in this tree

    # The CMake list: relative header paths between
    # `set(TURBOFNO_PUBLIC_HEADERS` and its closing `)`.
    m = re.search(r"set\(TURBOFNO_PUBLIC_HEADERS\s+(.*?)\)", cmake.read_text(),
                  re.DOTALL)
    listed: set[str] = set()
    if m:
        listed = {tok for tok in m.group(1).split() if tok.endswith(".hpp")}

    # The include closure of api.hpp over quoted project includes.
    src = root / "src"
    closure: set[str] = set()
    stack = ["core/api.hpp"]
    while stack:
        rel = stack.pop()
        if rel in closure:
            continue
        closure.add(rel)
        path = src / rel
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            inc = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if inc and (src / inc.group(1)).is_file():
                stack.append(inc.group(1))

    violations = [
        f"public-headers: src/{rel} is reachable from core/api.hpp but "
        f"missing from TURBOFNO_PUBLIC_HEADERS in CMakeLists.txt "
        f"(an installed tree cannot compile against the facade)"
        for rel in sorted(closure - listed)
    ]
    violations += [
        f"public-headers: {rel} is listed in TURBOFNO_PUBLIC_HEADERS but "
        f"src/{rel} does not exist"
        for rel in sorted(listed)
        if not (src / rel).is_file()
    ]
    return violations


# ----------------------------------------------------- check 2: knob docs

ENV_HELPER_RE = re.compile(
    r'\benv_(?:long|long_clamped|flag|string)\s*\(\s*"(TURBOFNO_\w+)"')


def readme_knob_table(readme: Path) -> set[str]:
    """TURBOFNO_* names in the first column of README's env-knob table
    (the markdown table whose header row starts with `| Env var`)."""
    knobs: set[str] = set()
    in_table = False
    for line in readme.read_text().splitlines():
        if re.match(r"\|\s*Env var", line):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                in_table = False
                continue
            cell = line.split("|")[1]
            knobs.update(re.findall(r"TURBOFNO_\w+", cell))
    return knobs


def check_knob_docs(root: Path) -> list[str]:
    readme = root / "README.md"
    if not readme.is_file():
        return []
    documented = readme_knob_table(readme)
    read_in_code: dict[str, Path] = {}
    for path in source_files(root, KNOB_SUBDIRS):
        for m in ENV_HELPER_RE.finditer(path.read_text()):
            read_in_code.setdefault(m.group(1), path)

    violations = [
        f"knob-docs: {knob} is read in "
        f"{read_in_code[knob].relative_to(root)} but has no row in "
        f"README's \"Runtime knobs\" env table"
        for knob in sorted(set(read_in_code) - documented)
    ]
    violations += [
        f"knob-docs: {knob} is documented in README's \"Runtime knobs\" "
        f"env table but no code under src/ or tools/ reads it (stale doc?)"
        for knob in sorted(documented - set(read_in_code))
    ]
    return violations


# ---------------------------------------------------- check 3: raw getenv

GETENV_RE = re.compile(r"\b(?:std::)?getenv\s*\(")


def check_raw_getenv(root: Path) -> list[str]:
    allowed = {Path("src/runtime/env.cpp"), Path("src/runtime/env.hpp")}
    violations = []
    for path in source_files(root, KNOB_SUBDIRS):
        if path.relative_to(root) in allowed:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if GETENV_RE.search(strip_line_comment(line)):
                violations.append(
                    f"raw-getenv: {path.relative_to(root)}:{lineno} calls "
                    f"getenv directly; route it through runtime/env "
                    f"(env_long/env_flag/env_string) so knobs stay "
                    f"greppable and defensively parsed in one place")
    return violations


# ------------------------------------------------ check 4: hot-path allocs

HOT_BEGIN = "tfno-hot-begin"
HOT_END = "tfno-hot-end"

# Heap-allocating tokens forbidden between the markers.  Arena allocation
# (`arena.alloc<T>(...)` / `.scope()`) is the approved mechanism and none
# of these patterns match it.
ALLOC_RES = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:std::)?(?:malloc|calloc|realloc)\s*\("), "malloc-family call"),
    (re.compile(r"\.\s*(?:resize|reserve|push_back|emplace_back|insert|assign)\s*\("),
     "resizing container call"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\bstd::vector\s*<"), "std::vector construction"),
    (re.compile(r"\bstd::string\b"), "std::string construction"),
    (re.compile(r"\bAlignedBuffer\s*<[\w:\s,<>]*>\s*(?:\w+\s*)?[({]"),
     "AlignedBuffer construction"),
]

HOT_SUBDIRS = ("core", "fused", "fft", "gemm", "baseline")


def check_hotpath_allocs(root: Path) -> list[str]:
    violations = []
    for path in source_files(root):
        rel = path.relative_to(root)
        parts = rel.parts
        if len(parts) < 2 or parts[0] != "src" or parts[1] not in HOT_SUBDIRS:
            continue
        in_hot = False
        begin_line = 0
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            if HOT_BEGIN in raw:
                if in_hot:
                    violations.append(
                        f"hotpath-alloc: {rel}:{lineno} nested/unclosed "
                        f"tfno-hot-begin (previous one at line {begin_line})")
                in_hot = True
                begin_line = lineno
                continue
            if HOT_END in raw:
                if not in_hot:
                    violations.append(
                        f"hotpath-alloc: {rel}:{lineno} tfno-hot-end "
                        f"without a matching tfno-hot-begin")
                in_hot = False
                continue
            if not in_hot:
                continue
            code = strip_line_comment(raw)
            for pattern, what in ALLOC_RES:
                if pattern.search(code):
                    violations.append(
                        f"hotpath-alloc: {rel}:{lineno} {what} inside a "
                        f"tfno-hot region (begun at line {begin_line}); "
                        f"use the thread-local scratch arena instead")
        if in_hot:
            violations.append(
                f"hotpath-alloc: {rel}:{begin_line} tfno-hot-begin is "
                f"never closed with tfno-hot-end")
    return violations


# ------------------------------------------------------------------ driver

CHECKS = [
    check_public_headers,
    check_knob_docs,
    check_raw_getenv,
    check_hotpath_allocs,
]


def lint(root: Path) -> list[str]:
    violations: list[str] = []
    for check in CHECKS:
        violations.extend(check(root))
    return violations


def seeded_spots(tree: Path) -> list[str]:
    """`file:line` of every fixture source line marked `// BAD`: each is a
    seeded violation the linter must report by that location."""
    spots = []
    for path in source_files(tree):
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            if "// BAD" in raw:
                spots.append(f"{path.relative_to(tree)}:{lineno}")
    return spots


def self_test(fixtures: Path) -> int:
    """The fixture corpus is the linter's own regression suite: the clean
    tree must pass, and each seeded tree must fail with (exactly) the
    violation class its name advertises."""
    expected = {
        "clean": None,
        "missing_header": "public-headers",
        "undocumented_knob": "knob-docs",
        "raw_getenv": "raw-getenv",
        "hotpath_alloc": "hotpath-alloc",
    }
    failures = []
    for name, want in sorted(expected.items()):
        tree = fixtures / name
        if not tree.is_dir():
            failures.append(f"fixture {name}: missing directory {tree}")
            continue
        violations = lint(tree)
        classes = {v.split(":", 1)[0] for v in violations}
        for spot in seeded_spots(tree):
            if not any(f" {spot} " in v for v in violations):
                failures.append(
                    f"fixture {name}: seeded violation at {spot} not reported")
        if want is None:
            if violations:
                failures.append(
                    f"fixture {name}: expected clean, got {violations}")
        else:
            if want not in classes:
                failures.append(
                    f"fixture {name}: expected a {want} violation, got "
                    f"{violations or 'none'}")
            if classes - {want}:
                failures.append(
                    f"fixture {name}: unexpected extra violation classes "
                    f"{sorted(classes - {want})} in {violations}")
    for f in failures:
        print(f"SELF-TEST FAILED: {f}")
    if not failures:
        print(f"self-test: {len(expected)} fixtures behaved as expected")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus instead of linting")
    args = parser.parse_args()
    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "fixtures")
    violations = lint(args.root.resolve())
    if not violations:
        print("check_invariants: all invariants hold")
    return fail(violations)


if __name__ == "__main__":
    sys.exit(main())
