#!/usr/bin/env python3
"""Compare two result sets of the benchmark suite.

    bench_diff.py BASE NEW [--benchmark BENCHMARK.json]
    bench_diff.py --selftest

BASE and NEW are files or directories holding the standard output of
bench/suite/run.sh: each run prints a {"context": ...} line followed by its
result line, and any number of runs may share a file.

For every workload x end-to-end metric (plain runs) it prints each side's
median and quartiles, the fraction of runs of NEW that beat their paired run
of BASE (paired by seed, ties count for neither), and a verdict:

  improved    NEW wins at least 9 of 10 pairs and the medians differ by
              more than BASE's own quartile spread
  regressed   NEW's median is worse than BASE's by more than the bound,
              however wide either side's spread
  unresolved  neither of the above, and a side's quartile spread is wider
              than the bound, unless every run of NEW beats every run of BASE
  unchanged   otherwise

Each workload also gets a "failed" row: the share of failed requests and of
runs that reported correct=false, over all its runs.  Any increase is
"regressed".  Runs of different lengths (--seconds) or a --smoke run on
either side are not compared.

Per-layer metrics (traced runs) are listed as median ratios NEW / BASE.
Exits 1 when any verdict is "regressed", 2 when the sets cannot be compared.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(paths):
    """Returns [(context, result)] from every line-pair in the given paths."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, f) for f in os.listdir(p))
        else:
            files.append(p)
    runs = []
    for f in files:
        context = None
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "context" in obj:
                    context = obj["context"]
                elif "metrics" in obj and context is not None:
                    runs.append((context, obj))
                    context = None
    return runs


def group(runs, trace):
    """{workload: {seed: result}} for runs with the given trace flag."""
    out = {}
    for ctx, res in runs:
        if int(ctx.get("trace", 0)) == trace:
            out.setdefault(ctx["workload"], {})[ctx["seed"]] = res
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(base, new, bound, lower_is_better):
    """(verdict, worse_by, win_fraction) for two lists of one metric."""
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = all(sign * (n - b) < 0 for b in base for n in new)
    if win_frac >= 0.9 and abs(nmed - bmed) > (bq3 - bq1) and worse_by < 0:
        return "improved", worse_by, win_frac
    if worse_by > bound:
        return "regressed", worse_by, win_frac
    if spread > bound and not all_better:
        return "unresolved", worse_by, win_frac
    return "unchanged", worse_by, win_frac


def failures(runs):
    """{workload: [failed, attempted, incorrect runs, runs]} over all runs."""
    out = {}
    for ctx, res in runs:
        f = out.setdefault(ctx["workload"], [0, 0, 0, 0])
        f[0] += int(res["failed"])
        f[1] += int(res["attempted"])
        f[2] += 0 if res["correct"] else 1
        f[3] += 1
    return out


def run_lengths(runs):
    """The distinct (seconds, smoke) settings of a result set."""
    return {(float(c.get("seconds", 0)), bool(c.get("smoke", False))) for c, _ in runs}


def diff(base_runs, new_runs, bench, out=sys.stdout):
    """Prints the comparison; returns {(workload, metric): verdict}, or None
    when the two sets were not run the same way."""
    lengths = run_lengths(base_runs) | run_lengths(new_runs)
    if len(lengths) != 1 or any(smoke for _, smoke in lengths):
        print(f"cannot compare: runs of different lengths or smoke runs "
              f"(seconds, smoke): {sorted(lengths)}", file=out)
        return None
    verdicts = {}
    for side, runs in (("base", base_runs), ("new", new_runs)):
        hosts = {}
        for c, _ in runs:
            host = dict(c.get("host", {}))
            load = host.pop("loadavg", "").split()[:1]
            hosts.setdefault(json.dumps(host, sort_keys=True), []).extend(map(float, load))
        for h, loads in sorted(hosts.items()):
            host = json.loads(h)
            print(f"{side} host: {host.get('cpu', '?')}, nproc {host.get('nproc', '?')}, "
                  f"threads {host.get('threads', '?')}, {host.get('simd', '?')}, "
                  f"sha {host.get('git_sha', '?')}, {len(loads)} runs, "
                  f"1-min load {min(loads, default=0):.2f}-{max(loads, default=0):.2f}", file=out)

    base, new = group(base_runs, 0), group(new_runs, 0)
    row = "{:14} {:18} {:>32} {:>32} {:>9} {:>5} {:>6}  {}"
    print("\n" + row.format("workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
                            "better by", "wins", "bound", "verdict"), file=out)
    for w in sorted(set(base) & set(new)):
        seeds = sorted(set(base[w]) & set(new[w]))
        if seeds:
            b_runs = [base[w][s] for s in seeds]
            n_runs = [new[w][s] for s in seeds]
        else:  # no shared seeds: pair runs in file order
            b_runs, n_runs = list(base[w].values()), list(new[w].values())
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not bv or not nv:
                continue
            v, worse_by, win = verdict(bv, nv, m["bound"], m["better"] == "lower")
            verdicts[(w, name)] = v
            bq, nq = quartiles(bv), quartiles(nv)
            print(row.format(w, name, f"{bq[1]:.6g} [{bq[0]:.5g}, {bq[2]:.5g}]",
                             f"{nq[1]:.6g} [{nq[0]:.5g}, {nq[2]:.5g}]", f"{-worse_by:+.1%}",
                             f"{win:.0%}", f"{m['bound']:.0%}", v), file=out)

    bf, nf = failures(base_runs), failures(new_runs)
    for w in sorted(set(bf) & set(nf)):
        b, n = bf[w], nf[w]
        worse = n[0] / max(n[1], 1) > b[0] / max(b[1], 1) or n[2] / n[3] > b[2] / b[3]
        v = "regressed" if worse else "unchanged"
        verdicts[(w, "failed")] = v
        print(row.format(w, "failed", f"{b[0]} of {b[1]}, {b[2]} bad runs",
                         f"{n[0]} of {n[1]}, {n[2]} bad runs", "", "", "0", v), file=out)

    tbase, tnew = group(base_runs, 1), group(new_runs, 1)
    if set(tbase) & set(tnew):
        print("\nper-layer medians: base -> new (new / base)", file=out)
    for w in sorted(set(tbase) & set(tnew)):
        for m in bench["per_layer"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in tbase[w].values() if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in tnew[w].values() if name in r["metrics"]]
            if not bv or not nv:
                continue
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            ratio = f"{nmed / bmed:8.3f}x" if bmed else "       -"
            print(f"{w:14} {name:42} {bmed:12.6g} -> {nmed:12.6g} {m['unit']:8} {ratio}",
                  file=out)
    return verdicts


def selftest():
    fixtures = os.path.join(HERE, "fixtures")
    bench = {
        "end_to_end": [
            {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "latency_ms_tail", "unit": "ms", "better": "lower", "bound": 0.15},
            {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "latency_ms_noisy", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
        "per_layer": [{"name": "fft.forward_ms", "unit": "ms", "better": "lower"}],
    }
    base = load_runs([os.path.join(fixtures, "base.txt")])
    new = load_runs([os.path.join(fixtures, "new.txt")])
    longer = [(dict(c, seconds=c["seconds"] * 2), r) for c, r in new]
    with open(os.devnull, "w") as sink:
        got = diff(base, new, bench, out=sink)
        same = diff(base, base, bench, out=sink)
        refused = diff(base, longer, bench, out=sink)
    want = {
        ("fno1d_c2c", "latency_ms_p50"): "improved",
        ("fno1d_c2c", "latency_ms_tail"): "regressed",
        ("fno1d_c2c", "throughput_per_s"): "unchanged",
        # twice as slow: regressed although both spreads exceed the bound
        ("fno1d_c2c", "latency_ms_noisy"): "regressed",
        ("fno1d_c2c", "setup_s"): "unresolved",
        ("fno1d_c2c", "failed"): "unchanged",
        ("serve_router", "latency_ms_p50"): "unchanged",
        # same latency, but one run failed requests and reported correct=false
        ("serve_router", "failed"): "regressed",
    }
    ok = got == want and set(same.values()) <= {"unchanged", "unresolved"} and \
        same[("fno1d_c2c", "latency_ms_p50")] == "unchanged" and refused is None
    print("selftest:", "ok" if ok else f"FAILED: got {got}, self-diff {same}, refused {refused}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base or not args.new:
        ap.error("BASE and NEW are required")
    with open(args.benchmark) as f:
        bench = json.load(f)
    verdicts = diff(load_runs([args.base]), load_runs([args.new]), bench)
    if verdicts is None:
        return 2
    return 1 if "regressed" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
