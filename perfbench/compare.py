"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py A.jsonl B.jsonl
    python3 perfbench/compare.py --runs 10 A.jsonl B.jsonl

The first form reads two files written by ``run.py --out``.  The second
first runs the benchmark into them: for each workload in BENCHMARK.json,
--runs untraced runs with seeds 1..runs (shifted by --seed-offset for the
second set), one after another, set A before set B.

For each workload and end-to-end metric it prints the median and quartiles
of both sets, the spread (quartile distance over median) of each, and
whether the two agree: B's median is no worse than A's by more than the
metric's bound, and each spread but setup_s's is within the bound.  It also
compares the share of failed operations.  Per-operation times (not bounded)
follow for information.  Exit status 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load(path):
    by_workload = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def run_set(path, spec, runs, offset):
    for w in spec["workloads"]:
        for seed in range(1 + offset, runs + 1 + offset):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0", "--out", str(path)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            print(f"ran {w['name']} seed {seed}: exit {done.returncode}", file=sys.stderr)


def compare(a, b, spec):
    ok = True
    print(f"{'workload':<13} {'metric':<14} {'A median':>10} {'A q1..q3':>21} {'A sprd':>7} "
          f"{'B median':>10} {'B q1..q3':>21} {'B sprd':>7} {'B-A':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = a.get(name, []), b.get(name, [])
        if not ra or not rb:
            print(f"{name:<13} missing runs (A {len(ra)}, B {len(rb)})")
            ok = False
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            qa, qb = quartiles(va), quartiles(vb)
            sa, sb = (qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]
            shift = worse_by(qa[1], qb[1], m["better"])
            spread_ok = m["name"] == "setup_s" or (sa <= m["bound"] and sb <= m["bound"])
            agree = shift <= m["bound"] and spread_ok
            ok &= agree
            print(f"{name:<13} {m['name']:<14} {qa[1]:>10.4f} {qa[0]:>10.4f}..{qa[2]:<10.4f} {sa:>7.3f} "
                  f"{qb[1]:>10.4f} {qb[0]:>10.4f}..{qb[2]:<10.4f} {sb:>7.3f} {shift:>+7.3f} "
                  f"{m['bound']:>6.2f}  {'agree' if agree else 'DIFFER'}")
        fa = [r["failed"] / r["attempted"] for r in ra]
        fb = [r["failed"] / r["attempted"] for r in rb]
        same = sorted(set(fa)) == sorted(set(fb)) and len(set(fa)) == 1
        ok &= same and all(r["correct"] for r in ra + rb)
        print(f"{name:<13} failed share A {sorted(set(fa))} B {sorted(set(fb))}: "
              f"{'same' if same else 'DIFFER'}; all correct: {all(r['correct'] for r in ra + rb)}")
        ops = sorted(set().union(*(r.get("ops", {}) for r in ra + rb)))
        for op in ops:
            ma = statistics.median(r["ops"].get(op, 0.0) for r in ra)
            mb = statistics.median(r["ops"].get(op, 0.0) for r in rb)
            print(f"{'':<13} op {op:<22} A {ma:.4f} s  B {mb:.4f} s")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--runs", type=int, default=0,
                    help="run this many seeds per workload into A and B first")
    ap.add_argument("--seed-offset", type=int, default=0,
                    help="shift set B's seeds by this much")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.runs:
        for path in (args.a, args.b):
            if Path(path).exists():
                ap.error(f"{path} exists; --runs writes fresh files")
        run_set(args.a, spec, args.runs, 0)
        run_set(args.b, spec, args.runs, args.seed_offset)
    return 0 if compare(load(args.a), load(args.b), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
