"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bases --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

A run repeats whole rounds of the workload's jobs, one at a time in one
thread, until the next round would end past --seconds (at least one round;
a traced run does at least one untraced and one traced round, alternating).
Each round imports the package afresh and regenerates its inputs from the
seed, so every round starts with the program's caches cold, as a user's
process does.  After the timed pass the first round's outputs are checked
against independent computations, and every later round's outputs must
equal the first's.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.

--out FILE appends the whole record (with per-operation times) as one JSON
line, for compare.py.  A traced run writes its spans and per-layer summary
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")]
SETUP_SAMPLES = 10  # extra set-ups before the rounds, so setup_s has a steady median


def fresh_package():
    """Import the package from this checkout's src/, dropping any copy
    already imported, so module state and caches start cold."""
    for name in [n for n in sys.modules if n == "groebner" or n.startswith("groebner.")]:
        del sys.modules[name]
    pkg = importlib.import_module("groebner")
    importlib.import_module("groebner.parser")
    return pkg


def plain(x):
    """A canonical, comparable form of an output, for the round-to-round
    equality check."""
    if x is None or isinstance(x, (str, int, float, bool)):
        return x
    if isinstance(x, (list, tuple)):
        return [plain(y) for y in x]
    if isinstance(x, dict):
        return sorted((repr(k), plain(v)) for k, v in x.items())
    if hasattr(x, "terms") and hasattr(x, "ring"):
        return str(x)
    for attrs in (("comps",), ("steps",), ("elements", "transform"),
                  ("member", "coefficients"), ("members",), ("total", "by_degree"), ("gens",)):
        if all(hasattr(x, a) for a in attrs):
            return [plain(getattr(x, a)) for a in attrs]
    if hasattr(x, "poly") and hasattr(x, "t_exponents"):
        return [plain(x.poly), plain(x.t_exponents)]
    return repr(x)


def fingerprint(x) -> str:
    return hashlib.sha1(repr(plain(x)).encode()).hexdigest()


def set_up(build, seed, tracer=None):
    """Import the package afresh and build the round's jobs; returns
    (jobs, seconds)."""
    t0 = perf_counter()
    pkg = fresh_package()
    if tracer is not None:
        tracer.install()
    jobs = build(pkg, seed)
    return jobs, perf_counter() - t0


def run_round(build, seed, tracer=None):
    jobs, setup = set_up(build, seed, tracer)
    records = []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t = perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a failed operation is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append((job, out, err, perf_counter() - t))
    wall = perf_counter() - start
    return {"setup": setup, "wall": wall, "records": records}


def op_times(rnd):
    ops = {}
    for job, _, _, dt in rnd["records"]:
        ops[job.op + "_s"] = ops.get(job.op + "_s", 0.0) + dt
    return ops


def check_round(first, later):
    """Failures per job: independent checks on the first round, equality
    with the first round after it.  Returns (failed, wrong, messages)."""
    failed = wrong = 0
    messages = []
    prints = {}
    for job, out, err, _ in first["records"]:
        if err is not None:
            failed += 1
            messages.append(f"{job.name}: raised {err}")
            continue
        prints[job.name] = fingerprint(out)
        try:
            fails = job.check(out)
        except Exception as exc:
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            failed += 1
            wrong += 1
            messages.append(f"{job.name}: " + "; ".join(fails[:3]))
    for fp_round in later:
        for name, fp, err in fp_round:
            if err is not None:
                failed += 1
                messages.append(f"{name}: raised {err}")
            elif fp != prints.get(name):
                failed += 1
                wrong += 1
                messages.append(f"{name}: output differs from the first round's")
    return failed, wrong, messages


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record as a JSON line to this file")
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = []
        for name in sorted(WORKLOADS):
            argv_one = [a if a != "all" else name for a in (argv or sys.argv[1:])]
            codes.append(subprocess.run([sys.executable, __file__] + argv_one).returncode)
        return max(codes)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        pkg = fresh_package()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported the package from {pkg.__file__}, not this checkout", file=sys.stderr)
        return 2

    build = WORKLOADS[args.workload]
    traced = bool(args.trace)
    first = None
    later = []          # per later round: [(job name, fingerprint, error)]
    stats = []          # per round: (traced, setup, wall, op times, layer metrics)
    first_tracer = None
    setups = [] if traced else [set_up(build, args.seed)[1] for _ in range(SETUP_SAMPLES)]
    started = perf_counter()
    while True:
        tracer = tracing.Tracer() if traced and len(stats) % 2 == 1 else None
        rnd = run_round(build, args.seed, tracer)
        layer = tracer.metrics() if tracer is not None else None
        stats.append((tracer is not None, rnd["setup"], rnd["wall"], op_times(rnd), layer))
        if first is None:
            first = rnd
        else:
            later.append([(j.name, fingerprint(o) if e is None else None, e)
                          for j, o, e, _ in rnd["records"]])
        if tracer is not None and first_tracer is None:
            first_tracer = tracer
        elapsed = perf_counter() - started
        enough = len(stats) >= (2 if traced else 1)
        if enough and elapsed * (len(stats) + 1) / len(stats) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, wrong, messages = check_round(first, later)
    attempted = len(first["records"]) * len(stats)
    for line in messages:
        print(f"FAILED {line}", file=sys.stderr)

    plain_rounds = [s for s in stats if not s[0]]
    traced_rounds = [s for s in stats if s[0]]

    def med(rounds, pick):
        return statistics.median(pick(s) for s in rounds)

    op_names = sorted(plain_rounds[0][3])
    ops = {k: med(plain_rounds, lambda s: s[3][k]) for k in op_names}
    if traced:
        layer = {}
        for name in sorted(traced_rounds[0][4]):
            if tracing.unit_of(name) == "count":
                layer[name] = traced_rounds[0][4][name]
            else:
                layer[name] = med(traced_rounds, lambda s: s[4][name])
        layer["trace.overhead_s"] = (med(traced_rounds, lambda s: s[2])
                                     - med(plain_rounds, lambda s: s[2]))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        for name, value in layer.items():
            print(f"# layer {name} {value}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
        first_tracer.write_spans(f"{stem}.jsonl")
        counts_equal = all(s[4][n] == traced_rounds[0][4][n] for s in traced_rounds
                           for n in layer if n in s[4] and tracing.unit_of(n) == "count")
        with open(f"{stem}-summary.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": len(traced_rounds), "per_round_counts_equal": counts_equal,
                       "per_layer": {n: {"value": v, "unit": tracing.unit_of(n)}
                                     for n, v in layer.items()}}, fh, indent=1)
    else:
        values = {
            "setup_s": statistics.median(setups + [s[1] for s in plain_rounds]),
            "wall_s": med(plain_rounds, lambda s: s[2]),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"# {args.workload} seed={args.seed} rounds={len(plain_rounds)}"
          f"+{len(traced_rounds)} traced, jobs/round={len(first['records'])}")
    for name, value in ops.items():
        print(f"# op {name} {value:.4f} s")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "round_walls": [s[2] for s in plain_rounds],
                                 "ops": ops, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
