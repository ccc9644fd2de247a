"""Command-line front end.

Each file command is one row of ``COMMANDS``: its help text, the flags it
reads beyond ``--order``, ``--field`` and ``--json``, and a compute function
``(ideal, args, opts) -> Output``.  One runner, ``_run``, parses the file,
builds the options from ``--degree-cap``, times the compute function and
prints the text lines or the JSON {order, field, generators, result,
timings}.  Every file command refuses the zero ideal (a file with no
nonzero generator) with one error, before computing anything.  Exit codes:
0 success, 2 degree-cap abort, 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .buchberger import BuchbergerOptions, buchberger
from .degeneration import family_from_generators, flat_family, flatness_check
from .division import normal_form
from .families import mayr_meyer
from .fields import Field, GF
from .ideals import (
    _complete_basis,
    eliminate,
    hilbert_function,
    ideal_quotient,
    initial_ideal,
    is_borel_fixed,
    membership,
    sat_defect,
    saturate_variable,
)
from .modules import CapInterrupted
from .orders import GREVLEX, LEX, OrderSpec, eliminate_order, weight_order
from .parser import (
    IdealFile,
    ParseError,
    _field_token,
    _parse_field_token,
    parse_ideal_file,
    parse_polynomial,
    print_ideal_file,
)
from .resolutions import bayer_stillman_test, free_resolution, regularity

__all__ = ["main"]


def _parse_order(text: str) -> OrderSpec:
    if text == "lex":
        return LEX
    if text == "grevlex":
        return GREVLEX
    if text.startswith("elim:"):
        return eliminate_order(int(text[5:]))
    if text.startswith("weight:"):
        return weight_order([int(w) for w in text[7:].split(",")])
    raise argparse.ArgumentTypeError(f"unknown order {text!r}")


def _parse_field(text: str) -> Field:
    try:
        return _parse_field_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class Output(NamedTuple):
    result: object              # the JSON "result"; polynomials print through str
    lines: list | None = None   # the text output; None prints the result, one item a line
    complete: bool = True       # False only for gb's partial basis: printed, then exit 2


# -- commands: (ideal, args, opts) -> Output ----------------------------------

def _gb(ideal, args, opts):
    gb = buchberger([g for g in ideal.generators if not g.is_zero], opts=opts)
    return Output(gb.elements, complete=gb.complete)


def _reduce(ideal, args, opts):
    g = parse_polynomial(args.poly, ideal.ring)
    gens = [f for f in ideal.generators if not f.is_zero]
    nf = normal_form(g, _complete_basis(gens, opts=opts, through=g.total_degree()))
    return Output(nf, [nf])


def _member(ideal, args, opts):
    g = parse_polynomial(args.poly, ideal.ring)
    cert = membership(g, ideal.generators, opts=opts)
    lines = [f"member: {str(cert.member).lower()}"]
    if cert.member:
        lines += [f"  {name}: {c}" for c, (name, _) in zip(cert.coefficients, ideal.entries)]
        lines.append(f"max coefficient degree: {cert.max_coeff_degree}")
    result = {
        "member": cert.member,
        "certificate": cert.coefficients,
        "max_coeff_degree": cert.max_coeff_degree,
    }
    return Output(result, lines)


def _eliminate(ideal, args, opts):
    if args.keep not in ideal.ring.names:
        raise ValueError(f"unknown variable {args.keep!r}")
    return Output(eliminate(ideal.generators, ideal.ring.names.index(args.keep), opts=opts))


def _saturate(ideal, args, opts):
    return Output(saturate_variable(ideal.generators, opts=opts))


def _quotient(ideal, args, opts):
    f = parse_polynomial(args.poly, ideal.ring)
    return Output(ideal_quotient(ideal.generators, f, opts=opts))


def _hilbert(ideal, args, opts):
    values = hilbert_function([g for g in ideal.generators if not g.is_zero], args.dmax, opts)
    return Output(values, [",".join(str(v) for v in values)])


def _resolve(ideal, args, opts):
    res = free_resolution(ideal.generators, opts)
    shifts = res.shifts()
    lines = [f"length: {res.length}"]
    lines += [f"step {i}: rank {len(s)}, shifts {sorted(s)}" for i, s in enumerate(shifts)]
    result = {
        "shifts": [list(s) for s in shifts],
        "betti": res.betti().json_rows(),
        "length": res.length,
    }
    return Output(result, lines)


def _betti(ideal, args, opts):
    bt = free_resolution(ideal.generators, opts).betti()
    return Output(bt.json_rows(), [bt.ascii()])


def _regularity(ideal, args, opts):
    reg = regularity(free_resolution(ideal.generators, opts))
    return Output(reg, [f"regularity: {reg}"])


def _inideal(ideal, args, opts):
    ini = initial_ideal(ideal.generators, opts=opts)
    return Output([ini.ring.monomial(m) for m in ini.gens])


def _borel(ideal, args, opts):
    ini = initial_ideal(ideal.generators, opts=opts)
    fixed = is_borel_fixed(ini)
    result = {"initial_ideal": [ini.ring.monomial(m) for m in ini.gens], "borel_fixed": fixed}
    return Output(result, [f"borel-fixed: {str(fixed).lower()}"])


def _satdefect(ideal, args, opts):
    sd = sat_defect(ideal.generators, seed=args.seed, opts=opts)
    lines = [f"defect: {sd.total} (regularity {sd.regularity}, bound {sd.bound})"]
    lines += [f"  degree {d}: {v}" for d, v in sorted(sd.by_degree.items())]
    result = {
        "total": sd.total,
        "by_degree": {str(k): v for k, v in sd.by_degree.items()},
        "regularity": sd.regularity,
        "bound": sd.bound,
    }
    return Output(result, lines)


def _degenerate(ideal, args, opts):
    gens = ideal.generators
    W = [int(w) for w in args.weights.split(",")]
    fam = family_from_generators(gens, W) if args.no_completion else flat_family(gens, W, opts=opts)
    report = flatness_check(fam, opts)
    result = {
        "family": json.loads(fam.to_json()),
        "flat": report.passed,
        "first_mismatch_degree": report.first_mismatch_degree,
    }
    return Output(result, [fam, report])


def _bs_regular(ideal, args, opts):
    verdict = bayer_stillman_test(ideal.generators, args.m, args.trials, args.seed, opts)
    return Output(verdict, [verdict])


# -- the table and the runner -------------------------------------------------

FLAGS = {
    "--poly": dict(required=True, help="polynomial in the file's ring"),
    "--keep": dict(required=True, help="first kept variable; everything after it is kept too"),
    "--dmax": dict(type=int, default=10),
    "--weights": dict(required=True, help="w0,w1,...,wn"),
    "--no-completion": dict(action="store_true",
                            help="wrap the generators without completing the family"),
    "--m": dict(type=int, required=True),
    "--trials": dict(type=int, default=3),
    "--seed": dict(type=int, default=0),
    "--degree-cap": dict(type=int, default=None),
}

CAP = "--degree-cap"    # on every command that completes a basis
COMMANDS = {
    "gb": ("reduced Groebner basis", [CAP], _gb),
    "reduce": ("normal form of --poly", ["--poly", CAP], _reduce),
    "member": ("membership with certificate", ["--poly", CAP], _member),
    "eliminate": ("intersection with k[--keep ...]", ["--keep", CAP], _eliminate),
    "saturate": ("saturation by the last variable", [CAP], _saturate),
    "quotient": ("ideal quotient by --poly", ["--poly", CAP], _quotient),
    "hilbert": ("Hilbert function of the quotient", ["--dmax", CAP], _hilbert),
    "resolve": ("minimal free resolution", [CAP], _resolve),
    "betti": ("Betti table", [CAP], _betti),
    "regularity": ("regularity from the resolution", [CAP], _regularity),
    "inideal": ("initial ideal", [CAP], _inideal),
    "borel": ("Borel-fixedness of the initial ideal", [CAP], _borel),
    "satdefect": ("saturation defect", ["--seed", CAP], _satdefect),
    "degenerate": ("flat family for --weights", ["--weights", "--no-completion", CAP], _degenerate),
    "bs-regular": ("randomized regularity test at --m", ["--m", "--trials", "--seed", CAP],
                   _bs_regular),
}


def _run(args) -> int:
    """Load, compute, print: the body every file command shares."""
    text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text(encoding="utf-8")
    ideal = parse_ideal_file(text, order=args.order, field_override=args.field)
    if all(g.is_zero for g in ideal.generators):
        raise ValueError("the zero ideal: the file has no nonzero generator")
    opts = BuchbergerOptions(degree_cap=getattr(args, "degree_cap", None))
    t0 = time.perf_counter()
    out = args.compute(ideal, args, opts)
    elapsed = time.perf_counter() - t0
    if args.json:
        payload = {
            "order": str(args.order),
            "field": _field_token(ideal.ring.field),
            "generators": ideal.generators,
            "result": out.result,
            "timings": {"compute": elapsed},
        }
        if not out.complete:
            payload["complete"] = False
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in out.result if out.lines is None else out.lines:
            print(line)
    if not out.complete:
        print("degree cap reached; basis is partial", file=sys.stderr)
        return 2
    return 0


def _mayr_meyer(args) -> int:
    ring, gens = mayr_meyer(args.n, homogeneous=args.homogeneous, field=args.field or GF(32003))
    ideal = IdealFile(ring, [(f"f{i+1}", g) for i, g in enumerate(gens)], True)
    sys.stdout.write(print_ideal_file(ideal))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="groebner", description="Exact Groebner basis engine")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, compute) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="ideal file path, or - for stdin")
        p.add_argument("--order", type=_parse_order, default=GREVLEX,
                       help="lex | grevlex | elim:k | weight:w0,...,wn")
        p.add_argument("--field", type=_parse_field, default=None,
                       help="QQ | Fp:p (overrides the file's field line)")
        p.add_argument("--json", action="store_true")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=_run, compute=compute)

    p = sub.add_parser("mayr-meyer", help="emit the level-n tower ideal")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--field", type=_parse_field, default=None)
    p.set_defaults(fn=_mayr_meyer)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapInterrupted:
        print("degree cap reached; result is partial", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
