"""Command-line front end.

Commands wrap the library operations one to one; input is the ideal-file
format, output is plain text or JSON ({order, field, generators, result,
timings}).  Exit codes: 0 success, 2 degree-cap abort, 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .buchberger import BuchbergerOptions, buchberger
from .modules import CapInterrupted
from .degeneration import family_from_generators, flat_family, flatness_check
from .division import normal_form
from .families import mayr_meyer
from .fields import Field, GF, QQ
from .ideals import (
    eliminate,
    hilbert_function,
    ideal_quotient,
    initial_ideal,
    is_borel_fixed,
    membership,
    sat_defect,
    saturate_variable,
)
from .orders import GREVLEX, LEX, OrderSpec, eliminate_order, weight_order
from .parser import IdealFile, ParseError, parse_ideal_file, parse_polynomial, print_ideal_file
from .resolutions import bayer_stillman_test, free_resolution, regularity

__all__ = ["main"]


class CapAbort(Exception):
    """Signals a partial result cut off by the degree cap."""


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
    if text == "QQ":
        return QQ
    if text.startswith("Fp:"):
        return GF(int(text[3:]))
    raise argparse.ArgumentTypeError(f"unknown field {text!r} (use QQ or Fp:p)")


def _load(args) -> IdealFile:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_ideal_file(
        text,
        order=args.order,
        field_override=args.field,
    )


def _options(args) -> BuchbergerOptions:
    return BuchbergerOptions(degree_cap=args.degree_cap)


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _gb_or_abort(gens, opts):
    gb = buchberger(gens, opts=opts)
    if not gb.complete:
        raise CapAbort(gb)
    return gb


def _base_payload(args, ideal: IdealFile) -> dict:
    return {
        "order": str(args.order),
        "field": "QQ" if ideal.ring.field.kind == "exact-rationals" else f"Fp:{ideal.ring.field.modulus}",
        "generators": [str(p) for p in ideal.generators],
    }


# -- commands ---------------------------------------------------------------

def cmd_gb(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    gb = buchberger(ideal.generators, opts=_options(args))
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = [str(f) for f in gb.elements]
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [str(f) for f in gb.elements])
    if not gb.complete:
        print("degree cap reached; basis is partial", file=sys.stderr)
        return 2
    return 0


def cmd_reduce(args):
    ideal = _load(args)
    g = parse_polynomial(args.poly, ideal.ring)
    t0 = time.perf_counter()
    gb = _gb_or_abort(ideal.generators, _options(args))
    nf = normal_form(g, gb)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = str(nf)
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [str(nf)])
    return 0


def cmd_member(args):
    ideal = _load(args)
    g = parse_polynomial(args.poly, ideal.ring)
    t0 = time.perf_counter()
    cert = membership(g, ideal.generators, opts=_options(args))
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = {
        "member": cert.member,
        "certificate": [str(c) for c in cert.coefficients],
        "max_coeff_degree": cert.max_coeff_degree,
    }
    payload["timings"] = {"compute": elapsed}
    lines = [f"member: {str(cert.member).lower()}"]
    if cert.member:
        for c, (name, _) in zip(cert.coefficients, ideal.entries):
            lines.append(f"  {name}: {c}")
        lines.append(f"max coefficient degree: {cert.max_coeff_degree}")
    _emit(args, payload, lines)
    return 0


def cmd_eliminate(args):
    ideal = _load(args)
    try:
        first_kept = list(ideal.ring.names).index(args.keep)
    except ValueError:
        print(f"unknown variable {args.keep!r}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    result = eliminate(ideal.generators, first_kept, opts=_options(args))
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = [str(f) for f in result]
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [str(f) for f in result])
    return 0


def cmd_saturate(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    result = saturate_variable(ideal.generators, opts=_options(args))
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = [str(f) for f in result]
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [str(f) for f in result])
    return 0


def cmd_quotient(args):
    ideal = _load(args)
    f = parse_polynomial(args.poly, ideal.ring)
    t0 = time.perf_counter()
    result = ideal_quotient(ideal.generators, f, opts=_options(args))
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = [str(g) for g in result]
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [str(g) for g in result])
    return 0


def cmd_hilbert(args):
    from .ideals import MonomialIdeal

    ideal = _load(args)
    t0 = time.perf_counter()
    gens = [g for g in ideal.generators if not g.is_zero]
    if gens:
        values = hilbert_function(gens, args.dmax)
    else:
        values = hilbert_function(MonomialIdeal.from_monomials(ideal.ring, []), args.dmax)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = values
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [",".join(str(v) for v in values)])
    return 0


def cmd_resolve(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    res = free_resolution(ideal.generators, opts=_options(args))
    if not res.complete:
        raise CapAbort(res)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = {
        "shifts": [list(s) for s in res.shifts()],
        "betti": res.betti().json_rows(),
        "length": res.length,
    }
    payload["timings"] = {"compute": elapsed}
    lines = [f"length: {res.length}"]
    for i, shifts in enumerate(res.shifts()):
        lines.append(f"step {i}: rank {len(shifts)}, shifts {sorted(shifts)}")
    _emit(args, payload, lines)
    return 0


def cmd_betti(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    res = free_resolution(ideal.generators, opts=_options(args))
    if not res.complete:
        raise CapAbort(res)
    bt = res.betti()
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = bt.json_rows()
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [bt.ascii()])
    return 0


def cmd_regularity(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    res = free_resolution(ideal.generators, opts=_options(args))
    if not res.complete:
        raise CapAbort(res)
    reg = regularity(res)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = reg
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [f"regularity: {reg}"])
    return 0


def cmd_inideal(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    ini = initial_ideal(ideal.generators, opts=_options(args))
    elapsed = time.perf_counter() - t0
    monos = [str(ini.ring.monomial(m)) for m in ini.gens]
    payload = _base_payload(args, ideal)
    payload["result"] = monos
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, monos)
    return 0


def cmd_borel(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    ini = initial_ideal(ideal.generators, opts=_options(args))
    fixed = is_borel_fixed(ini)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = {
        "initial_ideal": [str(ini.ring.monomial(m)) for m in ini.gens],
        "borel_fixed": fixed,
    }
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [f"borel-fixed: {str(fixed).lower()}"])
    return 0


def cmd_satdefect(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    sd = sat_defect(ideal.generators, seed=args.seed, opts=_options(args))
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = {
        "total": sd.total,
        "by_degree": {str(k): v for k, v in sd.by_degree.items()},
        "regularity": sd.regularity,
        "bound": sd.bound,
    }
    payload["timings"] = {"compute": elapsed}
    lines = [f"defect: {sd.total} (regularity {sd.regularity}, bound {sd.bound})"]
    for d, v in sorted(sd.by_degree.items()):
        lines.append(f"  degree {d}: {v}")
    _emit(args, payload, lines)
    return 0


def cmd_degenerate(args):
    ideal = _load(args)
    W = [int(w) for w in args.weights.split(",")]
    t0 = time.perf_counter()
    if args.no_completion:
        fam = family_from_generators(ideal.generators, W)
    else:
        fam = flat_family(ideal.generators, W, opts=_options(args))
    report = flatness_check(fam)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = {
        "family": json.loads(fam.to_json()),
        "flat": report.passed,
        "first_mismatch_degree": report.first_mismatch_degree,
    }
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [str(fam), str(report)])
    return 0


def cmd_mayr_meyer(args):
    ring, gens = mayr_meyer(args.n, homogeneous=args.homogeneous, field=args.field or GF(32003))
    ideal = IdealFile(ring, [(f"f{i+1}", g) for i, g in enumerate(gens)], True)
    sys.stdout.write(print_ideal_file(ideal))
    return 0


def cmd_bs_regular(args):
    ideal = _load(args)
    t0 = time.perf_counter()
    verdict = bayer_stillman_test(ideal.generators, args.m, trials=args.trials, seed=args.seed)
    elapsed = time.perf_counter() - t0
    payload = _base_payload(args, ideal)
    payload["result"] = verdict
    payload["timings"] = {"compute": elapsed}
    _emit(args, payload, [verdict])
    return 0


# -- wiring -------------------------------------------------------------------

def _add_common(p, needs_file=True):
    if needs_file:
        p.add_argument("file", help="ideal file path, or - for stdin")
    p.add_argument("--order", type=_parse_order, default=GREVLEX,
                   help="lex | grevlex | elim:k | weight:w0,...,wn")
    p.add_argument("--field", type=_parse_field, default=None,
                   help="QQ | Fp:p (overrides the file's field line)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree-cap", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="groebner",
                                 description="Exact Groebner basis engine")
    sub = ap.add_subparsers(dest="command", required=True)

    specs = [
        ("gb", cmd_gb, "reduced Groebner basis", {}),
        ("reduce", cmd_reduce, "normal form of --poly", {"poly": True}),
        ("member", cmd_member, "membership with certificate", {"poly": True}),
        ("eliminate", cmd_eliminate, "intersection with k[--keep ...]", {"keep": True}),
        ("saturate", cmd_saturate, "saturation by the last variable", {}),
        ("quotient", cmd_quotient, "ideal quotient by --poly", {"poly": True}),
        ("hilbert", cmd_hilbert, "Hilbert function of the quotient", {"dmax": True}),
        ("resolve", cmd_resolve, "minimal free resolution", {}),
        ("betti", cmd_betti, "Betti table", {}),
        ("regularity", cmd_regularity, "regularity from the resolution", {}),
        ("inideal", cmd_inideal, "initial ideal", {}),
        ("borel", cmd_borel, "Borel-fixedness of the initial ideal", {}),
        ("satdefect", cmd_satdefect, "saturation defect", {}),
        ("degenerate", cmd_degenerate, "flat family for --weights", {"weights": True}),
        ("bs-regular", cmd_bs_regular, "randomized regularity test at --m", {"m": True}),
    ]
    for name, fn, help_text, extra in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if extra.get("poly"):
            p.add_argument("--poly", required=True, help="polynomial in the file's ring")
        if extra.get("keep"):
            p.add_argument("--keep", required=True,
                           help="first kept variable; everything after it is kept too")
        if extra.get("dmax"):
            p.add_argument("--dmax", type=int, default=10)
        if extra.get("weights"):
            p.add_argument("--weights", required=True, help="w0,w1,...,wn")
            p.add_argument("--no-completion", action="store_true",
                           help="wrap the generators without completing the family")
        if extra.get("m"):
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--trials", type=int, default=3)
        p.set_defaults(fn=fn)

    p = sub.add_parser("mayr-meyer", help="emit the level-n tower ideal")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--field", type=_parse_field, default=None)
    p.set_defaults(fn=cmd_mayr_meyer)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CapAbort, CapInterrupted):
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
