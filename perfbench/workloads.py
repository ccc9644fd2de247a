"""The three workloads: inputs made from a seed, and the jobs run on them.

A workload's ``build(pkg, seed)`` generates its inputs with the package's
``families`` constructors, prints them in the ideal-file format and parses
them back, so the engine receives only freshly parsed polynomials in fresh
rings (whose monomial-key caches start cold).  It returns the list of jobs
of one round.  Each job is a closed call into the package's public API plus
an independent check of its output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import algebra as A
import checks as C

PRIME = 32003

# The acceptance suites' parameter cycle: (variables, forms, degree) for
# k = 0..5.  The 4-variable cubic quadruple at k = 5 dominates every round
# it is in; certificates and resolutions swap it for (4, 3, 3), because over
# QQ its syzygies alone take 6-7 s and its resolution, regularity test and
# saturation defect together about 23 s, more than a whole run may spend.
CYCLE = [(3, 2, 1), (4, 3, 2), (3, 4, 3), (4, 2, 1), (3, 3, 2), (4, 4, 3)]
LIGHT_CYCLE = CYCLE[:5] + [(4, 3, 3)]

TOWER2_CAP = 6          # level-2 tower basis truncated at this degree
TOWER1_REGULARITY = 11  # regularity of the homogeneous level-1 tower
TOWER_HILBERT_DEGREES = 5   # Betti check of the 11-variable tower, kept small
HILBERT_DMAX = 10
FLAT_WEIGHTS = (-4, -1, 0)  # lex-like on degrees below 4 in three variables


@dataclass
class Job:
    name: str
    op: str        # per-operation time this job's time adds to
    run: Callable[[], object]
    check: Callable[[object], list]


# -- inputs ---------------------------------------------------------------------

def fmt(f: dict, names) -> str:
    """A dict polynomial in the ideal-file syntax."""
    if not f:
        return "0"
    parts = []
    for m, c in sorted(f.items(), reverse=True):
        mono = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        parts.append("*".join([str(c)] + mono))
    return " + ".join(parts)


def parse_back(pkg, ring, polys, extra=()):
    """Print generators (and extra named dict polynomials) as an ideal file
    and parse it back; returns (ring, generators, {name: extra polynomial})."""
    entries = [(f"f{i}", f) for i, f in enumerate(polys)]
    text = pkg.parser.print_ideal_file(pkg.parser.IdealFile(ring, entries, True))
    text += "".join(f"{name} = {fmt(f, ring.names)}\n" for name, f in extra)
    parsed = pkg.parser.parse_ideal_file(text)
    gens = [p for name, p in parsed.entries if name.startswith("f")]
    named = {name: p for name, p in parsed.entries if not name.startswith("f")}
    return parsed.ring, gens, named


class Ideal:
    """A parsed ideal with its dict form and a lazily filled oracle."""

    def __init__(self, gens):
        self.gens = gens
        self.ring = gens[0].ring
        self.ar = A.Arith.of(self.ring.field)
        self.dicts = [A.as_dict(g) for g in gens]
        self.oracle = A.IdealOracle(self.dicts, self.ring.nvars, self.ar)


def suite(pkg, field, seed_base, shapes):
    out = []
    for k, (nv, ng, d) in enumerate(shapes):
        ring, gens = pkg.random_ideal(seed_base + k, nv, ng, d, field=field)
        out.append((seed_base + k, parse_back(pkg, ring, gens)))
    return out


# -- output extraction ----------------------------------------------------------

def basis_checks(gb, ideal, d_max):
    elems = [A.as_dict(f) for f in gb.elements]
    fails, leads = C.check_reduced_basis(elems, A.order_key(gb.ring.order, gb.ring.nvars))
    rows = [[A.as_dict(a) for a in row] for row in gb.transform]
    gens = [A.as_dict(g) for g in gb.generators]
    fails += C.check_rows(elems, rows, gens, ideal.ar)
    if leads:
        fails += C.check_standard_counts(leads, ideal.oracle, d_max)
    return fails


def top_degree(polys):
    return max(A.poly_degree(A.as_dict(f)) for f in polys)


def steps_of(res):
    """A FreeResolution as plain data: polynomials at step 0, vectors after."""
    out = [[A.as_dict(e.comps[0]) for e in res.steps[0]]]
    for step in res.steps[1:]:
        out.append([[A.as_dict(c) for c in e.comps] for e in step])
    return out


def resolution_checks(res, ideal, d_max):
    table = dict(res.betti().entries)
    return C.check_resolution(steps_of(res), table, ideal.oracle, ideal.ar, d_max)


# -- bases ------------------------------------------------------------------------

def build_bases(pkg, seed):
    F = pkg.GF(PRIME)
    jobs = []
    for s, (ring, gens, _) in suite(pkg, F, 1000 * seed, CYCLE):
        I = Ideal(gens)
        n = ring.nvars
        out = {}

        def grevlex(gens=gens, out=out):
            out["grevlex"] = gb = pkg.buchberger(gens)
            return gb

        def grevlex_check(gb, I=I):
            return basis_checks(gb, I, top_degree(gb.elements) + 1)

        def lex(gens=gens):
            return pkg.buchberger(gens, order=pkg.LEX)

        def lex_check(gb, I=I, out=out):
            # the lex leads must give the grevlex basis's Hilbert function,
            # which the oracle pins up to one above the grevlex top degree
            return basis_checks(gb, I, top_degree(out["grevlex"].elements) + 1)

        def elim(gens=gens):
            return pkg.eliminate(gens, 1)

        def elim_check(elems, I=I, out=out):
            dicts = [A.as_dict(f) for f in elems]
            fails = C.check_supported_on(dicts, 1)
            key = A.order_key(elems[0].ring.order, n) if elems else None
            leads = [max(f, key=key) for f in dicts]
            d_max = top_degree(out["grevlex"].elements) + 1
            return fails + C.check_standard_counts(leads, I.oracle, d_max, first_kept=1)

        def hilbert(gens=gens):
            return pkg.hilbert_function(gens, HILBERT_DMAX)

        def hilbert_check(values, I=I):
            return C.check_hilbert_values(values, I.oracle)

        tag = f"s{s}"
        jobs += [
            Job(f"{tag}.grevlex", "basis", grevlex, grevlex_check),
            Job(f"{tag}.lex", "basis", lex, lex_check),
            Job(f"{tag}.eliminate", "basis", elim, elim_check),
            Job(f"{tag}.hilbert", "hilbert", hilbert, hilbert_check),
        ]
        if n == 3:
            def flat(gens=gens):
                return pkg.flat_family(gens, FLAT_WEIGHTS)

            def flat_check(fam, pkg=pkg):
                report = pkg.flatness_check(fam)
                return [] if report.passed else [f"not flat: {report}"]

            jobs.append(Job(f"{tag}.flat_family", "basis", flat, flat_check))

    hring, hgens = pkg.mayr_meyer(2, homogeneous=True, field=F)
    _, tgens, _ = parse_back(pkg, hring, hgens)
    tower = Ideal(tgens)
    moves = A.binomial_moves(tower.dicts)

    def tower_basis():
        return pkg.buchberger(tgens, degree_cap=TOWER2_CAP)

    def tower_check(gb):
        elems = [A.as_dict(f) for f in gb.elements]
        fails, _ = C.check_reduced_basis(elems, A.order_key(gb.ring.order, gb.ring.nvars))
        fails += C.check_tower_basis(elems, moves, tower.ar, TOWER2_CAP)
        rows = [[A.as_dict(a) for a in row] for row in gb.transform]
        return fails + C.check_rows(elems, rows, tower.dicts, tower.ar)

    jobs.append(Job("tower2.basis_cap6", "tower_basis", tower_basis, tower_check))
    return jobs


# -- certificates -------------------------------------------------------------------

def build_certificates(pkg, seed):
    jobs = []
    rng = random.Random(seed)
    QQ = pkg.QQ
    for s, (ring, gens, _) in suite(pkg, QQ, 1000 * seed, LIGHT_CYCLE * 2):
        ar = A.Arith.of(QQ)
        n = ring.nvars
        dicts = [A.as_dict(g) for g in gens]
        while True:
            mults = [{m: QQ.normalize(rng.randint(-3, 3)) for m in A.monomials(n, 1)} for _ in gens]
            mults = [{m: c for m, c in a.items() if c} for a in mults]
            member = A.combine(mults, dicts, ar)
            if member:
                break
        d = A.poly_degree(member)
        extra = rng.choice(A.monomials(n, d))
        candidate = dict(member)
        A.add_scaled(candidate, {extra: QQ.one}, QQ.one, None, ar)
        ring, gens, named = parse_back(pkg, ring, gens, [("g", member), ("h", candidate)])
        I = Ideal(gens)
        g, h = named["g"], named["h"]
        gdict, hdict = A.as_dict(g), A.as_dict(h)

        def basis(gens=gens):
            return pkg.buchberger(gens)

        def basis_check(gb, I=I):
            return basis_checks(gb, I, top_degree(gb.elements) + 1)

        def member_job(g=g, gens=gens):
            return pkg.membership(g, gens)

        def member_check(cert, I=I, gdict=gdict):
            coeffs = [A.as_dict(a) for a in cert.coefficients]
            truth = I.oracle.contains(gdict)
            return C.check_certificate(gdict, cert.member, coeffs, I.dicts, truth, I.ar)

        def candidate_job(h=h, gens=gens):
            return pkg.membership(h, gens)

        def candidate_check(cert, I=I, hdict=hdict):
            coeffs = [A.as_dict(a) for a in cert.coefficients]
            truth = I.oracle.contains(hdict)
            return C.check_certificate(hdict, cert.member, coeffs, I.dicts, truth, I.ar)

        def syz_job(gens=gens):
            return pkg.syzygies(gens)

        def syz_check(syz, I=I):
            vecs = [[A.as_dict(c) for c in s.comps] for s in syz]
            d_max = 2 * max(A.poly_degree(f) for f in I.dicts)
            return C.check_syzygies(vecs, I.dicts, I.oracle, I.ar, d_max)

        tag = f"s{s}"
        jobs += [
            Job(f"{tag}.basis", "basis", basis, basis_check),
            Job(f"{tag}.member", "membership", member_job, member_check),
            Job(f"{tag}.candidate", "membership", candidate_job, candidate_check),
            Job(f"{tag}.syzygies", "syzygy", syz_job, syz_check),
        ]

    ring1, gens1 = pkg.mayr_meyer(1, field=QQ)
    names = ring1.names
    witnesses = []
    for i in range(1, 5):
        for e in range(1, 5):
            S, Fv, Ci, Bi = (names.index(v) for v in ("S1", "F1", f"C{i}_1", f"B{i}_1"))
            a = tuple(1 if k in (S, Ci) else 0 for k in range(len(names)))
            b = tuple((1 if k in (Fv, Ci) else 0) + (e if k == Bi else 0) for k in range(len(names)))
            witnesses.append((f"w{i}x{e}", {a: QQ.one, b: QQ.neg(QQ.one)}))
    _, tgens, named = parse_back(pkg, ring1, gens1, witnesses)
    tdicts = [A.as_dict(f) for f in tgens]
    tar = A.Arith.of(QQ)
    moves = A.binomial_moves(tdicts)
    for name, w in witnesses:
        wpoly = named[name]

        def tower_member(wpoly=wpoly):
            return pkg.membership(wpoly, tgens)

        def tower_check(cert, w=w):
            a, b = list(w)
            truth = A.walk_joins(a, b, moves)
            coeffs = [A.as_dict(c) for c in cert.coefficients]
            return C.check_certificate(w, cert.member, coeffs, tdicts, truth, tar)

        jobs.append(Job(f"tower1.{name}", "tower_membership", tower_member, tower_check))
    return jobs


# -- resolutions ------------------------------------------------------------------

def changed_ideal(out):
    """The Ideal of the changed generators, made on first use by a check."""
    if "ideal" not in out:
        out["ideal"] = Ideal(out["gens"])
    return out["ideal"]


def build_resolutions(pkg, seed):
    F = pkg.GF(PRIME)
    jobs = []
    for s, (ring, gens, _) in suite(pkg, F, 1000 * seed + 500, LIGHT_CYCLE):
        original = Ideal(gens)
        out = {}

        def change(gens=gens, s=s, out=out):
            out["gens"], _ = pkg.generic_change(gens, seed=s)
            return out["gens"]

        def change_check(changed, original=original, out=out):
            I = changed_ideal(out)
            return [
                f"degree {d}: the change moved the Hilbert function"
                for d in range(4)
                if I.oracle.quotient_dim(d) != original.oracle.quotient_dim(d)
            ]

        def gin(out=out):
            return pkg.initial_ideal(out["gens"])

        def gin_check(mono, out=out):
            leads = list(mono.gens)
            return C.check_standard_counts(leads, changed_ideal(out).oracle, max(map(sum, leads)) + 1)

        def resolve(out=out):
            res = pkg.free_resolution(out["gens"])
            out["reg"] = pkg.regularity(res)
            return res

        def resolve_check(res, out=out):
            fails = resolution_checks(res, changed_ideal(out), out["reg"] + 2)
            own = C.regularity_of(dict(res.betti().entries))
            if own != out["reg"]:
                fails.append(f"regularity {out['reg']}, Betti table says {own}")
            return fails

        def bst_at(offset, out=out, s=s):
            return lambda: pkg.bayer_stillman_test(out["gens"], out["reg"] - offset, seed=s)

        def sat(out=out, s=s):
            return pkg.sat_defect(out["gens"], seed=s)

        def sat_check(sd, out=out):
            return C.check_sat_defect(sd.by_degree, sd.total, out["reg"], len(out["gens"][0].ring.names))

        tag = f"s{s}"
        jobs += [
            Job(f"{tag}.generic_change", "generic_change", change, change_check),
            Job(f"{tag}.gin", "basis", gin, gin_check),
            Job(f"{tag}.resolution", "resolution", resolve, resolve_check),
            Job(f"{tag}.test_at_reg", "regularity_test", bst_at(0),
                lambda v: C.check_regularity_test(v, "regular")),
            Job(f"{tag}.test_below_reg", "regularity_test", bst_at(1),
                lambda v: C.check_regularity_test(v, "not-regular")),
            Job(f"{tag}.sat_defect", "sat_defect", sat, sat_check),
        ]

    hring, hgens = pkg.mayr_meyer(1, homogeneous=True, field=F)
    _, tgens, _ = parse_back(pkg, hring, hgens)
    tower = Ideal(tgens)

    def tower_resolve():
        res = pkg.free_resolution(tgens)
        return res, pkg.regularity(res)

    def tower_check(out):
        res, reg = out
        fails = resolution_checks(res, tower, TOWER_HILBERT_DEGREES)
        if reg != TOWER1_REGULARITY:
            fails.append(f"tower regularity {reg}, expected {TOWER1_REGULARITY}")
        return fails

    jobs.append(Job("tower1.resolution", "tower_resolution", tower_resolve, tower_check))
    return jobs


WORKLOADS = {
    "bases": build_bases,
    "certificates": build_certificates,
    "resolutions": build_resolutions,
}
