"""Independent checks of the program's outputs.

Every check takes plain data (dict polynomials from ``algebra``) extracted
from an output, and returns a list of failure messages, empty when the
output is right.  The ground truth comes from Macaulay-matrix ranks and
the binomial walk in ``algebra``, never from the completion engine.
"""

from __future__ import annotations

from math import comb

import algebra as A


def check_reduced_basis(elems, key):
    """Monic, terms re-sorted by the order's own key, and no monomial of one
    element divisible by another element's lead.  Returns (failures, leads)."""
    fails = []
    if key is None:
        return ["no order key to check against"], []
    leads = []
    for i, f in enumerate(elems):
        if not f:
            return [f"element {i} is zero"], []
        lead = max(f, key=key)
        if f[lead] != 1:
            fails.append(f"element {i} is not monic")
        leads.append(lead)
    for i, f in enumerate(elems):
        for j, lj in enumerate(leads):
            if i != j and any(A.divides(lj, m) for m in f):
                fails.append(f"element {i} is reducible by the lead of element {j}")
                break
    return fails, leads


def check_rows(elems, rows, gens, ar):
    """Each transform row recombines the generators to its element."""
    fails = []
    if len(rows) != len(elems):
        return [f"{len(rows)} transform rows for {len(elems)} elements"]
    for i, (f, row) in enumerate(zip(elems, rows)):
        if A.combine(row, gens, ar) != f:
            fails.append(f"transform row {i} does not recombine to its element")
    return fails


def check_standard_counts(leads, oracle, d_max, first_kept=0):
    """In each degree up to d_max, the monomials outside the lead ideal
    number dim (S/I)_d; with first_kept > 0, only monomials free of the
    first first_kept variables count, against the eliminated slice."""
    n = oracle.nvars
    fails = []
    for d in range(d_max + 1):
        got = A.standard_count(leads, n, d, first_kept)
        if first_kept:
            want = A.dim_s(n - first_kept, d) - oracle.eliminated_dim(d, first_kept)
        else:
            want = oracle.quotient_dim(d)
        if got != want:
            fails.append(f"degree {d}: {got} standard monomials, oracle says {want}")
    return fails


def check_hilbert_values(values, oracle):
    return [
        f"H({d}) = {v}, oracle says {oracle.quotient_dim(d)}"
        for d, v in enumerate(values)
        if v != oracle.quotient_dim(d)
    ]


def check_supported_on(elems, first_kept):
    return [
        f"element {i} involves an eliminated variable"
        for i, f in enumerate(elems)
        if any(any(m[:first_kept]) for m in f)
    ]


def check_tower_basis(elems, moves, ar, degree_cap):
    """Every element is a monic difference of two monomials of degree at most
    the cap, and the walk joins its two monomials."""
    fails = []
    minus_one = ar.neg(1)
    for i, f in enumerate(elems):
        if len(f) != 2 or sorted(f.values()) != sorted([1, minus_one]):
            fails.append(f"element {i} is not a difference of two monomials")
            continue
        a, b = list(f)
        if A.degree(a) > degree_cap or A.degree(b) > degree_cap:
            fails.append(f"element {i} exceeds the degree cap {degree_cap}")
            continue
        joined = A.walk_joins(a, b, moves)
        if joined is not True:
            fails.append(f"element {i}: the walk does not join its monomials ({joined})")
    return fails


def check_certificate(g, member, coeffs, gens, truth, ar):
    """The verdict equals the independent one, and a member's certificate
    expands exactly to g."""
    if truth is None:
        return ["the independent verdict is unknown"]
    if member != truth:
        return [f"verdict {member}, independent verdict {truth}"]
    if member and A.combine(coeffs, gens, ar) != g:
        return ["the certificate does not expand to the polynomial"]
    return []


def check_syzygies(syz, gens, oracle, ar, d_max):
    """Each syzygy maps to zero, and in each degree up to d_max the
    syzygies' monomial multiples span sum_i dim S_{d - deg f_i} - dim I_d."""
    n = oracle.nvars
    fails = []
    gdeg = [A.poly_degree(f) for f in gens]
    sdeg = []
    for k, s in enumerate(syz):
        if A.combine(s, gens, ar):
            fails.append(f"syzygy {k} does not map to zero")
        degs = {A.degree(m) + gdeg[i] for i, c in enumerate(s) for m in c}
        if len(degs) != 1:
            fails.append(f"syzygy {k} is not homogeneous")
            degs = {0}
        sdeg.append(degs.pop())
    if fails:
        return fails
    for d in range(min(gdeg), d_max + 1):
        cols = [(i, m) for i, e in enumerate(gdeg) for m in A.monomials(n, d - e)]
        index = {c: j for j, c in enumerate(cols)}
        rows = []
        for s, e in zip(syz, sdeg):
            for m in A.monomials(n, d - e):
                row = [0] * len(cols)
                for i, c in enumerate(s):
                    for mono, x in c.items():
                        row[index[(i, A.mono_mul(mono, m))]] = ar.to_rank_field(x)
                rows.append(row)
        got = A.rank(rows, len(cols), ar.rank_modulus())
        want = len(cols) - oracle.dim(d)
        if got != want:
            fails.append(f"degree {d}: syzygies span {got}, expected {want}")
    return fails


def resolution_degrees(steps):
    """Degrees of the basis elements at each step: step 0 holds polynomials,
    step k holds vectors over step k-1.  Raises ValueError when an element
    is not homogeneous."""
    degs = [[A.poly_degree(f) for f in steps[0]]]
    for k in range(1, len(steps)):
        row = []
        for v in steps[k]:
            ds = {A.degree(m) + degs[k - 1][r] for r, c in enumerate(v) for m in c}
            if len(ds) != 1:
                raise ValueError(f"step {k} has an inhomogeneous element")
            row.append(ds.pop())
        degs.append(row)
    return degs


def betti(steps):
    """{(step, degree): count} of a resolution given as plain data."""
    out = {}
    for k, row in enumerate(resolution_degrees(steps)):
        for d in row:
            out[(k, d)] = out.get((k, d), 0) + 1
    return out


def check_resolution(steps, table, oracle, ar, d_max):
    """Maps compose to zero, no constant entry past step 0, and the Betti
    table's alternating numerator reproduces dim I_d up to d_max.  table is
    the Betti table the program reports, {(step, degree): count}."""
    fails = []
    for k in range(1, len(steps)):
        prev = steps[k - 1]
        for j, v in enumerate(steps[k]):
            if k == 1:
                image = [A.combine(v, prev, ar)]
            else:
                width = len(prev[0]) if prev else 0
                image = [A.combine(v, [p[col] for p in prev], ar) for col in range(width)]
            if any(image):
                fails.append(f"step {k} element {j} does not map to zero")
            if any(A.degree(m) == 0 for c in v for m in c):
                fails.append(f"step {k} element {j} has a constant entry")
    try:
        own = betti(steps)
    except ValueError as exc:
        return fails + [str(exc)]
    if own != table:
        fails.append(f"Betti table {table} differs from the maps' degrees {own}")
    numerator = {}
    for (k, d), b in table.items():
        numerator[d] = numerator.get(d, 0) + (-b if k % 2 else b)
    n = oracle.nvars
    for d in range(d_max + 1):
        got = sum(c * A.dim_s(n, d - e) for e, c in numerator.items() if e <= d)
        if got != oracle.dim(d):
            fails.append(f"degree {d}: Betti numerator gives {got}, oracle says {oracle.dim(d)}")
    return fails


def regularity_of(table):
    return max(d - k for k, d in table)


def check_regularity_test(verdict, expected):
    return [] if verdict == expected else [f"verdict {verdict!r}, expected {expected!r}"]


def check_sat_defect(by_degree, total, reg, nvars):
    fails = [f"negative defect in degree {d}" for d, v in by_degree.items() if v < 0]
    if sum(by_degree.values()) != total:
        fails.append("the per-degree defects do not sum to the total")
    n = nvars - 1
    if total > comb(reg + n, n + 1):
        fails.append(f"defect {total} over the bound binom({reg}+{n}, {n + 1})")
    return fails
