"""Spans around the package's layer boundaries, for the traced run.

``Tracer.install()`` replaces each function listed in ``LAYERS`` at every
binding through which the package resolves it: the attribute in its
defining module and in every package module that imported the name.  The
two reduction-kernel methods of ``Polynomial`` are replaced on the class.
Spans are kept in memory; self time is a span's duration minus that of the
spans it called.  The kernel methods run millions of times, so they record
no span of their own: each call adds its count, time and terms to the
totals and its duration to the enclosing span's child time.

An untraced round imports the package afresh and installs nothing.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# module -> functions wrapped there; span names are "<module>.<function>"
LAYERS = {
    "division": ["divide"],
    "modules": [
        "module_divide", "module_buchberger", "_interreduce",
        "syzygy_generators", "minimalize_generators",
    ],
    "buchberger": ["buchberger"],
    "ideals": [
        "initial_ideal", "hilbert_function", "eliminate", "membership",
        "saturate_variable", "saturation", "generic_change", "sat_defect",
    ],
    "resolutions": ["free_resolution", "bayer_stillman_test"],
    "oracle": ["rank_of_rows"],
    "degeneration": ["flat_family"],
    "parser": ["parse_ideal_file"],
}

# (span name, Polynomial method); both call no traced function
KERNEL = [("poly.submul", "submul"), ("poly.mul", "__mul__")]


def _count_divide(stats, parent, args, result):
    stats["division.divide.steps"] += result.reduction_steps


def _count_module_divide(stats, parent, args, result):
    stats["modules.module_divide.steps"] += result.steps
    if parent is not None and parent[1] == "modules.module_buchberger":
        stats["modules.spair.reductions"] += 1
        if result.remainder.is_zero:
            stats["modules.spair.zero_reductions"] += 1


def _count_buchberger(stats, parent, args, result):
    stats["modules.module_buchberger.basis_out"] += len(result.elements)


def _count_minimalize(stats, parent, args, result):
    n = len(args[0])
    stats["modules.minimalize_generators.candidates"] += n
    stats["modules.minimalize_generators.dropped"] += n - len(result)


def _count_syzygies(stats, parent, args, result):
    stats["modules.syzygy_generators.pushed"] += len(result)


def _count_rank(stats, parent, args, result):
    rows = args[0]
    stats["oracle.rank_of_rows.rows"] += len(rows)
    stats["oracle.rank_of_rows.cells"] += sum(len(r) for r in rows)


COUNTERS = {
    "division.divide": _count_divide,
    "modules.module_divide": _count_module_divide,
    "modules.module_buchberger": _count_buchberger,
    "modules.minimalize_generators": _count_minimalize,
    "modules.syzygy_generators": _count_syzygies,
    "oracle.rank_of_rows": _count_rank,
}

# per-layer metrics of BENCHMARK.json: (name, unit).  Self times of layers
# that some workload never calls read 0 there on every run, so for those
# layers only counts are listed here; every layer's self time is still in
# the run's summary file and printed as a "# layer" line.
PER_LAYER = [
    ("poly.submul.calls", "count"), ("poly.submul.terms", "count"),
    ("poly.submul.self_s", "s"), ("poly.submul.ns_per_term", "ns"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("division.divide.calls", "count"), ("division.divide.steps", "count"),
    ("modules.module_divide.calls", "count"), ("modules.module_divide.steps", "count"),
    ("modules.module_divide.self_s", "s"),
    ("modules.module_buchberger.calls", "count"), ("modules.module_buchberger.self_s", "s"),
    ("modules.module_buchberger.basis_out", "count"),
    ("modules.spair.reductions", "count"), ("modules.spair.zero_reductions", "count"),
    ("modules.minimalize_generators.calls", "count"),
    ("modules.minimalize_generators.candidates", "count"),
    ("modules.minimalize_generators.dropped", "count"),
    ("modules.syzygy_generators.calls", "count"), ("modules.syzygy_generators.pushed", "count"),
    ("resolutions.free_resolution.calls", "count"),
    ("resolutions.bayer_stillman_test.calls", "count"),
    ("oracle.rank_of_rows.calls", "count"), ("oracle.rank_of_rows.rows", "count"),
    ("oracle.rank_of_rows.cells", "count"),
    ("ideals.initial_ideal.calls", "count"), ("ideals.hilbert_function.calls", "count"),
    ("ideals.eliminate.calls", "count"), ("ideals.membership.calls", "count"),
    ("ideals.saturate_variable.calls", "count"), ("ideals.saturation.calls", "count"),
    ("ideals.generic_change.calls", "count"), ("ideals.sat_defect.calls", "count"),
    ("buchberger.buchberger.calls", "count"), ("buchberger.buchberger.self_s", "s"),
    ("degeneration.flat_family.calls", "count"),
    ("parser.parse_ideal_file.calls", "count"), ("parser.parse_ideal_file.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def unit_of(name):
    if name.endswith("ns_per_term"):
        return "ns"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Collects spans and per-layer totals for one traced round."""

    def __init__(self):
        self.job = "setup"
        self.stack = []      # open spans: [id, name, child seconds]
        self.spans = []      # (id, name, start, end, parent id, job)
        self.stats = {k: 0 for k, _ in PER_LAYER if k != "trace.overhead_s"}
        self.kernel = {}     # name -> [calls, seconds, terms]
        self.next_id = 0
        self.origin = perf_counter()

    def install(self, pkg_name="groebner"):
        """Wrap every listed function at each binding in the package."""
        mods = [m for n, m in list(sys.modules.items())
                if n == pkg_name or n.startswith(pkg_name + ".")]
        for module, funcs in LAYERS.items():
            home = sys.modules[f"{pkg_name}.{module}"]
            for func in funcs:
                name = f"{module}.{func}"
                orig = getattr(home, func)
                wrapper = self._span(name, orig, COUNTERS.get(name))
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
        cls = sys.modules[f"{pkg_name}.poly"].Polynomial
        for name, method in KERNEL:
            setattr(cls, method, self._kernel(name, getattr(cls, method)))

    def _span(self, name, fn, counter):
        tracer = self
        stats = self.stats
        for key in ("calls", "self_s"):
            stats.setdefault(f"{name}.{key}", 0)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.next_id, name, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                stats[f"{name}.calls"] += 1
                stats[f"{name}.self_s"] += t1 - t0 - frame[2]
                tracer.spans.append(
                    (frame[0], name, t0, t1, parent[0] if parent else None, tracer.job)
                )
            if counter is not None:
                counter(stats, parent, args, result)
            return result

        return wrapper

    def _kernel(self, name, fn):
        tracer = self
        totals = self.kernel.setdefault(name, [0, 0.0, 0])
        with_terms = name == "poly.submul"

        def wrapper(poly, *args):
            t0 = perf_counter()
            result = fn(poly, *args)
            dt = perf_counter() - t0
            if tracer.stack:
                tracer.stack[-1][2] += dt
            totals[0] += 1
            totals[1] += dt
            if with_terms:
                totals[2] += len(poly.terms) + len(args[2].terms)
            return result

        return wrapper

    def metrics(self) -> dict:
        """This round's value of every counter and self time."""
        out = dict(self.stats)
        for name, (calls, secs, terms) in self.kernel.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = secs
            if name == "poly.submul":
                out[f"{name}.terms"] = terms
                out[f"{name}.ns_per_term"] = secs * 1e9 / terms if terms else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0 - self.origin,
                    "end": t1 - self.origin, "parent": parent, "job": job,
                }) + "\n")
