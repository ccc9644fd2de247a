"""The benchmark's tracer still finds every layer it wraps in the package.

``perfbench/tracing.py`` names the functions it wraps as strings, so a
rename or deletion in the package breaks the traced benchmark run without
failing any import.  This loads the tracer by path, as it ships, and checks
its names against a freshly imported copy of the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _package_modules():
    return [n for n in sys.modules if n == "groebner" or n.startswith("groebner.")]


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fresh_groebner():
    """A second copy of the package for the tracer to patch; the copy the
    other tests imported is put back afterwards, untouched."""
    saved = {n: sys.modules.pop(n) for n in _package_modules()}
    try:
        pkg = importlib.import_module("groebner")
        importlib.import_module("groebner.parser")
        yield pkg
    finally:
        for n in _package_modules():
            del sys.modules[n]
        sys.modules.update(saved)


def test_every_traced_layer_exists(tracing, fresh_groebner):
    for module, funcs in tracing.LAYERS.items():
        home = sys.modules[f"groebner.{module}"]
        for func in funcs:
            assert callable(getattr(home, func, None)), f"{module}.{func}"
    poly_class = sys.modules["groebner.poly"].Polynomial
    for _, method in tracing.KERNEL:
        assert callable(getattr(poly_class, method, None)), method


def test_tracer_counts_the_oracle_rank(tracing, fresh_groebner):
    oracle = sys.modules["groebner.oracle"]
    _, gens = fresh_groebner.twisted_cubic(fresh_groebner.QQ, fresh_groebner.GREVLEX)
    mat = oracle.macaulay_matrix(gens, 3)
    tracer = tracing.Tracer()
    tracer.install()
    # 20 cubic monomials, 3·3 + 1 of them outside the ideal
    assert fresh_groebner.ideal_dim_in_degree(gens, 3) == 20 - 10
    stats = tracer.metrics()
    assert stats["oracle.rank_of_rows.calls"] == 1
    assert stats["oracle.rank_of_rows.rows"] == len(mat.rows) == 12
    assert stats["oracle.rank_of_rows.cells"] == sum(len(r) for r in mat.rows)
