"""Pinned outputs of the engine: canonical bases, Betti tables, CLI results.

Every value here is canonical (a reduced basis, a Betti table, a Hilbert
function), so any correct change to the completion engine must leave it
byte-identical.  The data lives in tests/data/golden.json; regenerate it
only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from groebner import (
    GF,
    GREVLEX,
    LEX,
    buchberger,
    free_resolution,
    mayr_meyer,
    random_ideal,
    regularity,
)
from groebner.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"
CUBIC = str(DATA / "twisted_cubic.id")
F = GF(32003)

# (seed, variables, forms, degree): the acceptance suites' shape cycle
SUITE = [(1000 + k, 3 + k % 2, 2 + k % 3, 1 + k % 3) for k in range(6)]
RESOLVED = [0, 1, 2, 4]          # suite positions whose resolutions are pinned
TOWER_CAP = 6
CLI_RUNS = {
    "gb": ["gb", "--json", CUBIC],
    "gb_lex": ["gb", "--order", "lex", "--json", CUBIC],
    "resolve": ["resolve", "--json", CUBIC],
    "betti": ["betti", "--json", CUBIC],
    "hilbert": ["hilbert", "--dmax", "8", "--json", CUBIC],
    "inideal": ["inideal", "--json", CUBIC],
    "inideal_lex": ["inideal", "--order", "lex", "--json", CUBIC],
}


def _suite_ideal(pos):
    seed, n, m, d = SUITE[pos]
    return random_ideal(seed, n, m, d, field=F)[1]


def _basis(gens, order=None, **opts):
    return [str(f) for f in buchberger(gens, order=order, **opts).elements]


def _cli_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0
    return json.loads(out.getvalue())["result"]


def _tower_basis():
    _, gens = mayr_meyer(2, homogeneous=True, field=F)
    return _basis(gens, degree_cap=TOWER_CAP)


def _resolution(pos):
    res = free_resolution(_suite_ideal(pos))
    return {"betti": res.betti().json_rows(), "regularity": regularity(res)}


def generate():
    return {
        "grevlex": [_basis(_suite_ideal(p), GREVLEX) for p in range(len(SUITE))],
        "lex": [_basis(_suite_ideal(p), LEX) for p in range(len(SUITE))],
        "tower2_cap6": _tower_basis(),
        "resolutions": {str(p): _resolution(p) for p in RESOLVED},
        "cli": {name: _cli_result(argv) for name, argv in CLI_RUNS.items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("pos", range(len(SUITE)))
def test_suite_bases(golden, pos):
    gens = _suite_ideal(pos)
    assert _basis(gens, GREVLEX) == golden["grevlex"][pos]
    assert _basis(gens, LEX) == golden["lex"][pos]


def test_tower_basis_at_cap(golden):
    basis = _tower_basis()
    assert len(basis) == 74
    assert basis == golden["tower2_cap6"]


@pytest.mark.parametrize("pos", RESOLVED)
def test_betti_tables_and_regularity(golden, pos):
    assert _resolution(pos) == golden["resolutions"][str(pos)]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_results(golden, name):
    assert _cli_result(CLI_RUNS[name]) == golden["cli"][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
