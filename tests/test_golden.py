"""Pinned outputs of the engine: canonical bases, Betti tables, CLI runs.

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
EMBEDDED = str(DATA / "embedded.id")
# name -> (flags, file): every file command, run once with --json (under the
# name) and once as text (name + "_text"); stdout, the JSON without its
# timings, and the exit code are pinned
CLI_COMMANDS = {
    "gb": (["gb"], CUBIC),
    "gb_lex": (["gb", "--order", "lex"], CUBIC),
    "gb_lex_cap2": (["gb", "--order", "lex", "--degree-cap", "2"], CUBIC),
    "reduce": (["reduce", "--poly", "w^3 + x*z^2"], CUBIC),
    "member": (["member", "--poly", "x*z^2 - y^3"], CUBIC),
    "member_not": (["member", "--poly", "w*x"], CUBIC),
    "eliminate": (["eliminate", "--keep", "x", "--order", "lex"], CUBIC),
    "eliminate_unknown": (["eliminate", "--keep", "q"], CUBIC),
    "saturate": (["saturate"], EMBEDDED),
    "quotient": (["quotient", "--poly", "z"], EMBEDDED),
    "hilbert": (["hilbert", "--dmax", "8"], CUBIC),
    "resolve": (["resolve"], CUBIC),
    "resolve_cap2": (["resolve", "--degree-cap", "2"], CUBIC),
    "betti": (["betti"], CUBIC),
    "regularity": (["regularity"], EMBEDDED),
    "inideal": (["inideal"], CUBIC),
    "inideal_lex": (["inideal", "--order", "lex"], CUBIC),
    "borel": (["borel", "--order", "lex"], CUBIC),
    "satdefect": (["satdefect", "--seed", "5"], EMBEDDED),
    "degenerate": (["degenerate", "--weights=-16,-4,-1,0", "--order", "lex"], CUBIC),
    "bs_regular": (["bs-regular", "--m", "2", "--field", "Fp:32003", "--seed", "1"], CUBIC),
}
CLI_RUNS = {"mayr_meyer_text": ["mayr-meyer", "-n", "1", "--homogeneous"]}
for _name, (_flags, _file) in CLI_COMMANDS.items():
    CLI_RUNS[_name] = [*_flags, "--json", _file]
    CLI_RUNS[_name + "_text"] = [*_flags, _file]


def _suite_ideal(pos):
    seed, n, m, d = SUITE[pos]
    return random_ideal(seed, n, m, d, field=F)[1]


def _basis(gens, order=None, **opts):
    return [str(f) for f in buchberger(gens, order=order, **opts).elements]


def _cli_run(argv):
    """Exit code and stdout of one run; a JSON payload is parsed and its
    timings, the only field that varies between runs, are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    run = {"exit": rc, "stdout": out.getvalue()}
    if "--json" in argv and run["stdout"]:
        payload = json.loads(run.pop("stdout"))
        assert set(payload.pop("timings")) == {"compute"}
        run["json"] = payload
    return run


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
        "cli": {name: _cli_run(argv) for name, argv in CLI_RUNS.items()},
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
    assert _cli_run(CLI_RUNS[name]) == golden["cli"][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
