"""Pinned outputs of the engine: bases, Betti tables, CLI runs, and the
non-canonical outputs that depend on how the engine combines rows.

Bases, Betti tables and Hilbert functions are canonical, so any correct
change to the completion engine must leave them byte-identical.  Transform
rows, membership certificates, syzygy generators and resolution maps are
not canonical: they are pinned so that a refactor which claims to keep the
engine's arithmetic unchanged can show it.  These larger outputs are stored
as sha1 digests of their printed form.  The data lives in
tests/data/golden.json; regenerate it only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from groebner import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    buchberger,
    free_resolution,
    mayr_meyer,
    membership,
    random_ideal,
    regularity,
    syzygies,
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
# (field name, suite positions) whose syzygies and certificates are pinned;
# over QQ the coefficients of position 5 grow to megabytes, so QQ stops at 4
FIELDS = {"QQ": QQ, "Fp:32003": F}
SYZYGY_SUITE = {"QQ": range(5), "Fp:32003": range(6)}
CERTIFIED = range(5)
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


def _suite_ideal(pos, field=F):
    seed, n, m, d = SUITE[pos]
    return random_ideal(seed, n, m, d, field=field)[1]


def _basis(gens, order=None, **opts):
    return [str(f) for f in buchberger(gens, order=order, **opts).elements]


def _digest(value):
    """sha1 of the JSON text of printed polynomials."""
    text = json.dumps(value, default=str, sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()


def _rows(gens, order):
    return _digest(buchberger(gens, order=order).transform)


def _syzygies(field_name, pos):
    """Syzygies of the suite generators as given, and of their reduced basis."""
    gens = _suite_ideal(pos, FIELDS[field_name])
    reduced = buchberger(gens).elements
    return {
        "raw": _digest([s.comps for s in syzygies(gens)]),
        "reduced": _digest([s.comps for s in syzygies(reduced)]),
    }


def _certificates(field_name, pos):
    """Certificates of a homogeneous member and of an affine member: each
    generator times a product of two variables, with the last variable
    added to every generator in the affine case."""
    field = FIELDS[field_name]
    seed, n, m, d = SUITE[pos]
    ring, gens = random_ideal(seed, n, m, d, field=field)
    xs = ring.variables()
    affine = [f + xs[-1] for f in gens]
    out = {}
    for name, ideal in (("homogeneous", gens), ("affine", affine)):
        g = ring.zero()
        for k, f in enumerate(ideal):
            g = g + xs[k % n] * xs[(k + 1) % n] * f
        out[name] = [str(a) for a in membership(g, ideal).coefficients]
    return out


def _tower_certificates():
    """The 16 level-1 tower witnesses S1*Ci - F1*Ci*Bi^e, i, e = 1..4."""
    ring, gens = mayr_meyer(1, field=QQ)
    v = {name: ring.variable(name) for name in ring.names}
    out = {}
    for i in range(1, 5):
        for e in range(1, 5):
            c, b = v[f"C{i}_1"], v[f"B{i}_1"]
            w = v["S1"] * c - v["F1"] * c * b**e
            cert = membership(w, gens)
            out[f"{i},{e}"] = {"member": cert.member, "digest": _digest(cert.coefficients)}
    return out


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


@functools.lru_cache(maxsize=None)
def _free_resolution(pos):
    return free_resolution(_suite_ideal(pos))


def _resolution(pos):
    res = _free_resolution(pos)
    return {"betti": res.betti().json_rows(), "regularity": regularity(res)}


def _resolution_maps(pos):
    return _digest([[e.comps for e in step] for step in _free_resolution(pos).steps])


def generate():
    return {
        "grevlex": [_basis(_suite_ideal(p), GREVLEX) for p in range(len(SUITE))],
        "lex": [_basis(_suite_ideal(p), LEX) for p in range(len(SUITE))],
        "tower2_cap6": _tower_basis(),
        "resolutions": {str(p): _resolution(p) for p in RESOLVED},
        "cli": {name: _cli_run(argv) for name, argv in CLI_RUNS.items()},
        "transform_rows": {
            "grevlex": [_rows(_suite_ideal(p), GREVLEX) for p in range(len(SUITE))],
            "lex": [_rows(_suite_ideal(p), LEX) for p in range(len(SUITE))],
        },
        "syzygies": {
            f"{name}/{p}": _syzygies(name, p)
            for name, positions in SYZYGY_SUITE.items() for p in positions
        },
        "certificates": {
            f"{name}/{p}": _certificates(name, p) for name in FIELDS for p in CERTIFIED
        },
        "tower1_certificates": _tower_certificates(),
        "resolution_maps": {str(p): _resolution_maps(p) for p in RESOLVED},
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


@pytest.mark.parametrize("pos", range(len(SUITE)))
def test_transform_rows(golden, pos):
    gens = _suite_ideal(pos)
    assert _rows(gens, GREVLEX) == golden["transform_rows"]["grevlex"][pos]
    assert _rows(gens, LEX) == golden["transform_rows"]["lex"][pos]


@pytest.mark.parametrize(
    "name,pos", [(name, p) for name, ps in SYZYGY_SUITE.items() for p in ps]
)
def test_syzygies(golden, name, pos):
    assert _syzygies(name, pos) == golden["syzygies"][f"{name}/{pos}"]


@pytest.mark.parametrize("name,pos", [(name, p) for name in FIELDS for p in CERTIFIED])
def test_membership_certificates(golden, name, pos):
    assert _certificates(name, pos) == golden["certificates"][f"{name}/{pos}"]


def test_tower_certificates(golden):
    certs = _tower_certificates()
    assert [key for key, c in certs.items() if c["member"]] == ["1,2", "2,2", "3,2", "4,2"]
    assert certs == golden["tower1_certificates"]


@pytest.mark.parametrize("pos", RESOLVED)
def test_resolution_maps(golden, pos):
    assert _resolution_maps(pos) == golden["resolution_maps"][str(pos)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
