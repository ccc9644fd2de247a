"""The text format and the command-line wrappers."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from groebner import GF, LEX, QQ, buchberger, ideal_quotient
from groebner.cli import COMMANDS, main
from groebner.parser import (
    ParseError,
    parse_ideal_file,
    parse_polynomial,
    print_ideal_file,
)

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
CUBIC = str(DATA / "twisted_cubic.id")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_twisted_cubic_file():
    ideal = parse_ideal_file((DATA / "twisted_cubic.id").read_text(), order=LEX)
    assert ideal.ring.names == ("w", "x", "y", "z")
    assert ideal.ring.field == QQ
    w, x, y, z = ideal.ring.variables()
    assert ideal.generators[0] == w * w - x * y


def test_parse_print_round_trip():
    text = (DATA / "twisted_cubic.id").read_text()
    ideal = parse_ideal_file(text, order=LEX)
    printed = print_ideal_file(ideal)
    reparsed = parse_ideal_file(printed, order=LEX)
    assert reparsed.entries == ideal.entries
    assert print_ideal_file(reparsed) == printed


def test_round_trip_with_rational_coefficients():
    text = "field QQ\nring x y\nf = 1/2*x^2 - 3*y^2\n"
    ideal = parse_ideal_file(text)
    assert print_ideal_file(parse_ideal_file(print_ideal_file(ideal))) == print_ideal_file(ideal)


def test_round_trip_prime_field():
    text = "field Fp:7\nring x y\nf = 6*x + y\ng = 1/2*x\n"
    ideal = parse_ideal_file(text)
    reparsed = parse_ideal_file(print_ideal_file(ideal))
    assert reparsed.generators == ideal.generators
    x, y = ideal.ring.variables()
    assert ideal.generators[1] == 4 * x


# (text, line, column, message): every error the parser raises
PARSE_ERRORS = [
    ("field QQ\nring x y\nf = x^-1\n", 3, 7, "exponent must be"),
    ("field QQ\nring x y\nf = x^\n", 3, 7, "exponent must be"),
    ("field QQ\nring x y\nf = 2x\n", 3, 6, "expected '+' or '-'"),
    ("field QQ\nring x y\nf = x + q\n", 3, 9, "unknown variable 'q'"),
    ("field QQ\nring x y\nf = x $ y\n", 3, 7, "unexpected character '$'"),
    ("field QQ\nring x y\nf = 1/x\n", 3, 7, "expected an integer denominator"),
    ("field QQ\nring x y\nf = 1/0*x + y\n", 3, 7, "denominator 0 is zero in QQ"),
    ("field Fp:7\nring x y\nf = 1/7*x\n", 3, 7, "denominator 7 is zero in F_7"),
    ("field Fp:7\nring x y\nf = 1/14*x\n", 3, 7, "denominator 14 is zero in F_7"),
    ("field QQ\nring x y\nf = x * = y\n", 3, 9, "expected a coefficient or a variable"),
    ("field QQ\nring x y\nf = x +\n", 3, 8, "expected a coefficient or a variable"),
    ("field Fp:10\nring x\nf = x\n", 1, 7, "modulus must be prime"),
    ("field Fp:a\nring x\n", 1, 7, "bad modulus"),
    ("field RR\nring x\n", 1, 7, "unknown field 'RR'"),
    ("field\nring x\n", 1, 7, "unknown field ''"),
    ("ring x\nfield QQ\nf = x\n", 2, 1, "field must come before the ring"),
    ("ring x\nring y\n", 2, 1, "duplicate ring declaration"),
    ("field QQ\nring\nf = x\n", 2, 6, "ring needs at least one variable"),
    ("ring x y x\n", 1, 6, "duplicate variable names"),
    # indented declarations: each error points at its token in the raw line
    ("   field RR\nring x\n", 1, 10, "unknown field 'RR'"),
    ("  ring x x\n", 1, 8, "duplicate variable names"),
    ("  ring x\n ring y\n", 2, 2, "duplicate ring declaration"),
    ("ring x\n   field QQ\n", 2, 4, "field must come before the ring"),
    ("field QQ\n  ring\n", 2, 8, "ring needs at least one variable"),
    ("field QQ\nf = x\nring x\n", 2, 1, "polynomials must follow a ring declaration"),
    ("ring x\nx + 1\n", 2, 1, "expected 'name = polynomial'"),
    ("# no ring\nfield QQ\n", 1, 1, "missing ring declaration"),
    # a tab, or a run of blanks, ends a declaration's keyword as a space does
    ("field\tRR\nring x\n", 1, 7, "unknown field 'RR'"),
    ("field \t QQ\nring\tx x\n", 2, 6, "duplicate variable names"),
]


def test_parse_errors_carry_position():
    for text, line, column, message in PARSE_ERRORS:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_ideal_file(text)
        assert (err.value.line, err.value.column) == (line, column), text
        assert str(err.value).startswith(f"line {line}, column {column}: "), text


def test_declarations_split_at_any_whitespace():
    for text in ("field\tQQ\nring\tx y\nf = x*y\n", "field  QQ\nring \t x  y\nf = x*y\n"):
        ideal = parse_ideal_file(text)
        assert ideal.ring.names == ("x", "y") and ideal.ring.field == QQ
        x, y = ideal.ring.variables()
        assert ideal.generators == [x * y]


def test_empty_polynomial_list_is_zero_ideal():
    ideal = parse_ideal_file("field QQ\nring x y\n")
    assert ideal.generators == []


def test_field_override():
    text = "field QQ\nring x y\nf = 3*x - y\n"
    ideal = parse_ideal_file(text, field_override=GF(32003))
    assert ideal.ring.field == GF(32003)


def test_parse_polynomial_helper():
    ideal = parse_ideal_file("field QQ\nring x y\n")
    f = parse_polynomial("x^2 - 2*y", ideal.ring)
    x, y = ideal.ring.variables()
    assert f == x * x - y - y


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_gb_command_lex(capsys):
    rc = main(["gb", "--order", "lex", CUBIC])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA / "twisted_cubic.gb.lex.golden").read_text()


def test_hilbert_command(capsys):
    rc = main(["hilbert", "--dmax", "10", CUBIC])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "1,4,7,10,13,16,19,22,25,28,31"


# the flags each file command needs besides the file
ZERO_IDEAL_FLAGS = {
    "gb": [], "reduce": ["--poly", "x"], "member": ["--poly", "x"],
    "eliminate": ["--keep", "y"], "saturate": [], "quotient": ["--poly", "x"],
    "hilbert": ["--dmax", "4"], "resolve": [], "betti": [], "regularity": [],
    "inideal": [], "borel": [], "satdefect": [], "degenerate": ["--weights", "1,0"],
    "bs-regular": ["--m", "2"],
}


def test_zero_ideal_flags_cover_every_file_command():
    assert set(ZERO_IDEAL_FLAGS) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(ZERO_IDEAL_FLAGS))
@pytest.mark.parametrize("body", ["f1 = 0\n", ""], ids=["zero", "no_generators"])
def test_every_file_command_refuses_the_zero_ideal(command, body, tmp_path, capsys):
    # one rule: exit 1 with one message, whatever the command would compute
    f = tmp_path / "zero.id"
    f.write_text("field QQ\nring x y\n" + body)
    for extra in ([], ["--json"]):
        rc = main([command, *ZERO_IDEAL_FLAGS[command], *extra, str(f)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: the zero ideal: the file has no nonzero generator\n"


def test_gb_and_reduce_drop_zero_generators(tmp_path, capsys):
    f = tmp_path / "zero.id"
    f.write_text("field QQ\nring x y\nf1 = x*y\nf2 = 0\n")
    rc = main(["gb", str(f)])
    assert rc == 0
    assert capsys.readouterr().out == "x*y\n"
    rc = main(["reduce", "--poly", "x^2*y + y", str(f)])
    assert rc == 0
    assert capsys.readouterr().out == "y\n"
    rc = main(["gb", "--json", str(f)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == ["x*y", "0"]
    assert payload["result"] == ["x*y"]


def test_member_json_schema(capsys):
    rc = main(["member", "--poly", "w^2 - x*y", "--json", CUBIC])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"order", "field", "generators", "result", "timings"}
    assert payload["result"]["member"] is True
    assert payload["result"]["certificate"][0] == "1"


def test_member_keeps_zero_generator_positions(tmp_path, capsys):
    f = tmp_path / "zero.id"
    f.write_text("field QQ\nring x y\nf1 = 0\nf2 = x\nf3 = y\n")
    rc = main(["member", "--poly", "x*y + y^2", str(f)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:4] == ["  f1: 0", "  f2: y", "  f3: y"]


def test_member_under_a_weight_order(tmp_path, capsys):
    f = tmp_path / "affine.id"
    f.write_text("field QQ\nring x y\nf1 = x*y - 1\n")
    rc = main(["member", "--order", "weight:-1,0", "--poly", "x*y^2 - y", str(f)])
    assert rc == 0
    assert "  f1: y" in capsys.readouterr().out.splitlines()


def test_degree_cap_exit_code(capsys):
    rc = main(["gb", "--order", "lex", "--degree-cap", "2", CUBIC])
    capsys.readouterr()
    assert rc == 2


def test_gb_json_marks_a_partial_basis(capsys):
    rc = main(["gb", "--order", "lex", "--degree-cap", "2", "--json", CUBIC])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["complete"] is False
    rc = main(["gb", "--order", "lex", "--json", CUBIC])
    assert rc == 0
    assert "complete" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["member", "reduce"])
def test_member_and_reduce_read_the_basis_through_the_degree_of_poly(command, capsys):
    # the cubic's lex completion goes past degree 2 (gb exits 2 under a cap
    # of 2); a polynomial of degree d reads the basis through d only, so a
    # cap of d or more prints what the uncapped run prints, and a cap below
    # d that cuts the completion exits 2
    for poly, d in [("w^2 - x*y + w*z - y^2", 2), ("w*z", 2),
                    ("w^3 - w*x*y + z^2", 3), ("w*x*y - x^2*z + x", 3)]:
        argv = [command, "--order", "lex", "--poly", poly, CUBIC]
        assert main(argv) == 0
        full = capsys.readouterr().out
        for cap in (d, d + 1):
            assert main(argv + ["--degree-cap", str(cap)]) == 0, (poly, cap)
            assert capsys.readouterr().out == full
        assert main(argv + ["--degree-cap", str(d - 1)]) == 2, poly
        assert "degree cap reached" in capsys.readouterr().err


def test_hilbert_honors_degree_cap(capsys):
    rc = main(["hilbert", "--dmax", "5", "--degree-cap", "1", CUBIC])
    assert rc == 2
    assert "degree cap reached" in capsys.readouterr().err


def test_hilbert_rejects_inhomogeneous_input(tmp_path, capsys):
    f = tmp_path / "affine.id"
    f.write_text("field QQ\nring x y\nf = x^2 - y\n")
    rc = main(["hilbert", "--dmax", "4", str(f)])
    assert rc == 1
    assert "homogeneous" in capsys.readouterr().err


def test_flags_are_registered_only_where_read(capsys):
    with pytest.raises(SystemExit):
        main(["gb", "--seed", "1", CUBIC])
    with pytest.raises(SystemExit):
        main(["hilbert", "--m", "2", CUBIC])
    capsys.readouterr()


def test_bad_field_flag_carries_the_parser_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gb", "--field", "Fp:10", CUBIC])
    assert exc.value.code == 2
    assert "modulus must be prime, got 10" in capsys.readouterr().err
    with pytest.raises(ParseError, match="line 1, column 7: modulus must be prime, got 10"):
        parse_ideal_file("field Fp:10\nring x\nf = x\n")


def test_module_entry_point_in_a_subprocess():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*flags):
        argv = [sys.executable, "-m", "groebner.cli", "gb", "--order", "lex", *flags, CUBIC]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    done = run()
    assert done.returncode == 0
    assert done.stdout == (DATA / "twisted_cubic.gb.lex.golden").read_text()
    capped = run("--degree-cap", "2")
    assert capped.returncode == 2
    assert "basis is partial" in capped.stderr


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.id"
    for text, flags, column in [
        ("field QQ\nring x\nf = x^-1\n", [], 7),
        ("field QQ\nring x y\nf = 1/0*x + y\n", [], 7),
        ("field Fp:7\nring x y\nf = 1/7*x\n", [], 7),
        ("field QQ\nring x y\nf = 3/21*x\n", ["--field", "Fp:7"], 7),
        ("# the default field, Fp:32003\nring x y\nf = y - 1/32003*x\n", [], 11),
    ]:
        bad.write_text(text)
        rc = main(["gb", *flags, str(bad)])
        err = capsys.readouterr().err
        assert rc == 1, text
        assert f"parse error: line 3, column {column}" in err, err
        assert "Traceback" not in err, err


def test_eliminate_command(capsys):
    rc = main(["eliminate", "--keep", "x", "--order", "lex", CUBIC])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 1
    assert set(out[0].replace(" ", "")) <= set("xyz^123*+-")


def test_regularity_and_betti_commands(capsys):
    rc = main(["regularity", CUBIC])
    out = capsys.readouterr().out
    assert rc == 0 and "regularity: 2" in out
    rc = main(["betti", "--json", CUBIC])
    payload = json.loads(capsys.readouterr().out)
    assert {"i": 0, "j": 2, "beta": 3} in payload["result"]
    assert {"i": 1, "j": 3, "beta": 2} in payload["result"]


def test_degenerate_command(capsys):
    rc = main(["degenerate", "--weights=-16,-4,-1,0", "--order", "lex", "--json", CUBIC])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["result"]["flat"] is True
    texps = [
        [t["t_exp"] for t in gen] for gen in payload["result"]["family"]["generators"]
    ]
    assert texps == [[0, 27], [0, 13], [0, 14], [0, 1]]


def test_degenerate_honors_degree_cap_in_the_flatness_report(capsys):
    # --no-completion completes nothing for the family, but the report's two
    # Hilbert functions read the fibers through the top degree + 3 = 5 under
    # the cap: one that cuts them exits 2, one that does not prints what the
    # uncapped run prints
    argv = ["degenerate", "--weights=-16,-4,-1,0", "--order", "lex", "--no-completion", CUBIC]
    assert main(argv) == 0
    full = capsys.readouterr().out
    assert main(argv + ["--degree-cap", "3"]) == 2
    assert "degree cap reached" in capsys.readouterr().err
    for cap in (4, 5):
        assert main(argv + ["--degree-cap", str(cap)]) == 0
        assert capsys.readouterr().out == full


def test_mayr_meyer_emits_parseable_file(capsys):
    rc = main(["mayr-meyer", "-n", "1", "--homogeneous"])
    out = capsys.readouterr().out
    assert rc == 0
    ideal = parse_ideal_file(out)
    assert ideal.ring.nvars == 11
    assert len(ideal.generators) == 4


def test_satdefect_on_the_level_one_tower(tmp_path, capsys):
    assert main(["mayr-meyer", "-n", "1", "--homogeneous"]) == 0
    f = tmp_path / "tower1.id"
    f.write_text(capsys.readouterr().out)
    rc = main(["satdefect", str(f)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "defect: 0 (regularity 11, bound 352716)"
    # independently of any saturation: a dense linear form l has (I : l) = I,
    # so l is a nonzerodivisor on S/I, m is not associated and I is saturated
    ideal = parse_ideal_file(f.read_text())
    ring, gens = ideal.ring, ideal.generators
    rng = random.Random(1)
    form = ring.polynomial(
        (ring.field.random_scalar(rng), tuple(int(i == j) for j in range(ring.nvars)))
        for i in range(ring.nvars)
    )
    assert ideal_quotient(gens, form) == list(buchberger(gens).elements)


def test_saturate_quotient_inideal_commands(tmp_path, capsys):
    f = tmp_path / "sat.id"
    f.write_text("field QQ\nring x0 x1 x2\nf1 = x1^2\nf2 = x1*x2\n")
    rc = main(["saturate", str(f)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "x1"
    rc = main(["quotient", "--poly", "x2", str(f)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "x1"
    rc = main(["inideal", "--order", "lex", CUBIC])
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["w^2", "w*y", "w*z", "x*z^2"]


def test_bs_regular_command(capsys):
    rc = main(["bs-regular", "--m", "2", "--field", "Fp:32003", CUBIC])
    out = capsys.readouterr().out.strip()
    assert rc == 0 and out == "regular"


def test_bs_regular_honors_degree_cap(capsys):
    # the test reads the Hilbert function of the cubic through degree
    # m+1 = 3: a cap of 2 cuts that completion and exits 2, and a cap of 3
    # or more prints what the uncapped run prints
    argv = ["bs-regular", "--m", "2", "--field", "Fp:32003", CUBIC]
    assert main(argv) == 0
    full = capsys.readouterr().out
    assert main(argv + ["--degree-cap", "2"]) == 2
    assert "degree cap reached" in capsys.readouterr().err
    for cap in (3, 4):
        assert main(argv + ["--degree-cap", str(cap)]) == 0
        assert capsys.readouterr().out == full


def test_bs_regular_unit_ideal_at_zero(tmp_path, capsys):
    f = tmp_path / "unit.id"
    f.write_text("field Fp:32003\nring x y z\nf1 = 1\n")
    rc = main(["bs-regular", "--m", "0", str(f)])
    assert rc == 0 and capsys.readouterr().out.strip() == "regular"
    rc = main(["regularity", str(f)])
    assert rc == 0 and capsys.readouterr().out.strip() == "regularity: 0"


def test_bs_regular_rejects_zero_trials(capsys):
    rc = main(["bs-regular", "--m", "2", "--trials", "0", "--field", "Fp:32003", CUBIC])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "at least one trial" in captured.err
