import sys

import pytest

from groebner import GF, GREVLEX, LEX, QQ, PolynomialRing, twisted_cubic


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    verdicts = getattr(acceptance, "VERDICTS", None)
    if verdicts:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_shared_completions():
    """Start every test with no finished completion to share, so a test
    that counts engine work counts the same whichever tests ran first."""
    from groebner import modules

    modules._completions.clear()
    modules._latest = None


@pytest.fixture
def ring_qq_lex():
    return PolynomialRing(QQ, ["w", "x", "y", "z"], LEX)


@pytest.fixture
def ring_qq_xy():
    return PolynomialRing(QQ, ["x", "y"], LEX)


@pytest.fixture
def cubic_lex():
    return twisted_cubic(QQ, LEX)


@pytest.fixture
def cubic_grevlex():
    return twisted_cubic(QQ, GREVLEX)


@pytest.fixture
def ring_fp():
    return PolynomialRing(GF(32003), ["x0", "x1", "x2"], GREVLEX)


@pytest.fixture
def engine_calls(monkeypatch):
    """Spy on the completion engine at every binding the package reaches it
    through: the list grows by one per call, by the ring it completes in."""
    from groebner import modules

    # the package's buchberger() function shadows its submodule's name
    buchberger_module = sys.modules["groebner.buchberger"]
    calls = []
    inner = modules.module_buchberger

    def spy(gens, *args, **kwargs):
        gens = list(gens)
        calls.append(gens[0].module.ring if gens else None)
        return inner(gens, *args, **kwargs)

    monkeypatch.setattr(modules, "module_buchberger", spy)
    monkeypatch.setattr(buchberger_module, "module_buchberger", spy)
    monkeypatch.setattr(sys.modules["groebner.resolutions"], "module_buchberger", spy)
    return calls
