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
    through: the list grows by one per call."""
    from groebner import modules

    # the package's buchberger() function shadows its submodule's name
    buchberger_module = sys.modules["groebner.buchberger"]
    calls = []
    inner = modules.module_buchberger

    def spy(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(modules, "module_buchberger", spy)
    monkeypatch.setattr(buchberger_module, "module_buchberger", spy)
    return calls
