"""The public surface: every exported name exists, and the package
re-exports only names its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import groebner

MODULES = [m.name for m in pkgutil.iter_modules(groebner.__path__)]


def test_every_module_exports_only_names_it_defines():
    assert "ideals" in MODULES and "cli" in MODULES
    for name in MODULES:
        module = importlib.import_module(f"groebner.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], name


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(groebner.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        exported = importlib.import_module(f"groebner.{node.module}").__all__
        unexported = [a.name for a in node.names if a.name not in exported]
        assert unexported == [], node.module


def test_star_import():
    namespace = {}
    exec("from groebner import *", namespace)
    assert "buchberger" in namespace and "ideal_quotient_saturation" in namespace
