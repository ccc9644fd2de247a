"""The public surface: every exported name exists, the package
re-exports only names its modules export, and every exported call that can
run long takes the options that carry the degree cap and the deadline."""

import ast
import importlib
import inspect
import pkgutil
import textwrap
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


def test_series_imports_only_poly_from_the_package():
    # ideals, modules and resolutions all read the Hilbert series there, so
    # it must reach none of them
    import groebner.series

    tree = ast.parse(Path(groebner.series.__file__).read_text())
    inside = set()  # a relative import by its module, an absolute one by its full name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            inside.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            inside |= {n for n in names if n.partition(".")[0] == "groebner"}
    assert inside == {"poly"}


def test_star_import():
    namespace = {}
    exec("from groebner import *", namespace)
    assert "buchberger" in namespace and "ideal_quotient_saturation" in namespace


# the completion engine, and the echelons that grow with the input outside
# the budgeted oracle: a call that reaches one of them completes or
# eliminates, and can run long
ENGINES = {("modules", "module_buchberger"), ("modules", "minimalize_generators"),
           ("resolutions", "_quotient_dim")}


def _package_functions():
    """[(module, function)] for every function and method the package defines."""
    out = []
    for name in MODULES:
        module = importlib.import_module(f"groebner.{name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((module, obj))
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    fn = member.fget if isinstance(member, property) else member
                    fn = getattr(fn, "__func__", fn)  # static and class methods
                    if inspect.isfunction(fn):
                        out.append((module, fn))
    return out


def _call_graph():
    """{function: the package functions and methods its body may call}.

    A call by bare name resolves in the function's module (a class to its
    own __init__ and __post_init__); ``module.name(...)`` resolves in the
    package module named; any other ``x.name(...)`` stands for every
    package method called name, since the type of x is unknown.  Calls
    through values (local aliases, callbacks, table entries, as in the CLI's
    command table) are not followed, so the graph is a static
    approximation and the CLI's ``main``, which reaches everything through
    its table and takes its options as flags, does not enter it.
    """
    functions = _package_functions()
    methods = {}
    for _, fn in functions:
        if "." in fn.__qualname__:
            methods.setdefault(fn.__name__, set()).add(fn)
    graph = {}
    for module, fn in functions:
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        except (OSError, TypeError):  # generated, e.g. a dataclass __init__
            continue
        called = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                target = getattr(module, f.id, None)
                if inspect.isclass(target):
                    called |= {m for m in methods.get("__init__", set()) | methods.get("__post_init__", set())
                               if m.__qualname__.partition(".")[0] == target.__qualname__
                               and m.__module__ == target.__module__}
                else:
                    called.add(target)
            elif isinstance(f, ast.Attribute):
                base = getattr(module, f.value.id, None) if isinstance(f.value, ast.Name) else None
                if inspect.ismodule(base):
                    called.add(getattr(base, f.attr, None))
                else:
                    called |= methods.get(f.attr, set())
        graph[fn] = {c for c in called
                     if inspect.isfunction(c) and c.__module__.startswith("groebner.")}
    return graph


def test_every_exported_call_that_completes_or_eliminates_takes_opts():
    graph = _call_graph()
    reaching = {fn for fn in graph if (fn.__module__.rpartition(".")[2], fn.__name__) in ENGINES}
    assert len(reaching) == len(ENGINES)
    more = True
    while more:
        more = {fn for fn, called in graph.items() if called & reaching} - reaching
        reaching |= more
    # exported functions, and the public methods of exported classes
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"groebner.{name}")
        for n in module.__all__:
            obj = getattr(module, n)
            if inspect.isfunction(obj):
                candidates = {n: obj}
            elif inspect.isclass(obj):
                candidates = {f"{n}.{m}": fn for m, fn in inspect.getmembers(obj, inspect.isfunction)
                              if not m.startswith("_")}
            else:
                continue
            exported |= {f"{name}.{q}": fn for q, fn in candidates.items() if fn in reaching}
    assert {"buchberger.buchberger", "ideals.membership", "ideals.hilbert_function",
            "ideals.sat_defect", "modules.syzygies", "resolutions.bayer_stillman_test",
            "degeneration.flatness_check"} <= set(exported)
    missing = [qual for qual, fn in sorted(exported.items())
               if "opts" not in inspect.signature(fn).parameters]
    assert missing == []
