"""The package's shape: what it exports, which modules import which, and
that the names the benchmark traces exist."""

import ast
import importlib
from pathlib import Path

import pytest

import monodom

PACKAGE = Path(monodom.__file__).parent


def imported_modules(name):
    """Every module that monodom/<name>.py imports, as a dotted name.

    `from .x import y` counts as importing both monodom.x and monodom.x.y,
    since y may itself be a module.
    """
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "monodom" + (f".{base}" if base else "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_import_scan_sees_both_relative_forms():
    found = imported_modules("nets")
    assert {"monodom._kernels", "monodom.taylor"} <= found


@pytest.mark.parametrize("module,other", [("nets", "dominance"), ("dominance", "nets")])
def test_odom_routes_share_no_module(module, other):
    # odom-routes-agree compares two routes only while neither reads the other
    assert f"monodom.{other}" not in imported_modules(module)


def test_one_way_past_the_ideal_constructor():
    # every ideal built without MonomialIdeal's checks goes through
    # `_canonical_ideal`, so no second unchecked path can creep back
    bypasses = {
        path.name: path.read_text().count("object.__new__(MonomialIdeal)")
        for path in PACKAGE.glob("*.py")
    }
    assert sum(bypasses.values()) == 1
    assert bypasses["monomials.py"] == 1


def test_one_module_builds_the_lattice_table():
    # the 2^q table is built in `taylor` alone: for the shared lattice the
    # oracle and the Scarf basis read, and for the engine's Taylor start
    builds = {}
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        builds[path.name] = text.count("subset_lcms(") - text.count("def subset_lcms(")
    assert {name for name, count in builds.items() if count} == {"taylor.py"}


def test_one_definition_of_the_mix():
    # the splitmix64 mix is written once, in the stream function the
    # master blocks call, and no stream class is left beside it
    sources = [path.read_text().upper() for path in PACKAGE.parent.rglob("*.py")]
    for multiplier in ("0xBF58476D1CE4E5B9", "0x94D049BB133111EB"):
        assert sum(text.count(multiplier.upper()) for text in sources) == 1
    assert not any("CLASS SPLITMIX64" in text for text in sources)
    assert "SplitMix64" not in monodom.__all__


def test_one_way_past_the_monomial_constructor():
    # generator rows and decoded lattice codes are valid by construction,
    # and `_monomial` is the one builder that skips Monomial's checks
    bypasses = {
        path.name: path.read_text().count("object.__new__(Monomial)")
        for path in PACKAGE.glob("*.py")
    }
    assert sum(bypasses.values()) == 1
    assert bypasses["monomials.py"] == 1


def test_exports_resolve():
    names = monodom.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(monodom, name)]
    assert missing == []
    namespace = {}
    exec("from monodom import *", namespace)
    assert set(names) <= namespace.keys()


def test_benchmark_targets_resolve():
    # the benchmark's tracer wraps these names; read them without importing it
    tracer = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "TARGETS"
    ]
    triples = ast.literal_eval(targets)
    assert len(triples) >= 20
    missing = []
    for _, module, path in triples:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []
