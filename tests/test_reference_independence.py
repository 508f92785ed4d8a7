"""The test-side references share no code with the fast paths they judge.

``dense_reference`` is the dense operator algebra the sector-by-sector
oracle of ``nemsqnd.entanglement`` is compared against, with the three
full double sums its factored entropy kernel is compared against, and
``classical_reference`` the step-by-step integrator the Floquet path of
``simulate_classical_circuit`` is compared against.  A reference that
imported what it judges would agree with it by construction; and the
package must run without the tests beside it.  The references keep
scipy's integrator and special functions, so neither may import the
package's own integrator, and the package itself imports no scipy.
"""

import ast
from pathlib import Path

import nemsqnd.entanglement

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _imports(path):
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def test_dense_reference_imports_nothing_from_entanglement():
    for module, name in _imports(TESTS / "dense_reference.py"):
        assert not module.startswith("nemsqnd.entanglement"), (module, name)
        if module == "nemsqnd":
            assert name != "entanglement" and name not in vars(nemsqnd.entanglement), name
    # nor reaches it as an attribute of a package it does import
    tree = ast.parse((TESTS / "dense_reference.py").read_text(encoding="utf-8"))
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "entanglement" not in attrs
    # the entropy reference is defined there, not bound to the kernel
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"_entropy_block", "layer_entropies"} <= defined


def test_classical_reference_does_not_use_the_floquet_path():
    tree = ast.parse((TESTS / "classical_reference.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {name for _, name in _imports(TESTS / "classical_reference.py")}
    assert "simulate_classical_circuit" not in used


def test_package_imports_nothing_from_the_tests():
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        for module, _ in _imports(path):
            assert module.split(".")[0] not in test_modules, (path.name, module)


def test_references_do_not_import_the_package_integrator():
    for ref in ("classical_reference.py", "dense_reference.py"):
        for module, name in _imports(TESTS / ref):
            assert not module.startswith("nemsqnd.ode"), (ref, module)
            assert (module, name) != ("nemsqnd", "ode"), (ref, module, name)


def test_package_imports_no_scipy():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        for module, _ in _imports(path):
            assert module.split(".")[0] != "scipy", (path.name, module)
