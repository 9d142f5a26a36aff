"""Module layering of the package, read from its import statements.

`linalg` sits under everything that works on matrix pairs, so it needs
nothing but the error types; `theory` works on pairs and spectra alone,
so it stays below the instance generators and the solvers. The package's
re-exports must be the modules' declared public names.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import gepflow

PACKAGE = Path(gepflow.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module: str) -> set[str]:
    """The package modules `module` imports with a relative import."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module or "")
    return found


def test_linalg_imports_only_errors():
    assert _package_imports("linalg") == {"errors"}


def test_theory_imports_neither_problems_nor_solvers():
    imports = _package_imports("theory")
    assert "problems" not in imports
    assert "solvers" not in imports


def test_package_reexports_are_declared_public_names():
    reexports = [
        (node.module, alias)
        for node in _tree("__init__").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module_name, alias in reexports:
        module = importlib.import_module(f"gepflow.{module_name}")
        declared = getattr(module, "__all__", None)
        if declared is None:
            # errors and rng declare no __all__: every public name is exported
            assert not alias.name.startswith("_"), (module_name, alias.name)
        else:
            assert alias.name in declared, (module_name, alias.name)
        exported = getattr(gepflow, alias.asname or alias.name)
        assert exported is getattr(module, alias.name), (module_name, alias.name)
