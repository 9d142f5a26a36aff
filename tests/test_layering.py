"""Module layering of the package, read from its import statements.

`linalg` sits under everything that works on matrix pairs, so it needs
nothing but the error types, and it alone solves a pair's spectrum
(`MatrixPair.spectrum`) and takes a vector's norm (`_norm`, and `_unit` at
the one zero floor `_ZERO_NORM`); `theory` works on pairs alone, taking only
`MatrixPair`, `_typed` and `_norm` from `linalg`, so it stays below the
instance generators and the solvers; the iterative solvers take only the
input checks `as_sym_matrix` and `_typed` and the norm and its floor from
`linalg`, so they run no dense eigensolve, and only `SubspaceGenerator`
from `generative`, the type that sends a run to the prior's coordinates, so
no decoder code reaches the solver layer; from `priors` they take only
`Projector`, `project` and `sparse_truncate`, since a run's range state is
the `_run` dict it hands `project`; `rng` takes only `_typed`, its
count check, and the norm and its floor, and `_typed` is the one place that
converts a checked setting to its Python type.
`gepflow/__init__.py`'s import list is the one declaration of the public
names: no module assigns `__all__`, and the set is pinned so that every
added or dropped name shows in a diff.
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


def _names_from(module: str, source: str) -> set[str]:
    """The names `module` imports from the package module `source`."""
    return {
        alias.name
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
        for alias in node.names
    }


def test_theory_takes_only_pairs_typed_and_norm_from_linalg():
    assert _names_from("theory", "linalg") == {"MatrixPair", "_norm", "_typed"}


def test_only_linalg_names_generalized_eig():
    """Every other module reads a pair's cached `spectrum`; the package
    only re-exports the function."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "linalg":
            continue
        tree = _tree(path.stem)
        used = [
            node
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "generalized_eig")
            or (isinstance(node, ast.Attribute) and node.attr == "generalized_eig")
        ]
        assert not used, path.name
        if path.stem != "__init__":
            imported = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            assert "generalized_eig" not in imported, path.name


def test_solvers_take_only_input_checks_and_norms_from_linalg():
    assert _names_from("solvers", "linalg") == {"_ZERO_NORM", "_norm", "_typed", "as_sym_matrix"}


def test_solvers_take_only_the_subspace_type_from_generative():
    imports = {
        (node.module, alias.name)
        for node in ast.walk(_tree("solvers"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert {name for module, name in imports if module == "generative"} == {"SubspaceGenerator"}
    assert _package_imports("solvers") == {"errors", "generative", "linalg", "priors", "rng"}


def test_solvers_take_only_the_projections_from_priors():
    """A run's range state lives in `project`'s `_run`, so `solvers` names
    no range-prior type."""
    assert _names_from("solvers", "priors") == {"Projector", "project", "sparse_truncate"}


def test_rng_takes_only_typed_and_norms_from_linalg():
    imports = {
        (node.module, alias.name)
        for node in ast.walk(_tree("rng"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imports == {("linalg", "_typed"), ("linalg", "_norm"), ("linalg", "_ZERO_NORM")}


def _called(node: ast.AST) -> str:
    """The bare name a call's function goes by: `f` for `f(…)` and `m.f(…)`."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _is_norm(node: ast.AST) -> bool:
    """A name or call that reads as a norm: `norm`, `v1_norm`, `_norm(x)`."""
    if isinstance(node, ast.Call):
        return "norm" in _called(node)
    return isinstance(node, ast.Name) and "norm" in node.id


def _is_self_dot(node: ast.AST) -> bool:
    """`x.dot(x)`, or `float(x.dot(x))`."""
    if isinstance(node, ast.Call) and _called(node) == "float" and node.args:
        node = node.args[0]
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dot"
        and len(node.args) == 1
        and ast.dump(node.args[0]) == ast.dump(node.func.value)
    )


def _hand_norms(tree: ast.AST) -> list[int]:
    """Lines that take a vector norm by hand: a `linalg.norm` reference, a
    `sqrt(x.dot(x))`, or a norm compared with the literal 1e-12."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hand = node.attr == "norm" and getattr(node.value, "attr", "") == "linalg"
        elif isinstance(node, ast.Call):
            hand = _called(node) == "sqrt" and len(node.args) == 1 and _is_self_dot(node.args[0])
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hand = any(isinstance(o, ast.Constant) and o.value == 1e-12 for o in operands)
            hand = hand and any(map(_is_norm, operands))
        else:
            continue
        if hand:
            found.append(node.lineno)
    return found


def test_only_linalg_takes_a_vector_norm():
    """`linalg._norm` sums every norm and `linalg._unit` holds the one zero
    floor: no other module calls `np.linalg.norm`, writes `sqrt(x.dot(x))`
    or compares a norm with 1e-12. A unit tolerance such as
    `abs(_norm(v) - 1.0) <= 1e-12` is its site's own, and passes."""
    found = {
        path.name: _hand_norms(_tree(path.stem))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "linalg"
    }
    assert not any(found.values()), found


def test_hand_norm_scan_finds_the_old_patterns():
    """The scan above finds each way a norm was once taken by hand, and
    passes a site's own unit tolerance and other 1e-12 comparisons."""
    planted = [
        "norm = float(np.linalg.norm(v))",
        "norm = math.sqrt(float(xv.dot(xv)))",
        "xu = x / math.sqrt(x.dot(x))",
        "if norm <= 1e-12:\n    pass",
        "if _norm(au) <= 1e-12:\n    pass",
        "if norm > 1e-12:\n    pass",
    ]
    for source in planted:
        assert _hand_norms(ast.parse(source)) == [1], source
    kept = [
        "if not abs(_norm(v) - 1.0) <= 1e-12:\n    pass",
        "if not (lam[1] < rho <= lam[0] + 1e-12):\n    pass",
        "z = math.sqrt(vi / c2)",
        "nsq = float(xv.dot(xv))",
    ]
    for source in kept:
        assert _hand_norms(ast.parse(source)) == [], source


def _is_conversion(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
        node.func.id in ("int", "float", "bool")
    )


def test_only_typed_converts_a_stored_setting():
    """`linalg._typed` converts each checked setting to its Python type; no
    function stores an `int(…)`, `float(…)` or `bool(…)` call through
    `object.__setattr__` or an attribute assignment, and `generative` keeps
    no `_positive` check of its own."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path.stem)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                stored = node.args[2:]
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Attribute) for target in node.targets
            ):
                stored = [node.value]
            else:
                continue
            assert not any(map(_is_conversion, stored)), f"{path.name}:{node.lineno}"
    defined = {
        node.name for node in ast.walk(_tree("generative")) if isinstance(node, ast.FunctionDef)
    }
    assert "_positive" not in defined


#: The package's public names, sorted. One leaves only with its reason in CHANGES.md.
PUBLIC_NAMES = [
    "AllRestartsDegenerate", "AllRunsFailed", "ConvergenceConditions",
    "DegenerateFit", "DegenerateGap", "DegenerateOutput", "DegenerateProjection",
    "DenominatorNonPositive", "GeneralizedSpectrum", "GepflowError",
    "LatentProjectionConfig", "Layer", "MatrixPair", "MlpGenerator", "NonConvergence",
    "NonPositiveAlignment", "NonPositiveRho", "NormalStream", "NotPositiveDefinite",
    "PerturbationReport", "ProblemInstance", "RangeProjection", "RangeProjector", "RestartResult",
    "ResultRow", "RhoOutOfRange", "RunTrace",
    "SolverConfig", "SparseProjector", "SphereProjector", "SubspaceGenerator", "SummaryCell",
    "SweepSpec", "TraceRow", "Truth", "TruthMissing", "ZeroVector",
    "check_lemma_coefficient", "check_lemma_inner", "check_lemma_sandwich",
    "cholesky", "compute_conditions", "conditions_from_gammas", "cosine_similarity",
    "default_init", "fit_loglog_slope", "gen_diag_b", "gen_phase_retrieval",
    "gen_spiked", "generalized_eig", "instance_from_json", "instance_to_json", "matrix_from_json",
    "matrix_to_json", "model_from_json", "model_to_json", "plateau_index", "ppower", "prfm",
    "project", "project_to_range", "projector_from_spec", "random_mlp", "random_subspace", "rifle",
    "rows_to_csv", "run_lemma_suites", "run_sweep", "run_with_restarts", "signed_distance",
    "sparse_truncate", "spectral_norm", "subspace_containing", "subspace_project", "summarize",
    "summary_to_json", "summary_to_text", "sym_eig", "trace_to_json", "verify_perturbation",
]


def _reexports() -> list[tuple[str, ast.alias]]:
    return [
        (node.module, alias)
        for node in _tree("__init__").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_public_names_are_pinned():
    assert sorted(alias.asname or alias.name for _, alias in _reexports()) == PUBLIC_NAMES


def test_package_reexports_are_public_module_names():
    """Each re-export is a non-underscore name of its module, exported as
    the very object the module holds."""
    reexports = _reexports()
    assert reexports
    for module_name, alias in reexports:
        module = importlib.import_module(f"gepflow.{module_name}")
        assert not alias.name.startswith("_"), (module_name, alias.name)
        exported = getattr(gepflow, alias.asname or alias.name)
        assert exported is getattr(module, alias.name), (module_name, alias.name)


def test_no_module_assigns_all():
    """A module `__all__` would be a second list of the public names."""
    for path in sorted(PACKAGE.glob("*.py")):
        assigned = {
            node.id
            for node in ast.walk(_tree(path.stem))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert "__all__" not in assigned, path.name
