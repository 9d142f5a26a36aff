"""Module layering of the package, read from its import statements.

`linalg` sits under everything that works on matrix pairs, so it needs
nothing but the error types; `theory` works on pairs and spectra alone,
so it stays below the instance generators and the solvers; the iterative
solvers take only the input checks `as_sym_matrix` and `_typed` from
`linalg`, so they run no dense eigensolve, and only `SubspaceGenerator`
from `generative`, the type that sends a run to the prior's coordinates,
so no decoder code reaches the solver layer; `rng` takes only `_typed`,
its count check. `gepflow/__init__.py`'s import list is the one
declaration of the public names: no module assigns `__all__`, and the set
is pinned so that every added or dropped name shows in a diff.
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


def test_solvers_take_only_input_checks_from_linalg():
    names = {
        alias.name
        for node in ast.walk(_tree("solvers"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg"
        for alias in node.names
    }
    assert names == {"_typed", "as_sym_matrix"}


def test_solvers_take_only_the_subspace_type_from_generative():
    imports = {
        (node.module, alias.name)
        for node in ast.walk(_tree("solvers"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert {name for module, name in imports if module == "generative"} == {"SubspaceGenerator"}
    assert _package_imports("solvers") == {"errors", "generative", "linalg", "priors", "rng"}


def test_rng_takes_only_typed_from_linalg():
    imports = {
        (node.module, alias.name)
        for node in ast.walk(_tree("rng"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imports == {("linalg", "_typed")}


#: The package's public names, sorted. One leaves only with its reason in CHANGES.md.
PUBLIC_NAMES = [
    "AllRestartsDegenerate", "AllRunsFailed", "ConvergenceConditions",
    "DegenerateFit", "DegenerateGap", "DegenerateOutput", "DegenerateProjection",
    "DenominatorNonPositive", "GeneralizedSpectrum", "GepflowError", "LatentClampWarning",
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
