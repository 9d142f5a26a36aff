"""Solvers, priors, and diagnostics for structured generalized eigenvalue
problems.

The package centers on a projected Rayleigh-quotient flow for the leading
generalized eigenvector under a structural prior (sphere, sparsity, or the
range of a generative model), with truncated-power and projected-power
baselines, synthetic problem generators, convergence-condition
diagnostics, and a deterministic experiment harness.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    AllRestartsDegenerate,
    AllRunsFailed,
    DegenerateFit,
    DegenerateGap,
    DegenerateOutput,
    DegenerateProjection,
    DenominatorNonPositive,
    GepflowError,
    NonConvergence,
    NonPositiveAlignment,
    NonPositiveRho,
    NotPositiveDefinite,
    RhoOutOfRange,
    TruthMissing,
    ZeroVector,
)
from .rng import NormalStream
from .linalg import (
    GeneralizedSpectrum,
    MatrixPair,
    cholesky,
    generalized_eig,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
    sym_eig,
)
from .generative import (
    LatentClampWarning,
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    RangeProjection,
    SubspaceGenerator,
    model_from_json,
    model_to_json,
    project_to_range,
    random_mlp,
    random_subspace,
    subspace_containing,
    subspace_project,
)
from .priors import (
    RangeProjector,
    SparseProjector,
    SphereProjector,
    project,
    projector_from_spec,
    sparse_truncate,
)
from .solvers import (
    RestartResult,
    RunTrace,
    SolverConfig,
    TraceRow,
    default_init,
    ppower,
    prfm,
    rifle,
    run_with_restarts,
    trace_to_json,
)
from .problems import (
    PerturbationReport,
    ProblemInstance,
    Truth,
    gen_diag_b,
    gen_phase_retrieval,
    gen_spiked,
    instance_from_json,
    instance_to_json,
    verify_perturbation,
)
from .theory import (
    ConvergenceConditions,
    check_lemma_coefficient,
    check_lemma_inner,
    check_lemma_sandwich,
    compute_conditions,
    conditions_from_gammas,
    run_lemma_suites,
)
from .harness import (
    ResultRow,
    SummaryCell,
    SweepSpec,
    cosine_similarity,
    fit_loglog_slope,
    plateau_index,
    rows_to_csv,
    run_sweep,
    signed_distance,
    summarize,
    summary_to_json,
    summary_to_text,
)
