"""Exception types shared across the package.

Every failure mode a caller is expected to handle gets its own class so that
solver drivers and the CLI can map errors to exit codes without string
matching. All inherit from :class:`GepflowError`.
"""

from __future__ import annotations


class GepflowError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# dense linear algebra


class NonConvergence(GepflowError):
    """LAPACK's symmetric eigensolver (`eigh`, in `sym_eig`) failed to converge."""


class NotPositiveDefinite(GepflowError):
    """A matrix required to be positive definite failed its pivot check."""


class DegenerateGap(GepflowError):
    """The leading spectral gap is too small for the requested operation."""


# ---------------------------------------------------------------------------
# generative models


class DegenerateOutput(GepflowError):
    """A generator's raw output norm fell below the normalization floor."""


class AllRestartsDegenerate(GepflowError):
    """Every latent-projection restart hit a degenerate output."""


class DegenerateProjection(GepflowError):
    """The target is (numerically) orthogonal to the projection subspace."""


# ---------------------------------------------------------------------------
# priors


class ZeroVector(GepflowError):
    """An input vector that must be nonzero was (numerically) zero."""


# ---------------------------------------------------------------------------
# solvers


class DenominatorNonPositive(GepflowError):
    """The iterate's quadratic-form denominator dropped below the floor.

    Carries the iteration index at which the guard fired.
    """

    def __init__(self, t: int, value: float):
        super().__init__(f"denominator {value:.6g} <= floor at iteration {t}")
        self.t = t
        self.value = value


class NonPositiveRho(GepflowError):
    """A solver that divides by the Rayleigh quotient saw rho <= floor."""

    def __init__(self, t: int, value: float):
        super().__init__(f"rho {value:.6g} <= floor at iteration {t}")
        self.t = t
        self.value = value


class AllRunsFailed(GepflowError):
    """Every restart of a solver raised; no surviving run to select."""


# ---------------------------------------------------------------------------
# problem generators


class TruthMissing(GepflowError):
    """The operation needs an instance with a recorded population truth."""


# ---------------------------------------------------------------------------
# theory checkers


class RhoOutOfRange(GepflowError):
    """rho must lie in (lambda_2, lambda_1] for the inequality to apply."""


class NonPositiveAlignment(GepflowError):
    """The checked vector must have positive inner product with v*."""


# ---------------------------------------------------------------------------
# harness


class DegenerateFit(GepflowError):
    """Slope fit needs >= 3 distinct abscissae and positive errors."""
