"""Convergence-condition arithmetic and inequality validators.

The monotone-descent guarantee for the projected Rayleigh flow is governed
by two step-size functionals of the population pair,

    gamma1 = eta * (lambda_1 - lambda_2) * lambda_min(B)
    gamma2 = eta * (lambda_1 - lambda_n) * lambda_max(B),

an initial alignment nu0 = u0' v*, and the condition number kappa(B). From
these the per-step contraction factor is assembled and three checkable
conditions are reported:

* step_sum_ok:    gamma1 + gamma2 < 2   (combined step small enough)
* contraction_ok: contraction < 1       (the exact descent condition)
* step_floor_ok:  3*gamma1 + gamma2 > 3 (step large enough, approximate
                  surrogate used to justify protocol step sizes)

The three supporting inequalities behind the descent proof (a sandwich on
the quadratic form x'(rho B - A)x, a lower bound on the step inner product,
and a coefficient-versus-chord bound) are exposed as checkers that evaluate
both sides numerically; they hold for every valid draw, so a randomized
suite failing indicates an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateGap, NonPositiveAlignment, RhoOutOfRange
from .linalg import MatrixPair, _norm, _typed
from .rng import NormalStream, map_words

LEMMA_SLACK = 1e-9
#: Lemma-suite pairs cycle over dimensions 2.._SUITE_N_MAX, each reused for
#: _SUITE_DRAWS_PER_PAIR draws.
_SUITE_N_MAX, _SUITE_DRAWS_PER_PAIR = 8, 20


@dataclass(frozen=True)
class ConvergenceConditions:
    """Step-size functionals, contraction factor, and condition flags."""

    gamma1: float
    gamma2: float
    nu0: float
    kappa_b: float
    b0: float
    c0: float
    contraction: float
    contraction_defined: bool
    step_sum_ok: bool
    contraction_ok: bool
    step_floor_ok: bool
    nu0_positive: bool


def conditions_from_gammas(
    gamma1: float, gamma2: float, *, nu0: float, kappa_b: float
) -> ConvergenceConditions:
    """Assemble the condition report from already-known functionals.

    gamma2 >= gamma1 is required (it holds by construction when the gammas
    come from a spectrum, since lambda_1 - lambda_n >= lambda_1 - lambda_2
    and lambda_max >= lambda_min).
    """
    if gamma1 < 0 or gamma2 < gamma1:
        raise ValueError("need 0 <= gamma1 <= gamma2")
    if kappa_b < 1:
        raise ValueError("kappa_b must be >= 1")
    if not -1.0 <= nu0 <= 1.0:  # NaN fails too
        raise ValueError(f"nu0 must be in [-1, 1], got {nu0!r}")
    c0 = (gamma2 - gamma1) / 2.0
    b0 = (
        (2.0 - (gamma1 + gamma2))
        + gamma1 * (2.0 * kappa_b - (1.0 + nu0))
        + 3.0 * gamma2 * kappa_b * math.sqrt(2.0 * (1.0 - nu0))
    )
    if c0 < 1.0:
        contraction = (b0 + math.sqrt((1.0 - c0) * c0)) / (1.0 - c0)
        defined = True
    else:
        contraction = math.nan
        defined = False
    return ConvergenceConditions(
        gamma1=gamma1,
        gamma2=gamma2,
        nu0=nu0,
        kappa_b=kappa_b,
        b0=b0,
        c0=c0,
        contraction=contraction,
        contraction_defined=defined,
        step_sum_ok=(gamma1 + gamma2) < 2.0,
        contraction_ok=defined and contraction < 1.0,
        step_floor_ok=(3.0 * gamma1 + gamma2) > 3.0,
        nu0_positive=nu0 > 0.0,
    )


def compute_conditions(pair: MatrixPair, eta: float, u0) -> ConvergenceConditions:
    """Evaluate the descent conditions for a population pair and start.

    `pair` must be the population pair, not sample estimates; its cached
    spectrum and B extremes enter the gammas. nu0 is clamped into [-1, 1]
    (a unit start equal to the truth can round just past 1), and may come
    out negative: the report flags it rather than erroring.
    """
    eta = _typed(float, eta=eta)["eta"]
    if not 0 <= eta < math.inf:
        raise ValueError("eta must be finite and >= 0")
    spectrum = pair.spectrum
    lam = spectrum.eigenvalues
    if lam.shape[0] < 2:
        raise DegenerateGap("need at least two eigenvalues")
    if spectrum.gap <= 1e-10:
        raise DegenerateGap(f"leading gap {spectrum.gap:.3e} <= 1e-10")
    b_min, b_max = pair.b_extremes
    u = np.asarray(u0, dtype=np.float64).reshape(-1)
    nu0 = min(1.0, max(-1.0, float(u @ spectrum.leading_unit)))
    gamma1 = eta * float(lam[0] - lam[1]) * b_min
    gamma2 = eta * float(lam[0] - lam[-1]) * b_max
    return conditions_from_gammas(gamma1, gamma2, nu0=nu0, kappa_b=b_max / b_min)


# ---------------------------------------------------------------------------
# inequality checkers


@dataclass(frozen=True)
class SandwichCheck:
    lower: float
    middle: float
    upper: float
    holds: bool


@dataclass(frozen=True)
class BoundCheck:
    """A one-sided bound: lhs against rhs, and whether it held within LEMMA_SLACK."""

    lhs: float
    rhs: float
    holds: bool


def _prepare(pair: MatrixPair, x):
    """The checkers' shared start: x as a flat float64 vector, B x, the
    leading coefficient f1 = v1' B x, the pair's generalized eigenvalues
    (descending, as floats) and B's extremes (lambda_min(B), lambda_max(B))."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    bx = pair.b.dot(xv)
    spectrum = pair.spectrum
    f1 = float(spectrum.eigenvectors[:, 0].dot(bx))
    return xv, bx, f1, spectrum.eigenvalues.tolist(), pair.b_extremes


def _check_rho(rho: float, lam) -> None:
    if not (lam[1] < rho <= lam[0] + 1e-12):
        raise RhoOutOfRange(f"rho {rho:.6g} outside ({lam[1]:.6g}, {lam[0]:.6g}]")


def check_lemma_sandwich(pair: MatrixPair, rho: float, x) -> SandwichCheck:
    """Two-sided bound on x'(rho B - A)x via the extreme eigenvalues.

    With f1 = v1' B x the leading coefficient of x in the B-orthonormal
    eigenbasis:

        (rho - lambda_2) lambda_min(B) ||x||^2 - (lambda_1 - lambda_2) f1^2
          <= x'(rho B - A) x <=
        (rho - lambda_n) lambda_max(B) ||x||^2 - (lambda_1 - lambda_n) f1^2
    """
    xv, bx, f1, lam, (b_min, b_max) = _prepare(pair, x)
    _check_rho(rho, lam)
    nsq = float(xv.dot(xv))
    middle = float(xv.dot(rho * bx - pair.a.dot(xv)))
    lower = (rho - lam[1]) * b_min * nsq - (lam[0] - lam[1]) * f1**2
    upper = (rho - lam[-1]) * b_max * nsq - (lam[0] - lam[-1]) * f1**2
    holds = (lower - LEMMA_SLACK) <= middle <= (upper + LEMMA_SLACK)
    return SandwichCheck(lower=lower, middle=middle, upper=upper, holds=holds)


def check_lemma_inner(pair: MatrixPair, rho: float, eta: float, x, y) -> BoundCheck:
    """Lower bound on the step inner product eta <(rho B - A) x, y>.

    With tau1 = eta (rho - lambda_2) lambda_min(B) and
    tau2 = eta (rho - lambda_n) lambda_max(B):

        lhs >= ((tau1+tau2)/2) x'y - ((tau2-tau1)/4)(||x||^2 + ||y||^2)
               - eta (lambda_1 - lambda_2) f1 g1
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    xv, bx, f1, lam, (b_min, b_max) = _prepare(pair, x)
    yv, _, g1, *_ = _prepare(pair, y)
    _check_rho(rho, lam)
    tau1 = eta * (rho - lam[1]) * b_min
    tau2 = eta * (rho - lam[-1]) * b_max
    lhs = eta * float(yv.dot(rho * bx - pair.a.dot(xv)))
    rhs = (
        ((tau1 + tau2) / 2.0) * float(xv.dot(yv))
        - ((tau2 - tau1) / 4.0) * (float(xv.dot(xv)) + float(yv.dot(yv)))
        - eta * (lam[0] - lam[1]) * f1 * g1
    )
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs - LEMMA_SLACK)


def check_lemma_coefficient(pair: MatrixPair, x) -> BoundCheck:
    """Bound the leading-coefficient error by the chord to the optimum.

    For unit x with nu = x'v* > 0, h = x - v*, and d = 1/||v1||_2:

        (f1 - d)^2 <= (lambda_max(B) - (1 + nu) lambda_min(B) / 2) ||h||^2
    """
    xv, _, f1, _, (b_min, b_max) = _prepare(pair, x)
    if abs(_norm(xv) - 1.0) > 1e-10:
        raise ValueError("x must be a unit vector")
    v_star = pair.spectrum.leading_unit
    nu = float(xv.dot(v_star))
    if nu <= 0:
        raise NonPositiveAlignment(f"x'v* = {nu:.6g} <= 0")
    h = xv - v_star
    lhs = (f1 - pair.spectrum.scale_d) ** 2
    rhs = (b_max - (1.0 + nu) * b_min / 2.0) * float(h.dot(h))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + LEMMA_SLACK)


# ---------------------------------------------------------------------------
# randomized suites


@dataclass(frozen=True)
class LemmaSuiteResult:
    """Outcome of one randomized inequality suite."""

    name: str
    draws: int
    failures: int
    worst_slack: float


def _random_population_pair(stream: NormalStream, n: int) -> MatrixPair:
    g = stream.matrix(n, n)
    a = (g + g.T) / 2.0
    m = stream.matrix(n, n)
    b = m @ m.T + np.eye(n)
    return MatrixPair(a=a, b=(b + b.T) / 2.0)


def _draw_tuples(stream: NormalStream, n: int, count: int):
    """(fracs, xs, ys, eta uniforms) of `count` draws for a dimension-n
    pair, mapped from one block of raw words laid out as in
    `run_lemma_suites`; x and y come as rows."""
    half = 2 * ((n + 1) // 2)  # words behind one normals(n) call
    cols = 2 + 2 * half
    block = map_words(stream.raw(count * cols).reshape(count, cols), (1, cols - 1))
    return block[:, 0], block[:, 1 : 1 + n], block[:, 1 + half : 1 + half + n], block[:, -1]


def run_lemma_suites(draws: int = 10_000, seed: int = 0) -> tuple[LemmaSuiteResult, ...]:
    """Randomized validation of all three inequalities.

    Pairs are drawn as (symmetric Gaussian A, Gram-plus-identity B) with
    dimensions cycling over 2..8; pair i comes from
    NormalStream(seed, stream=i) and is reused for 20 draws of
    (rho, x, y, eta) so the eigendecomposition cost is amortized. After the
    pair's two matrices, each draw takes one row of ``2 + 4 * ceil(n / 2)``
    raw words from the stream, ``[frac | x words | y words | eta]``: frac
    and eta are one uniform each (rho = lambda_2 + max(frac, 1e-12)
    (lambda_1 - lambda_2), eta = 0.5 u), x and y the words of one normals(n)
    call each, an odd n leaving its last sine unused. A pair's rows are
    mapped as one block, with the same values as sequential uniforms(1),
    normals(n), normals(n), uniforms(1) calls. Pairs with a gap of at most
    1e-8 are skipped and draw no tuples.

    Returns one result per inequality; every failure counts draws whose
    `holds` flag came back False. worst_slack is the most adverse margin
    observed, a float (negative slack would mean a violation beyond
    tolerance).
    """
    _typed(int, 1, draws=draws)
    _typed(seed=seed)
    pairs = (draws + _SUITE_DRAWS_PER_PAIR - 1) // _SUITE_DRAWS_PER_PAIR
    # per suite: [draws, failures, worst slack]
    tally = {name: [0, 0, math.inf] for name in ("sandwich", "inner", "coefficient")}

    def record(name: str, holds: bool, *slacks: float) -> None:
        t = tally[name]
        t[0] += 1
        t[1] += 0 if holds else 1
        t[2] = min(t[2], *slacks)

    done = 0
    for i in range(pairs):
        stream = NormalStream(seed, stream=i)
        n = 2 + (i % (_SUITE_N_MAX - 1))
        pair = _random_population_pair(stream, n)
        spectrum = pair.spectrum
        if spectrum.gap <= 1e-8:
            continue  # skip near-degenerate gaps; rho range would be empty
        lam1, gap = float(spectrum.eigenvalues[1]), spectrum.gap
        v_star = spectrum.leading_unit
        todo = min(_SUITE_DRAWS_PER_PAIR, draws - done)
        fracs, xs, ys, etas = _draw_tuples(stream, n, todo)
        for frac, x, y, u in zip(fracs.tolist(), xs, ys, etas.tolist()):
            rho = lam1 + max(frac, 1e-12) * gap
            eta = 0.5 * u

            s = check_lemma_sandwich(pair, rho, x)
            record("sandwich", s.holds, s.middle - s.lower, s.upper - s.middle)
            r = check_lemma_inner(pair, rho, eta, x, y)
            record("inner", r.holds, r.lhs - r.rhs)

            xu = x / _norm(x)
            if float(xu.dot(v_star)) < 0:
                xu = -xu
            if float(xu.dot(v_star)) > 0:
                c = check_lemma_coefficient(pair, xu)
                record("coefficient", c.holds, c.rhs - c.lhs)
        done += todo
        if done >= draws:
            break

    return tuple(LemmaSuiteResult(name, d, f, float(w)) for name, (d, f, w) in tally.items())
