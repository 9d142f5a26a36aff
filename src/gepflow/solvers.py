"""Iterative leading-eigenvector estimators under structural priors.

The three solvers are one flow with different steps. At each iterate the
shared loop computes A u and B u once; they give the Rayleigh quotient
rho_t = (u'Au)/(u'Bu) and the step, whose result is mapped back into the
prior's feasible set:

* projected Rayleigh flow: u <- P(u + eta * (A - rho B) u)
* truncated Rayleigh flow ("rifle"): u <- truncate(u + (eta'/rho)(A - rho B) u, s)
* projected power iteration ("ppower"): u <- P(A u), ignoring B entirely

So prfm and rifle cost two matvecs per iterate and ppower one.

All runs are deterministic. Restart initializations for run_with_restarts
come from NormalStream(seed, stream=j) for restart j >= 1 (restart 0 uses
the configured start vector), so parallel and serial execution agree.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AllRunsFailed,
    DegenerateProjection,
    DenominatorNonPositive,
    GepflowError,
    NonPositiveRho,
    ZeroVector,
)
from .generative import SubspaceGenerator
from .linalg import _typed, as_sym_matrix
from .priors import Projector, project, sparse_truncate
from .rng import NormalStream

SOLVER_NAMES = ("prfm", "rifle", "ppower")

#: Default guard on the quotient denominator u'Bu: at or below it an
#: iterate is treated as having a nonpositive denominator.
DENOMINATOR_FLOOR = 1e-10

#: A run is in a period-2 orbit once _CYCLE_HOLD consecutive updates each
#: land within stop_tol of the iterate before last while the single step
#: still moves more than _CYCLE_STEP_FACTOR * stop_tol. The step guard
#: leaves a run that is about to converge to the ordinary stop_tol test; one
#: held update is not enough to keep the returned point within
#: ((max_iters - iterations_run) / 2 + 1) * stop_tol of the max_iters point.
_CYCLE_STEP_FACTOR = 1e3
_CYCLE_HOLD = 2

#: Restarts within _RESTART_RTOL * max(|best|, 1) of the best quotient tie.
_RESTART_RTOL = 1e-12


def default_init(n: int) -> NDArray[np.float64]:
    """The all-ones direction, normalized."""
    return np.ones(n) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Shared iteration settings.

    `init` of None means the all-ones direction, filled in at solve time
    once the dimension is known. `stop_tol` of None disables early stopping,
    both the converged and the cycled stop, for fixed-iteration-count runs.
    `record_trace=False` skips the trace rows, and with them the per-iterate
    truth columns (cos_sim, dist); the iterates, the final vector,
    iterations_run and stop_reason are the same either way.
    """

    step_size: float
    max_iters: int
    init: NDArray[np.float64] | None = None
    denominator_floor: float = DENOMINATOR_FLOOR
    record_trace: bool = True
    stop_tol: float | None = 1e-9

    def __post_init__(self):
        _typed(max_iters=self.max_iters)
        _typed(numbers.Real, step_size=self.step_size, denominator_floor=self.denominator_floor)
        object.__setattr__(self, "step_size", float(self.step_size))
        object.__setattr__(self, "denominator_floor", float(self.denominator_floor))
        if self.stop_tol is not None:
            _typed(numbers.Real, stop_tol=self.stop_tol)
            object.__setattr__(self, "stop_tol", float(self.stop_tol))
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.denominator_floor < math.inf:
            raise ValueError("denominator_floor must be finite and positive")
        if self.stop_tol is not None and not 0 <= self.stop_tol < math.inf:
            raise ValueError("stop_tol must be None or finite and >= 0")
        if self.init is not None:
            u = np.asarray(self.init, dtype=np.float64).reshape(-1)
            if not np.all(np.isfinite(u)):
                raise ValueError("init has non-finite entries")
            if abs(_norm(u) - 1.0) > 1e-10:
                raise ValueError("init must be a unit vector within 1e-10")
            object.__setattr__(self, "init", u)


@dataclass(frozen=True)
class TraceRow:
    """One recorded iterate: Rayleigh quotient plus truth-relative metrics.

    cos_sim and dist are None when the true direction is not supplied.
    """

    t: int
    rho: float
    cos_sim: float | None
    dist: float | None


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration records for one solver run.

    When recording is enabled, rows has iterations_run + 1 entries: one per
    visited iterate, including the final one. final_rho is the guarded
    quotient at final_vector (u'Au for ppower), recorded or not. stop_reason
    is "converged" when an update moved the iterate by at most stop_tol,
    "cycled" when the run settled into a period-2 orbit (see _flow), else
    "max_iters".
    """

    rows: tuple[TraceRow, ...]
    final_vector: NDArray[np.float64]
    final_rho: float
    iterations_run: int
    stop_reason: str


@dataclass(frozen=True, eq=False)
class RestartResult:
    """Winning run of a restart batch, plus what failed along the way."""

    estimate: NDArray[np.float64]
    trace: RunTrace
    objective: float
    restart_index: int
    failures: tuple[str, ...]


def _resolve_init(cfg: SolverConfig, n: int) -> NDArray[np.float64]:
    if cfg.init is None:
        return default_init(n)
    if cfg.init.shape[0] != n:
        raise ValueError(f"init has length {cfg.init.shape[0]}, expected {n}")
    return cfg.init.copy()


def _norm(x: NDArray[np.float64]) -> float:
    # np.linalg.norm's dot-then-sqrt without its dispatch; bit-equal to it
    # for the contiguous 1-D float64 arrays the solvers pass
    return math.sqrt(float(x.dot(x)))


def _rho(u, au, bu, floor: float, t: int) -> float:
    """Rayleigh quotient from the iterate's matvecs; with bu None, u'Au."""
    if bu is None:
        return float(u.dot(au))
    den = float(u.dot(bu))
    if den <= floor:
        raise DenominatorNonPositive(t, den)
    return float(u.dot(au)) / den


def _row(t: int, rho: float, u, v) -> TraceRow:
    if v is None:
        return TraceRow(t=t, rho=rho, cos_sim=None, dist=None)
    return TraceRow(t=t, rho=rho, cos_sim=float(u @ v), dist=_norm(u - v))


def _unit_in_span(c: NDArray[np.float64]) -> NDArray[np.float64]:
    """subspace_project in the basis' coordinates, with its guard on ||c||."""
    norm = _norm(c)
    if norm <= 1e-12:
        raise DegenerateProjection("target is orthogonal to the subspace")
    return c / norm


def _compress(m, q):
    """Q'MQ built column by column as Q'(M q_j). A stacked np.matmul runs one
    gemv per column; a 2-D product would call gemm, which the sweeps call
    nowhere else, and its work buffer adds 0.13 MB to a sweep's peak memory."""
    qt = np.ascontiguousarray(q.T)
    return np.matmul(qt, np.matmul(m, qt[:, :, None]))[:, :, 0].T.copy()


def _flow(a, b, cfg: SolverConfig, v_star, step, p=None) -> tuple[NDArray[np.float64], RunTrace]:
    """The loop all three solvers share: per iterate u_t, compute A u_t and
    B u_t once (no B u_t when b is None), take rho_t from them, record a
    trace row if asked, and move to step(t, u_t, A u_t, B u_t, rho_t, proj),
    proj being the projection onto prior p.

    Under a subspace prior every iterate after the first is Q c, so from t = 1
    the loop carries c = Q'u_1 on (Q'AQ, Q'BQ) with proj _unit_in_span: the
    same rho and movements in exact arithmetic. Rows, the final vector and its
    quotient use the lifted Q c, as does the t = 1 cycle test against u_0.

    Stops once an update moves u by at most cfg.stop_tol ("converged"), or
    after cfg.max_iters updates ("max_iters"). With stop_tol set it also
    stops as "cycled" once the run is in a period-2 orbit: for the last
    _CYCLE_HOLD updates, u_{t+1} lies within stop_tol of u_{t-1} while the
    step from u_t moves more than _CYCLE_STEP_FACTOR * stop_tol. Such a run
    returns the orbit point it would have ended on at max_iters, u_{t+1} if
    max_iters - (t+1) is even and u_t otherwise, and reports the true
    iterations_run. rho's guard also covers the final iterate.
    """
    u = _resolve_init(cfg, a.shape[0])
    record = cfg.record_trace
    v = None
    if record and v_star is not None:
        v = np.asarray(v_star, dtype=np.float64).reshape(-1)

    rows: list[TraceRow] = []
    iterations = 0
    stop_reason = "max_iters"
    tol = cfg.stop_tol
    u_prev = moved_prev = q = None
    held = 0
    loop_a, loop_b = a, b
    slack = (a.shape[0] + 4) * 2.0**-52
    proj = partial(project, p)
    for t in range(cfg.max_iters):
        if t == 1 and isinstance(p, SubspaceGenerator):
            q = p.basis
            loop_a, loop_b = _compress(a, q), None if b is None else _compress(b, q)
            u, proj, moved_prev = q.T.dot(u), _unit_in_span, None
            slack = (q.shape[1] + 4) * 2.0**-52
        # ndarray.dot, here, in _rho and in the projections, not @: both reach
        # the same BLAS call, but @'s ufunc dispatch adds up to a microsecond
        # to each of these per-iterate products.
        au = loop_a.dot(u)
        bu = None if loop_b is None else loop_b.dot(u)
        rho = _rho(u, au, bu, cfg.denominator_floor, t)
        if record:
            rows.append(_row(t, rho, u if q is None else q.dot(u), v))
        u_next = step(t, u, au, bu, rho, proj)
        iterations = t + 1
        if tol is not None:
            moved = _norm(u_next - u)
            # The cycle test skips its second norm when that must exceed tol:
            # ||u_{t+1} - u_{t-1}|| >= |moved - moved_prev|, and a computed norm of
            # a d-vector difference is within kappa = (d + 3) 2^-53 of the exact
            # one, relatively, so a gap above tol + 2 kappa (moved + moved_prev)
            # suffices (slack = (d + 4) 2^-52 >= 2 kappa), stop_tol = 0 included.
            if moved <= tol:
                stop_reason = "converged"
            elif (
                u_prev is not None
                and moved > _CYCLE_STEP_FACTOR * tol
                and (
                    moved_prev is None
                    or abs(moved - moved_prev) <= tol + slack * (moved + moved_prev)
                )
                and _norm((u_next if t != 1 or q is None else q.dot(u_next)) - u_prev) <= tol
            ):
                held += 1
                if held == _CYCLE_HOLD:
                    stop_reason = "cycled"
                    if (cfg.max_iters - iterations) % 2:
                        u_next = u
            else:
                held = 0
            moved_prev = moved
        u_prev, u = u, u_next
        if stop_reason != "max_iters":
            break

    u = u if q is None else q.dot(u)
    rho = _rho(u, a.dot(u), None if b is None else b.dot(u), cfg.denominator_floor, iterations)
    if record:
        rows.append(_row(iterations, rho, u, v))
    return u, RunTrace(
        rows=tuple(rows),
        final_vector=u,
        final_rho=rho,
        iterations_run=iterations,
        stop_reason=stop_reason,
    )


def _pair(a_hat, b_hat):
    a = as_sym_matrix(a_hat, name="a_hat")
    b = as_sym_matrix(b_hat, name="b_hat")
    if a.shape != b.shape:
        raise ValueError("a_hat and b_hat dimensions differ")
    return a, b


def prfm(
    a_hat,
    b_hat,
    p: Projector,
    cfg: SolverConfig,
    v_star=None,
) -> tuple[NDArray[np.float64], RunTrace]:
    """Projected Rayleigh flow: ascend u'Au/u'Bu, project onto the prior.

    Each iteration evaluates rho_t at the current iterate, steps along
    (A - rho_t B) u scaled by the configured step size, and projects the
    result back into the prior's feasible set. A nonpositive quotient
    denominator at any iterate (including the final one) raises
    DenominatorNonPositive rather than clamping.
    """
    a, b = _pair(a_hat, b_hat)

    def step(t, u, au, bu, rho, proj):
        return proj(u + cfg.step_size * (au - rho * bu))

    return _flow(a, b, cfg, v_star, step, p)


def rifle(
    a_hat,
    b_hat,
    s: int,
    eta_prime: float,
    cfg: SolverConfig,
    v_star=None,
) -> tuple[NDArray[np.float64], RunTrace]:
    """Truncated Rayleigh flow: step size eta'/rho_t, then keep top-s entries.

    Requires rho_t to stay positive (it divides the step); a nonpositive
    quotient raises NonPositiveRho at the offending iteration.
    """
    _typed(s=s)
    _typed(numbers.Real, eta_prime=eta_prime)
    eta_prime = float(eta_prime)
    a, b = _pair(a_hat, b_hat)
    if not 0 < eta_prime < math.inf:
        raise ValueError("eta_prime must be finite and positive")

    def step(t, u, au, bu, rho, proj):
        if rho <= cfg.denominator_floor:
            raise NonPositiveRho(t, rho)
        return sparse_truncate(u + (eta_prime / rho) * (au - rho * bu), s)

    return _flow(a, b, cfg, v_star, step)


def ppower(
    a_hat,
    p: Projector,
    cfg: SolverConfig,
    v_star=None,
) -> tuple[NDArray[np.float64], RunTrace]:
    """Projected power iteration on A alone (the B-blind baseline).

    The trace's rho column records u'Au, i.e. the Rayleigh quotient with
    B = identity, so traces stay comparable across solvers even though this
    method never sees B.
    """
    a = as_sym_matrix(a_hat, name="a_hat")

    def step(t, u, au, bu, rho, proj):
        if _norm(au) <= 1e-12:
            raise ZeroVector(f"a_hat @ u vanished at iteration {t}")
        return proj(au)

    return _flow(a, None, cfg, v_star, step, p)


def run_with_restarts(
    solver: str,
    a_hat,
    b_hat,
    cfg: SolverConfig,
    restarts: int,
    seed: int,
    *,
    p: Projector | None = None,
    s: int | None = None,
    eta_prime: float | None = None,
    v_star=None,
) -> RestartResult:
    """Best-of-restarts wrapper around one solver.

    Restart 0 uses the configured start vector; restart j >= 1 starts from a
    uniform random unit vector pushed into the nonnegative orthant (absolute
    value), drawn from NormalStream(seed, stream=j). The winner maximizes
    its run's final quotient (u'Au)/(u'Bu), or u'Au for the B-blind power
    baseline (RunTrace.final_rho), with runs within _RESTART_RTOL of the
    best tied and won by the lowest restart index; individual failures are
    collected and only a full wipeout raises AllRunsFailed.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}")
    _typed(restarts=restarts, seed=seed)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    given = {"p": p, "s": s, "eta_prime": eta_prime}
    for name in ("s", "eta_prime") if solver == "rifle" else ("p",):
        if given[name] is None:
            raise ValueError(f"{solver} needs {name}")
    a = as_sym_matrix(a_hat, name="a_hat")
    n = a.shape[0]
    b = None if b_hat is None else as_sym_matrix(b_hat, name="b_hat")
    if solver in ("prfm", "rifle") and b is None:
        raise ValueError(f"{solver} needs b_hat")

    runs: list[RestartResult] = []
    failures: list[str] = []
    for j in range(restarts):
        if j == 0:
            run_cfg = cfg
        else:
            u0 = np.abs(NormalStream(seed, stream=j).unit_vector(n))
            u0 /= _norm(u0)
            run_cfg = replace(cfg, init=u0)
        try:
            if solver == "prfm":
                estimate, trace = prfm(a, b, p, run_cfg, v_star=v_star)
            elif solver == "rifle":
                estimate, trace = rifle(a, b, s, eta_prime, run_cfg, v_star=v_star)
            else:
                estimate, trace = ppower(a, p, run_cfg, v_star=v_star)
        except GepflowError as exc:
            failures.append(f"restart {j}: {type(exc).__name__}: {exc}")
            continue
        runs.append(RestartResult(estimate, trace, trace.final_rho, j, ()))
    if not runs:
        raise AllRunsFailed("; ".join(failures))
    top = max(run.objective for run in runs)
    floor = top - _RESTART_RTOL * max(abs(top), 1.0)
    # a NaN first quotient compares False and keeps the win, as it always did
    best = next((run for run in runs if run.objective >= floor), runs[0])
    return replace(best, failures=tuple(failures))


def trace_to_json(solver: str, cfg: SolverConfig, trace: RunTrace) -> dict:
    """Serialize one successful run in the external trace schema; "config"
    holds every SolverConfig field but `init`, and "status" is "ok"."""
    return {
        "solver": solver,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "init"},
        "rows": [
            {"t": r.t, "rho": r.rho, "cos_sim": r.cos_sim, "dist": r.dist}
            for r in trace.rows
        ],
        "final": [float(x) for x in trace.final_vector],
        "stop_reason": trace.stop_reason,
        "status": "ok",
    }
