"""Experiment orchestration: metrics, m-sweeps, slope fits, tables.

A sweep runs each requested solver over a grid of sample sizes with
per-cell derived seeds, so the entire experiment is a pure function of its
spec. Rows are sorted before emission and wall-clock can be zeroed, which
makes output files byte-identical across parallelism degrees.

Seed derivation: cell (m_index, trial) gets the key
``(base_seed << 32) + (cell_index << 4)`` with the low bits reserved per
role (0 instance draws, 1 truth-vector draw, 2 prior construction,
3 restart initializations), so no two roles ever share a generator stream.
"""

from __future__ import annotations

import functools
import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from time import perf_counter

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateFit, GepflowError, ZeroVector
from .linalg import _typed
from .priors import PRIOR_NAMES, Projector, projector_from_spec
from .problems import ProblemInstance, gen_diag_b, gen_phase_retrieval, gen_spiked
from .rng import NormalStream
from .solvers import SOLVER_NAMES, SolverConfig, run_with_restarts

GENERATORS = {
    "spiked": gen_spiked,
    "phase_retrieval": gen_phase_retrieval,
    "diag_b": gen_diag_b,
}
KINDS = tuple(GENERATORS)


def _unit_checked(x, name: str) -> NDArray[np.float64]:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm <= 1e-12:
        raise ZeroVector(f"{name} has zero norm")
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"{name} must be unit within 1e-8, got norm {norm:.6g}")
    return v / norm


def cosine_similarity(v_star, u) -> float:
    """Inner product of the (defensively renormalized) unit inputs."""
    v = _unit_checked(v_star, "v_star")
    uu = _unit_checked(u, "u")
    return float(uu @ v)


def signed_distance(u, v_star) -> float:
    """min(||u - v*||, ||u + v*||): distance up to the global sign.

    Computed directly from the two norms; the closed form
    sqrt(2 - 2|u'v*|) is checked against this as a property, not used here.
    """
    uu = _unit_checked(u, "u")
    v = _unit_checked(v_star, "v_star")
    return min(float(np.linalg.norm(uu - v)), float(np.linalg.norm(uu + v)))


def plateau_index(values) -> int:
    """First index where the sequence stops decreasing by more than 1e-7."""
    seq = list(values)
    for t in range(len(seq) - 1):
        if seq[t] - seq[t + 1] <= 1e-7:
            return t
    return max(len(seq) - 1, 0)


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one experiment sweep.

    `prior` is the dict `projector_from_spec` accepts (None means the
    sphere). A {"prior": "subspace", "k": int} prior is built per cell,
    around that cell's truth vector; every other prior is built once per
    sweep and shared by all cells.

    `eta`, `max_iters` and `stop_tol` are checked by building
    `solver_config`, the one SolverConfig every cell's solves share, and
    stored as it stores them.
    """

    kind: str
    m_values: tuple[int, ...]
    n: int
    solvers: tuple[str, ...]
    trials: int
    prior: dict | None = None
    restarts: int = 10
    eta: float = 7.0 / 32.0
    eta_prime: float = 35.0 / 32.0
    s: int | None = None
    max_iters: int = 300
    stop_tol: float | None = 1e-9
    base_seed: int = 0

    def __post_init__(self):
        settings = vars(self)
        settings.update(_typed(int, 2, n=self.n))
        settings.update(_typed(int, 1, trials=self.trials, restarts=self.restarts))
        settings.update(_typed(int, 0, base_seed=self.base_seed))
        if self.s is not None:
            settings.update(_typed(s=self.s))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        ms = tuple(_typed(m_values=m)["m_values"] for m in self.m_values)
        if not ms or any(m < 1 for m in ms) or list(ms) != sorted(set(ms)):
            raise ValueError("m_values must be nonempty, positive, strictly ascending")
        settings["m_values"] = ms
        sv = tuple(self.solvers)
        if not sv or any(name not in SOLVER_NAMES for name in sv):
            raise ValueError(f"solvers must be a nonempty subset of {SOLVER_NAMES}")
        settings["solvers"] = sv
        cfg = self.solver_config  # checks eta, max_iters and stop_tol
        settings.update(eta=cfg.step_size, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
        settings.update(_typed(float, 0, eta_prime=self.eta_prime))
        if "rifle" in sv and (self.s is None or self.s < 1):
            raise ValueError("rifle requires a positive sparsity level s")
        if self.prior is not None and (
            not isinstance(self.prior, dict) or self.prior.get("prior") not in PRIOR_NAMES
        ):
            raise ValueError("unrecognized prior spec")

    @functools.cached_property
    def solver_config(self) -> SolverConfig:
        # A row reads only iterations_run, so the trace rows are skipped.
        return SolverConfig(
            step_size=self.eta, max_iters=self.max_iters, stop_tol=self.stop_tol,
            record_trace=False,
        )


@dataclass(frozen=True)
class ResultRow:
    solver: str
    m: int
    trial: int
    cos_sim: float
    abs_cos_sim: float
    dist: float
    signed_dist_min: float
    iterations: int
    stop_reason: str
    wall_ms: float
    status: str


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def _cell_key(spec: SweepSpec, m_index: int, trial: int) -> int:
    idx = m_index * spec.trials + trial
    return (spec.base_seed << 32) + (idx << 4)


def _run_cell(
    spec: SweepSpec, m_index: int, trial: int, shared: Projector | None
) -> list[ResultRow]:
    m = spec.m_values[m_index]
    key = _cell_key(spec, m_index, trial)
    raw = NormalStream(key + 1, stream=0).unit_vector(spec.n)
    v_star = np.abs(raw)
    v_star = v_star / float(np.linalg.norm(v_star))
    instance: ProblemInstance = GENERATORS[spec.kind](v_star, m, seed=key)
    # Metric reference is the population GEP optimum (unit leading
    # generalized eigenvector). It equals the planted vector when B = I;
    # for anisotropic B the two differ and the optimum is the honest target.
    truth_v = instance.truth.v_lead
    p = shared or projector_from_spec(spec.prior, truth=truth_v, seed=key + 2)
    rows: list[ResultRow] = []
    for solver in spec.solvers:
        start = perf_counter()
        try:
            result = run_with_restarts(
                solver,
                instance.a_hat,
                instance.b_hat,
                spec.solver_config,
                spec.restarts,
                key + 3,
                p=p,
                s=spec.s,
                eta_prime=spec.eta_prime,
            )
        except GepflowError as exc:
            wall = (perf_counter() - start) * 1000.0
            cos = dist = signed = math.nan
            iterations, stop_reason, status = 0, "", type(exc).__name__
        else:
            wall = (perf_counter() - start) * 1000.0
            u = result.estimate
            cos = cosine_similarity(truth_v, u)
            dist = float(np.linalg.norm(u - truth_v))
            signed = signed_distance(u, truth_v)
            trace = result.trace
            iterations, stop_reason, status = trace.iterations_run, trace.stop_reason, "ok"
        rows.append(
            ResultRow(
                solver=solver, m=m, trial=trial,
                cos_sim=cos, abs_cos_sim=abs(cos),
                dist=dist, signed_dist_min=signed,
                iterations=iterations, stop_reason=stop_reason,
                wall_ms=wall, status=status,
            )
        )
    return rows


def run_sweep(spec: SweepSpec, *, jobs: int = 1, timing: str = "real") -> list[ResultRow]:
    """Execute the sweep; deterministic for a fixed spec at any jobs count.

    timing="zero" blanks the wall_ms column so output files can be compared
    byte-for-byte across machines and parallelism degrees.
    """
    _typed(int, 1, jobs=jobs)
    if timing not in ("real", "zero"):
        raise ValueError('timing must be "real" or "zero"')
    prior = spec.prior if spec.prior is not None else {"prior": "sphere"}
    # Projectors are frozen and range projection is seeded by its config, so
    # cells and threads share one; only a "k" prior depends on the cell's truth.
    per_cell = prior.get("prior") == "subspace" and "k" in prior
    shared = None if per_cell else projector_from_spec(prior)
    cells = [
        (mi, t) for mi in range(len(spec.m_values)) for t in range(spec.trials)
    ]
    if jobs == 1:
        batches = [_run_cell(spec, mi, t, shared) for mi, t in cells]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(lambda c: _run_cell(spec, *c, shared), cells))
    rows = [row for batch in batches for row in batch]
    if timing == "zero":
        rows = [replace(row, wall_ms=0.0) for row in rows]
    rows.sort(key=lambda r: (r.solver, r.m, r.trial))
    return rows


def fit_loglog_slope(pairs) -> tuple[float, float, float]:
    """Least-squares line through (log m, log error); returns
    (slope, intercept, r_squared)."""
    pts = [(float(m), float(e)) for m, e in pairs]
    if len({m for m, _ in pts}) < 3:
        raise DegenerateFit("need at least 3 distinct m values")
    for m, e in pts:
        if not (m > 0 and e > 0) or not (math.isfinite(m) and math.isfinite(e)):
            raise DegenerateFit(f"invalid point ({m}, {e})")
    xs = [math.log(m) for m, _ in pts]
    ys = [math.log(e) for _, e in pts]
    slope, intercept = statistics.linear_regression(xs, ys)
    r_squared = 1.0 if len(set(ys)) == 1 else statistics.correlation(xs, ys) ** 2
    return slope, intercept, r_squared


@dataclass(frozen=True)
class SummaryCell:
    solver: str
    m: int
    count: int
    mean_abs_cos: float
    std_abs_cos: float
    mean_signed_dist: float
    std_signed_dist: float
    median_signed_dist: float


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    return statistics.fmean(values), (statistics.stdev(values) if len(values) > 1 else 0.0)


def summarize(rows) -> list[SummaryCell]:
    """Per-(solver, m) mean/std/median over successful rows only.

    Cells whose every run failed still appear, with count 0 and NaN stats,
    so silent data loss is impossible.
    """
    groups: dict[tuple[str, int], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.solver, row.m), []).append(row)
    cells = []
    for (solver, m), group in sorted(groups.items()):
        ok = [r for r in group if r.status == "ok"]
        cos_mean, cos_std = _mean_std([r.abs_cos_sim for r in ok])
        d_mean, d_std = _mean_std([r.signed_dist_min for r in ok])
        median = float(np.median([r.signed_dist_min for r in ok])) if ok else math.nan
        cells.append(
            SummaryCell(
                solver=solver, m=m, count=len(ok),
                mean_abs_cos=cos_mean, std_abs_cos=cos_std,
                mean_signed_dist=d_mean, std_signed_dist=d_std,
                median_signed_dist=median,
            )
        )
    return cells


def _csv_field(name: str, value) -> str:
    if name == "wall_ms":
        return f"{value:.3f}"
    return repr(value) if isinstance(value, float) else str(value)


def rows_to_csv(rows) -> str:
    """Render rows as CSV text, one column per ResultRow field in order
    (shortest-round-trip float formatting, so identical rows always
    produce identical bytes; wall_ms to the microsecond)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_csv_field(f.name, getattr(r, f.name)) for f in fields(r)))
    return "\n".join(lines) + "\n"


def summary_to_text(cells) -> str:
    """Aligned plain-text table of the summary cells."""
    header = (
        f"{'solver':<8}{'m':>8}{'count':>7}"
        f"{'abs_cos (mean+/-std)':>24}{'signed_dist (mean+/-std)':>28}{'median_dist':>14}"
    )
    lines = [header, "-" * len(header)]
    for c in cells:
        lines.append(
            f"{c.solver:<8}{c.m:>8}{c.count:>7}"
            f"{f'{c.mean_abs_cos:.4f} +/- {c.std_abs_cos:.4f}':>24}"
            f"{f'{c.mean_signed_dist:.4f} +/- {c.std_signed_dist:.4f}':>28}"
            f"{c.median_signed_dist:>14.4f}"
        )
    return "\n".join(lines) + "\n"


def summary_to_json(cells) -> list[dict]:
    """JSON-safe summary, one key per SummaryCell field (NaN becomes null)."""
    return [
        {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in asdict(c).items()}
        for c in cells
    ]
