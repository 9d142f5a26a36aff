"""The benchmark's four workloads.

Each workload builds its inputs once (`setup`) and then runs whole passes
(`run_pass`), closed loop and single-threaded. Pass i draws its instances
from a seed derived from (workload, --seed, i), so two passes never repeat
one instance, and a run's work is a pure function of its seed and its pass
count. Every pass checks its
own outputs against the workload's correctness gates.

The package is reached only through module attributes (``gepflow.x``) at
call time, so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gepflow


def derive_seed(workload: str, seed: int, index: int) -> int:
    """A 31-bit seed for pass `index` of `workload` under --seed `seed`."""
    return zlib.crc32(f"{workload}:{seed}:{index}".encode()) & 0x7FFFFFFF


@dataclass
class PassResult:
    """What one pass did and whether its outputs passed the gates.

    `items` are solves (one run_with_restarts call each) or, on the lemma
    suite, inequality draws; `failed` counts the items that failed on their
    own. `gates` are checks on the pass as a whole: when one fails, every
    item of the pass counts as failed, so no result is silently dropped.
    """

    items: int
    failed: int
    latencies_ms: list = field(default_factory=list)
    abs_cos: list = field(default_factory=list)
    #: solves whose winning run stopped before max_iters; None when the
    #: workload runs a fixed iteration count
    converged: int | None = None
    gates: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    #: repr of the pass's outputs minus timings; a traced replay must match
    fingerprint: str = ""

    def __post_init__(self):
        if not all(self.gates.values()):
            self.failed = self.items


class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name = ""
    unit = "solves"
    #: nominal seconds of one pass (2-core x86-64 VM, numpy 2.4 / OpenBLAS
    #: 0.3.31); a run of S seconds makes round(S / pass_s) passes
    pass_s: float
    #: span names of the package functions a pass calls directly; in a
    #: traced pass they must take up nearly all of its wall time
    roots: tuple = ()

    def setup(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, index: int) -> PassResult:
        raise NotImplementedError


def _sweep_rows_fingerprint(rows) -> str:
    return repr([dataclasses.astuple(dataclasses.replace(r, wall_ms=0.0)) for r in rows])


class _Sweep(Workload):
    spec_args: dict = {}
    roots = ("harness.sweep",)

    def setup(self, seed: int):
        return seed, gepflow.SweepSpec(**self.spec_args)

    def run_pass(self, inputs, index: int) -> PassResult:
        seed, spec = inputs
        spec = dataclasses.replace(spec, base_seed=derive_seed(self.name, seed, index))
        rows = gepflow.run_sweep(spec, jobs=1)
        ok = [r for r in rows if r.status == "ok"]
        gates, notes = self.gates(spec, rows)
        return PassResult(
            items=len(rows),
            failed=len(rows) - len(ok),
            latencies_ms=[r.wall_ms for r in rows],
            abs_cos=[r.abs_cos_sim for r in ok],
            converged=sum(r.iterations < spec.max_iters for r in ok),
            gates=gates,
            notes=notes,
            fingerprint=_sweep_rows_fingerprint(rows),
        )

    def gates(self, spec, rows) -> tuple[dict, dict]:
        raise NotImplementedError


class RateSweep(_Sweep):
    name = "rate_sweep"
    pass_s = 4.0
    spec_args = dict(
        kind="spiked",
        m_values=(250, 500, 1000, 2000, 4000),
        n=128,
        solvers=("prfm",),
        trials=20,
        prior={"prior": "subspace", "k": 8},
    )

    def gates(self, spec, rows):
        """Acceptance check 05: the median error's log-log slope in m."""
        medians = []
        for m in spec.m_values:
            dists = [r.signed_dist_min for r in rows if r.m == m and r.status == "ok"]
            medians.append(float(np.median(dists)) if dists else math.nan)
        try:
            slope = gepflow.fit_loglog_slope(zip(spec.m_values, medians))[0]
        except gepflow.DegenerateFit:
            slope = math.nan
        return {"loglog_slope_in_range": -0.65 <= slope <= -0.35}, {"loglog_slope": slope}


class OrderingSweep(_Sweep):
    name = "ordering_sweep"
    pass_s = 10.0
    spec_args = dict(
        kind="diag_b",
        m_values=(100, 200, 300),
        n=64,
        solvers=("prfm", "ppower", "rifle"),
        trials=20,
        prior={"prior": "subspace", "k": 8},
        s=20,
    )

    def gates(self, spec, rows):
        """Acceptance check 06's "prfm and ppower beat rifle" clause.

        The "prfm >= ppower" clause is the documented known failure: its
        means are reported, not gated.
        """
        mean = {}
        for solver in spec.solvers:
            for m in spec.m_values:
                vals = [r.abs_cos_sim for r in rows if r.solver == solver and r.m == m]
                mean[(solver, m)] = float(np.mean(vals))
        beats = all(
            mean[(s, m)] > mean[("rifle", m)] for s in ("prfm", "ppower") for m in spec.m_values
        )
        notes = {f"mean_abs_cos.{s}.m{m}": v for (s, m), v in mean.items()}
        notes["prfm_ge_ppower"] = all(
            mean[("prfm", m)] >= mean[("ppower", m)] for m in spec.m_values
        )
        return {"prfm_and_ppower_beat_rifle": beats}, notes


class LemmaSuite(Workload):
    name = "lemma_suite"
    unit = "draws"
    draws = 10_000
    pass_s = 20.0
    roots = ("theory.suites",)

    def setup(self, seed: int):
        return seed

    def run_pass(self, seed, index: int) -> PassResult:
        results = gepflow.run_lemma_suites(self.draws, seed=derive_seed(self.name, seed, index))
        failures = sum(r.failures for r in results)
        return PassResult(
            items=sum(r.draws for r in results),
            failed=failures,
            gates={"draws_per_inequality_ge_9900": all(r.draws >= 9_900 for r in results)},
            notes={f"draws.{r.name}": r.draws for r in results},
            fingerprint=repr(results),
        )


class RangePrior(Workload):
    name = "range_prior"
    n, m, latent, trials, iterations = 64, 1000, 4, 10, 30
    pass_s = 7.0
    roots = ("problems.gen", "solvers.solve")
    solvers = ("prfm", "ppower")

    def setup(self, seed: int):
        base = derive_seed(self.name, seed, -1)
        model = gepflow.random_mlp(self.n, self.latent, hidden=(32,), seed=base)
        truths = []
        for t in range(self.trials):
            z = gepflow.NormalStream(base, stream=t + 1).ball_point(
                self.latent, 0.9 * model.latent_radius
            )
            truths.append(gepflow.generative.forward(model, z))
        # A fixed iteration count (no early stop) keeps a pass's work the
        # same for every seed; with early stopping it varied twofold.
        cfg = gepflow.SolverConfig(step_size=7.0 / 32.0, max_iters=self.iterations, stop_tol=None)
        return seed, model, truths, cfg

    def run_pass(self, inputs, index: int) -> PassResult:
        seed, model, truths, cfg = inputs
        key = derive_seed(self.name, seed, index) << 8
        p = gepflow.RangeProjector(
            model=model, config=gepflow.LatentProjectionConfig(steps=30, restarts=2, seed=key)
        )
        latencies, abs_cos, estimates = [], [], []
        failed = 0
        for t, v in enumerate(truths):
            inst = gepflow.gen_spiked(v, self.m, seed=key + 16 * t)
            for solver in self.solvers:
                start = perf_counter()
                try:
                    res = gepflow.run_with_restarts(
                        solver, inst.a_hat, inst.b_hat, cfg, 3, key + 16 * t + 3, p=p
                    )
                except gepflow.GepflowError as exc:
                    failed += 1
                    estimates.append(type(exc).__name__)
                    continue
                finally:
                    latencies.append((perf_counter() - start) * 1000.0)
                u = res.estimate
                if abs(float(np.linalg.norm(u)) - 1.0) > 1e-8:
                    failed += 1
                    estimates.append("not a unit vector")
                    continue
                abs_cos.append(abs(float(u @ inst.truth.v_lead)))
                estimates.append(u.tolist())
        return PassResult(
            items=len(latencies),
            failed=failed,
            latencies_ms=latencies,
            abs_cos=abs_cos,
            fingerprint=repr(estimates),
        )


WORKLOADS = {w.name: w for w in (RateSweep(), OrderingSweep(), LemmaSuite(), RangePrior())}
