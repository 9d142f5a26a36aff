"""Tests for the iterative solvers, restart policy, and exact oracle."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gepflow.errors import (
    AllRunsFailed,
    DegenerateGap,
    DenominatorNonPositive,
    NonPositiveRho,
    ZeroVector,
)
from gepflow.generative import (
    LatentProjectionConfig,
    random_subspace,
    subspace_containing,
)
from gepflow.linalg import MatrixPair
from gepflow.priors import (
    RangeProjector,
    SphereProjector,
    SubspaceProjector,
)
from gepflow.rng import NormalStream
from gepflow.solvers import (
    DENOMINATOR_FLOOR,
    RestartResult,
    SolverConfig,
    default_init,
    exact_solve,
    ppower,
    prfm,
    rifle,
    run_with_restarts,
    trace_to_json,
)

from oracles import random_definite_pair, reference_rayleigh_quotient

SPHERE = SphereProjector()


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _spiked_pair(n: int, seed: int):
    """Noiseless planted pair: A = 4 v v' + I, B = I."""
    v = np.abs(NormalStream(seed, stream=0).unit_vector(n))
    v = _unit(v)
    a = 4.0 * np.outer(v, v) + np.eye(n)
    return a, np.eye(n), v


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(step_size=7 / 32, max_iters=50)
        assert cfg.init is None
        assert cfg.denominator_floor == 1e-10 == DENOMINATOR_FLOOR
        assert cfg.record_trace is True
        assert cfg.stop_tol == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(step_size=0.0, max_iters=10)
        with pytest.raises(ValueError):
            SolverConfig(step_size=0.1, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(step_size=0.1, max_iters=10, init=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("field", ["step_size", "denominator_floor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, field, value):
        # `value <= 0` is False for NaN, so a NaN step size used to pass and
        # every restart ended as an all-NaN estimate
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(**{"step_size": 0.1, "max_iters": 10, field: value})

    @pytest.mark.parametrize("init", [[np.nan] * 4, [np.nan, 1.0, 0.0, 0.0]])
    def test_non_finite_init_rejected(self, init):
        # The unit-norm check alone is False for NaN, so a NaN start used to
        # be accepted and win run_with_restarts as an all-NaN estimate.
        with pytest.raises(ValueError, match="non-finite"):
            SolverConfig(step_size=0.1, max_iters=10, init=np.array(init))

    @pytest.mark.parametrize("stop_tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_stop_tol_rejected(self, stop_tol):
        # NaN and negative tolerances never stopped a run, and inf stopped
        # every run after one step, all without a word
        with pytest.raises(ValueError, match="stop_tol"):
            SolverConfig(step_size=0.1, max_iters=10, stop_tol=stop_tol)

    @pytest.mark.parametrize("stop_tol", [None, 0.0, 1e-9])
    def test_stop_tol_none_or_finite_nonnegative_accepted(self, stop_tol):
        assert SolverConfig(step_size=0.1, max_iters=10, stop_tol=stop_tol).stop_tol == stop_tol

    def test_default_init_vector(self):
        assert_allclose(default_init(4), np.full(4, 0.5), atol=1e-15)


class TestPrfm:
    def test_exact_eigenvector_is_fixed_point(self):
        a = np.diag([2.0, 1.0])
        cfg = SolverConfig(
            step_size=0.1, max_iters=10, init=np.array([1.0, 0.0]), stop_tol=None
        )
        est, trace = prfm(a, np.eye(2), SPHERE, cfg, v_star=np.array([1.0, 0.0]))
        assert_allclose(est, [1.0, 0.0], atol=1e-14)
        assert trace.iterations_run == 10
        for row in trace.rows:
            assert row.rho == pytest.approx(2.0, abs=1e-14)
            assert row.dist == pytest.approx(0.0, abs=1e-14)

    def test_one_step_hand_arithmetic(self):
        # rho0 = 4/3; pre-projection iterate (1 + 1/6, 1 - 1/30, 1 - 2/15)/sqrt(3)
        a = np.diag([3.0, 1.0, 0.0])
        u0 = default_init(3)
        cfg = SolverConfig(step_size=0.1, max_iters=1, init=u0, stop_tol=None)
        est, trace = prfm(a, np.eye(3), SPHERE, cfg)
        pre = np.array([7.0 / 6.0, 29.0 / 30.0, 13.0 / 15.0]) / math.sqrt(3.0)
        assert trace.rows[0].rho == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert_allclose(est, pre / np.linalg.norm(pre), atol=1e-15)

    def test_noiseless_fixed_point_under_subspace_prior(self):
        a, b, v = _spiked_pair(16, seed=3)
        prior = SubspaceProjector(basis=subspace_containing(v, 4, seed=5).basis)
        cfg = SolverConfig(step_size=7 / 32, max_iters=50, init=v, stop_tol=None)
        est, trace = prfm(a, b, prior, cfg, v_star=v)
        for row in trace.rows:
            assert row.dist <= 1e-9

    def test_noiseless_fixed_point_under_generative_prior(self):
        a, b, v = _spiked_pair(12, seed=4)
        model = subspace_containing(v, 3, seed=6)
        prior = RangeProjector(
            model=model,
            config=LatentProjectionConfig(steps=400, learning_rate=0.02, seed=1),
        )
        cfg = SolverConfig(step_size=7 / 32, max_iters=8, init=v, stop_tol=None)
        _, trace = prfm(a, b, prior, cfg, v_star=v)
        for row in trace.rows:
            assert row.dist <= 2e-3

    def test_rho_approaches_leading_eigenvalue_monotonically(self):
        a, b, v = _spiked_pair(24, seed=7)
        cfg = SolverConfig(step_size=7 / 32, max_iters=200, stop_tol=None)
        _, trace = prfm(a, b, SPHERE, cfg, v_star=v)
        errors = [abs(row.rho - 5.0) for row in trace.rows]
        for e_prev, e_next in zip(errors[1:], errors[2:]):
            assert e_next <= e_prev + 1e-12
        assert errors[-1] <= 1e-6

    def test_denominator_guard(self):
        b = np.diag([1.0, -1.0])
        cfg = SolverConfig(step_size=0.1, max_iters=5, init=np.array([0.0, 1.0]))
        with pytest.raises(DenominatorNonPositive) as exc:
            prfm(np.eye(2), b, SPHERE, cfg)
        assert exc.value.t == 0

    def test_early_stop_and_disable(self):
        a, b, _ = _spiked_pair(8, seed=9)
        stopped = prfm(a, b, SPHERE, SolverConfig(step_size=7 / 32, max_iters=500))[1]
        assert stopped.iterations_run < 500
        tail = np.asarray(stopped.rows[-1].rho)
        assert tail == pytest.approx(5.0, abs=1e-6)
        full = prfm(
            a, b, SPHERE, SolverConfig(step_size=7 / 32, max_iters=40, stop_tol=None)
        )[1]
        assert full.iterations_run == 40

    def test_trace_length_invariant_and_silent_mode(self):
        a, b, v = _spiked_pair(6, seed=11)
        cfg = SolverConfig(step_size=7 / 32, max_iters=30)
        est, trace = prfm(a, b, SPHERE, cfg, v_star=v)
        assert len(trace.rows) == trace.iterations_run + 1
        assert all(math.isfinite(row.rho) for row in trace.rows)
        quiet_cfg = SolverConfig(step_size=7 / 32, max_iters=30, record_trace=False)
        est2, trace2 = prfm(a, b, SPHERE, quiet_cfg, v_star=v)
        assert trace2.rows == ()
        assert_allclose(est2, est, rtol=0, atol=0)

    def test_deterministic(self):
        a, b, v = _spiked_pair(10, seed=13)
        cfg = SolverConfig(step_size=7 / 32, max_iters=25)
        t1 = prfm(a, b, SPHERE, cfg, v_star=v)[1]
        t2 = prfm(a, b, SPHERE, cfg, v_star=v)[1]
        assert t1.rows == t2.rows
        assert_allclose(t1.final_vector, t2.final_vector, rtol=0, atol=0)


class TestRifle:
    def test_sparse_eigenvector_is_fixed_point(self):
        v = np.zeros(10)
        v[[1, 4, 7]] = _unit([2.0, -1.0, 1.5])
        a = 4.0 * np.outer(v, v) + np.eye(10)
        cfg = SolverConfig(step_size=0.1, max_iters=10, init=v, stop_tol=None)
        est, trace = rifle(a, np.eye(10), 3, 35 / 32, cfg, v_star=v)
        assert_allclose(est, v, atol=1e-12)
        for row in trace.rows:
            assert row.dist <= 1e-12

    def test_planted_support_recovered_vs_exact_oracle(self):
        n = 50
        v = np.zeros(n)
        v[[3, 11, 24, 38, 45]] = _unit([1.0, -0.8, 1.2, 0.9, -1.1])
        a = 4.0 * np.outer(v, v) + np.eye(n)
        cfg = SolverConfig(step_size=0.1, max_iters=100)
        est, _ = rifle(a, np.eye(n), 5, 35 / 32, cfg)
        lead = exact_solve(MatrixPair(a=a, b=np.eye(n)))
        oracle_support = set(np.argsort(-np.abs(lead))[:5])
        assert set(np.nonzero(est)[0]) == oracle_support
        assert abs(float(est @ lead)) >= 1 - 1e-9

    def test_effective_step_matches_protocol(self):
        # eta'/rho with eta' = 35/32 at rho = lambda_1 = 5 equals 7/32
        assert (35 / 32) / 5 == 7 / 32

    def test_nonpositive_rho_rejected(self):
        cfg = SolverConfig(step_size=0.1, max_iters=5)
        with pytest.raises(NonPositiveRho) as exc:
            rifle(-np.eye(4), np.eye(4), 2, 35 / 32, cfg)
        assert exc.value.t == 0

    @pytest.mark.parametrize("eta_prime", [math.nan, math.inf, 0.0, -1.0])
    def test_step_scale_must_be_finite_and_positive(self, eta_prime):
        cfg = SolverConfig(step_size=0.1, max_iters=5)
        with pytest.raises(ValueError, match="eta_prime must be finite and positive"):
            rifle(np.eye(4), np.eye(4), 2, eta_prime, cfg)

    def test_trace_length_invariant(self):
        a, b, v = _spiked_pair(12, seed=17)
        cfg = SolverConfig(step_size=0.1, max_iters=60)
        _, trace = rifle(a, b, 12, 35 / 32, cfg, v_star=v)
        assert len(trace.rows) == trace.iterations_run + 1


class TestPpower:
    def test_classical_power_iteration(self):
        a = np.diag([5.0, 1.0, 1.0])
        cfg = SolverConfig(step_size=1.0, max_iters=200)
        est, _ = ppower(a, SPHERE, cfg)
        assert_allclose(np.abs(est), [1.0, 0.0, 0.0], atol=1e-8)

    def test_identity_is_fixed_point(self):
        cfg = SolverConfig(step_size=1.0, max_iters=5, stop_tol=None)
        est, trace = ppower(np.eye(4), SPHERE, cfg)
        assert_allclose(est, default_init(4), atol=1e-15)
        assert trace.iterations_run == 5

    def test_rho_column_is_identity_quotient(self):
        a, _, v = _spiked_pair(8, seed=19)
        cfg = SolverConfig(step_size=1.0, max_iters=3, stop_tol=None)
        _, trace = ppower(a, SPHERE, cfg, v_star=v)
        u0 = default_init(8)
        assert trace.rows[0].rho == pytest.approx(float(u0 @ a @ u0), abs=1e-12)

    def test_zero_image_rejected(self):
        a = np.diag([1.0, 0.0])
        cfg = SolverConfig(step_size=1.0, max_iters=5, init=np.array([0.0, 1.0]))
        with pytest.raises(ZeroVector):
            ppower(a, SPHERE, cfg)

    def test_cos_sim_valid_and_improving_under_subspace_prior(self):
        a, _, v = _spiked_pair(32, seed=23)
        prior = SubspaceProjector(basis=subspace_containing(v, 8, seed=24).basis)
        cfg = SolverConfig(step_size=1.0, max_iters=50, stop_tol=None)
        _, trace = ppower(a, prior, cfg, v_star=v)
        cosines = [row.cos_sim for row in trace.rows]
        assert all(-1.0 - 1e-12 <= c <= 1.0 + 1e-12 for c in cosines)
        burn = 5
        for c_prev, c_next in zip(cosines[burn:], cosines[burn + 1 :]):
            assert c_next >= c_prev - 1e-9


class TestRunWithRestarts:
    def test_single_restart_identical_to_direct_run(self):
        a, b, v = _spiked_pair(10, seed=29)
        cfg = SolverConfig(step_size=7 / 32, max_iters=40)
        direct_est, direct_trace = prfm(a, b, SPHERE, cfg, v_star=v)
        result = run_with_restarts("prfm", a, b, cfg, 1, seed=0, p=SPHERE, v_star=v)
        assert result.restart_index == 0
        assert result.failures == ()
        assert_allclose(result.estimate, direct_est, rtol=0, atol=0)
        assert result.trace.rows == direct_trace.rows

    def test_failed_first_restart_is_skipped(self):
        # a = diag(5, -1, ..., -1) gives rho = 0 from the all-ones start, so
        # restart 0 dies with NonPositiveRho; a seeded random restart whose
        # first coordinate dominates survives and converges to e1.
        n = 6
        a = np.diag([5.0] + [-1.0] * (n - 1))
        cfg = SolverConfig(step_size=0.1, max_iters=20)
        seed = next(
            s
            for s in range(50)
            if np.argmax(np.abs(NormalStream(s, stream=1).unit_vector(n))) == 0
            and np.abs(NormalStream(s, stream=1).unit_vector(n))[0] ** 2 > 0.3
        )
        result = run_with_restarts(
            "rifle", a, np.eye(n), cfg, 2, seed=seed, s=1, eta_prime=35 / 32
        )
        assert result.restart_index == 1
        assert len(result.failures) == 1
        assert "NonPositiveRho" in result.failures[0]
        assert_allclose(np.abs(result.estimate), np.eye(n)[0], atol=1e-9)

    def test_all_runs_failed(self):
        b = -np.eye(3)
        cfg = SolverConfig(step_size=0.1, max_iters=5)
        with pytest.raises(AllRunsFailed):
            run_with_restarts("prfm", np.eye(3), b, cfg, 3, seed=1, p=SPHERE)

    def test_selection_maximizes_objective(self):
        stream = NormalStream(31, stream=0)
        noise = stream.matrix(16, 16)
        a, b, v = _spiked_pair(16, seed=31)
        a = a + 0.05 * (noise + noise.T)
        cfg = SolverConfig(step_size=7 / 32, max_iters=60)
        result = run_with_restarts("prfm", a, b, cfg, 10, seed=5, p=SPHERE, v_star=v)
        for j in range(10):
            if j == 0:
                run_cfg = cfg
            else:
                u0 = _unit(np.abs(NormalStream(5, stream=j).unit_vector(16)))
                run_cfg = SolverConfig(step_size=7 / 32, max_iters=60, init=u0)
            est, _ = prfm(a, b, SPHERE, run_cfg, v_star=v)
            assert result.objective >= reference_rayleigh_quotient(a, b, est) - 1e-12

    @pytest.mark.parametrize("solver", ["prfm", "rifle", "ppower"])
    def test_objective_is_the_winning_runs_final_rho(self, solver):
        a, b, v = _spiked_pair(12, seed=41)
        cfg = SolverConfig(step_size=7 / 32, max_iters=30)
        result = run_with_restarts(
            solver, a, b, cfg, 4, seed=3, p=SPHERE, s=12, eta_prime=35 / 32, v_star=v
        )
        assert result.objective is result.trace.final_rho
        assert result.objective == result.trace.rows[-1].rho

    def test_ppower_objective_ignores_b(self):
        a, _, _ = _spiked_pair(8, seed=37)
        cfg = SolverConfig(step_size=1.0, max_iters=30)
        result = run_with_restarts("ppower", a, None, cfg, 3, seed=2, p=SPHERE)
        expected = float(result.estimate @ a @ result.estimate)
        assert result.objective == pytest.approx(expected, abs=1e-12)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            run_with_restarts("newton", np.eye(2), np.eye(2), SolverConfig(0.1, 1), 1, 0)

    @pytest.mark.parametrize(
        "solver, kwargs, missing",
        [
            ("prfm", {}, "p"),
            ("ppower", {}, "p"),
            ("rifle", {"eta_prime": 35 / 32}, "s"),
            ("rifle", {"s": 2}, "eta_prime"),
        ],
    )
    def test_missing_solver_argument_named_before_any_restart(self, solver, kwargs, missing):
        # these used to escape the first restart as a TypeError
        cfg = SolverConfig(step_size=0.1, max_iters=5)
        with pytest.raises(ValueError, match=f"{solver} needs {missing}$"):
            run_with_restarts(solver, np.eye(3), np.eye(3), cfg, 2, 0, **kwargs)


class TestExactSolve:
    def test_spiked_recovers_planted_direction(self):
        a, b, v = _spiked_pair(20, seed=41)
        lead = exact_solve(MatrixPair(a=a, b=b))
        assert abs(float(lead @ v)) >= 1 - 1e-9

    def test_equal_matrices_degenerate(self):
        m = random_definite_pair(np.random.default_rng(0), 5)[1]
        with pytest.raises(DegenerateGap):
            exact_solve(MatrixPair(a=m, b=m))

    def test_monte_carlo_maximization_oracle(self):
        rng = np.random.default_rng(43)
        a, b = random_definite_pair(rng, 8, min_gap=1e-3)
        lead = exact_solve(MatrixPair(a=a, b=b))
        best = reference_rayleigh_quotient(a, b, lead)
        samples = NormalStream(44, stream=0).matrix(100_000, 8)
        quo = np.einsum("ij,jk,ik->i", samples, a, samples) / np.einsum(
            "ij,jk,ik->i", samples, b, samples
        )
        assert best >= float(np.max(quo)) - 1e-9


class TestTraceJson:
    def test_schema_and_round_trip(self):
        a, b, v = _spiked_pair(5, seed=47)
        cfg = SolverConfig(step_size=7 / 32, max_iters=10)
        est, trace = prfm(a, b, SPHERE, cfg, v_star=v)
        blob = trace_to_json("prfm", cfg, trace)
        parsed = json.loads(json.dumps(blob))
        assert parsed["solver"] == "prfm"
        assert parsed["status"] == "ok"
        assert parsed["config"]["step_size"] == 7 / 32
        assert len(parsed["rows"]) == trace.iterations_run + 1
        assert parsed["rows"][0].keys() == {"t", "rho", "cos_sim", "dist"}
        assert_allclose(parsed["final"], est, rtol=0, atol=0)

    @pytest.mark.parametrize("solver", ["prfm", "rifle", "ppower"])
    def test_stop_reason(self, solver):
        a, b, _ = _spiked_pair(8, seed=9)

        def run(cfg):
            if solver == "prfm":
                return prfm(a, b, SPHERE, cfg)[1]
            if solver == "rifle":
                return rifle(a, b, 8, 35 / 32, cfg)[1]
            return ppower(a, SPHERE, cfg)[1]

        early = SolverConfig(step_size=7 / 32, max_iters=500)
        stopped = run(early)
        assert stopped.iterations_run < 500
        assert stopped.stop_reason == "converged"
        blob = json.loads(json.dumps(trace_to_json(solver, early, stopped)))
        assert blob["stop_reason"] == "converged"
        fixed = SolverConfig(step_size=7 / 32, max_iters=12, stop_tol=None)
        capped = run(fixed)
        assert capped.iterations_run == 12
        assert capped.stop_reason == "max_iters"
        blob = json.loads(json.dumps(trace_to_json(solver, fixed, capped)))
        assert blob["stop_reason"] == "max_iters"

    @pytest.mark.parametrize("max_iters", [10, 11])
    def test_stop_reason_cycled(self, max_iters):
        # A swaps e_1 and e_2: power iteration from e_1 alternates between
        # them, and stops once two updates in a row returned to the iterate
        # before last. It returns the point it would have ended on at
        # max_iters.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        e1, e2 = np.eye(2)
        cfg = SolverConfig(step_size=7 / 32, max_iters=max_iters, init=e1)
        est, trace = ppower(a, SPHERE, cfg, v_star=e1)
        assert trace.stop_reason == "cycled"
        assert trace.iterations_run == 3
        expected = e1 if max_iters % 2 == 0 else e2
        assert np.array_equal(est, expected)
        assert np.array_equal(trace.final_vector, expected)
        assert trace.final_rho == float(expected @ a @ expected)
        # rows: e_1, e_2, e_1, then the returned point
        rows = [(r.t, r.cos_sim) for r in trace.rows]
        assert rows == [(0, 1.0), (1, 0.0), (2, 1.0), (3, expected[0])]
        result = run_with_restarts("ppower", a, None, cfg, 1, 0, p=SPHERE)
        assert np.array_equal(result.estimate, expected)
        assert result.objective == trace.final_rho
        blob = json.loads(json.dumps(trace_to_json("ppower", cfg, trace)))
        assert blob["stop_reason"] == "cycled"
        assert blob["final"] == list(expected)
        # Without stop_tol the run alternates to the cap and ends there.
        uncut = ppower(a, SPHERE, SolverConfig(step_size=7 / 32, max_iters=max_iters,
                                               init=e1, stop_tol=None))
        assert uncut[1].stop_reason == "max_iters"
        assert np.array_equal(uncut[0], expected)

    def test_unknown_truth_serializes_as_null(self):
        a, b, _ = _spiked_pair(4, seed=53)
        cfg = SolverConfig(step_size=7 / 32, max_iters=5)
        _, trace = prfm(a, b, SPHERE, cfg)
        blob = json.loads(json.dumps(trace_to_json("prfm", cfg, trace)))
        assert blob["rows"][0]["cos_sim"] is None
        assert blob["rows"][0]["dist"] is None
