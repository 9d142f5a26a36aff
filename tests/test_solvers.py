"""Tests for the iterative solvers, restart policy, and exact oracle."""

from __future__ import annotations

import json
import math
import re
import zlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gepflow import generative, solvers
from gepflow.errors import (
    AllRunsFailed,
    DegenerateGap,
    DegenerateProjection,
    DenominatorNonPositive,
    NonPositiveRho,
    ZeroVector,
)
from gepflow.generative import (
    LatentProjectionConfig,
    SubspaceGenerator,
    forward,
    random_mlp,
    random_subspace,
    subspace_containing,
    subspace_project,
)
from gepflow.harness import fit_loglog_slope, signed_distance
from gepflow.linalg import MatrixPair
from gepflow.problems import gen_spiked
from gepflow.priors import RangeProjector, SparseProjector, SphereProjector, project
from gepflow.rng import NormalStream
from gepflow.solvers import (
    DENOMINATOR_FLOOR,
    RestartResult,
    SolverConfig,
    default_init,
    ppower,
    prfm,
    rifle,
    run_with_restarts,
    trace_to_json,
)

from oracles import exact_solve, random_definite_pair, reference_rayleigh_quotient

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
        prior = subspace_containing(v, 4, seed=5)
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
        prior = subspace_containing(v, 8, seed=24)
        cfg = SolverConfig(step_size=1.0, max_iters=50, stop_tol=None)
        _, trace = ppower(a, prior, cfg, v_star=v)
        cosines = [row.cos_sim for row in trace.rows]
        assert all(-1.0 - 1e-12 <= c <= 1.0 + 1e-12 for c in cosines)
        burn = 5
        for c_prev, c_next in zip(cosines[burn:], cosines[burn + 1 :]):
            assert c_next >= c_prev - 1e-9


class TestSubspaceCoordinates:
    """After its first step, a subspace-prior prfm or ppower run carries the
    iterate's coordinates in the prior's basis Q and iterates on (Q'AQ, Q'BQ)."""

    def test_null_compressed_target_raises_subspace_projections_error(self):
        # prfm's own update y = c + eta (A_k - rho B_k) c has c'y = c'c = 1, so
        # its coefficient cannot vanish; this step sends a null one after t = 0
        p = random_subspace(6, 3, seed=1)
        a, b, _ = _spiked_pair(6, seed=2)
        shapes = []

        def step(t, u, au, bu, rho, proj):
            shapes.append(u.shape)
            return proj(u + 0.1 * (au - rho * bu) if t == 0 else np.zeros_like(u))

        cfg = SolverConfig(step_size=0.1, max_iters=5)
        with pytest.raises(DegenerateProjection) as raised:
            solvers._flow(*solvers._pair(a, b), cfg, None, step, p)
        assert shapes == [(6,), (3,)]
        orthogonal = np.linalg.svd(p.basis, full_matrices=True)[0][:, -1]
        with pytest.raises(DegenerateProjection) as expected:
            subspace_project(p, orthogonal)
        assert str(raised.value) == str(expected.value)

    def test_ppower_guard_reads_the_compressed_image(self):
        # Q = [e1, e2] and Q'AQ = 0 while A u_1 = (0, 0, sqrt 2): the guard on
        # ||A_k c|| raises ZeroVector at t = 1, where the n-dimensional loop
        # failed in the projection of A u_1 instead
        a = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        p = SubspaceGenerator(basis=np.eye(3)[:, :2], latent_radius=1.0)
        cfg = SolverConfig(step_size=1.0, max_iters=5)
        with pytest.raises(ZeroVector, match="vanished at iteration 1"):
            ppower(a, p, cfg)
        with pytest.raises(DegenerateProjection):
            subspace_project(p, a @ np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))

    @pytest.mark.parametrize("solver", ["prfm", "ppower"])
    def test_trace_rows_are_the_lifted_iterates(self, solver):
        # a run cut at max_iters = t returns its iterate t lifted; from t = 2 on
        # that is the traced row's vector bit for bit, and the traced rho is
        # the lifted iterate's quotient to rounding
        a, b, v = _spiked_pair(12, seed=7)
        a = a + 0.1 * np.diag(np.arange(12.0))
        p = subspace_containing(v, 4, seed=8)

        def run(max_iters, record):
            cfg = SolverConfig(step_size=7 / 32, max_iters=max_iters, stop_tol=None,
                               record_trace=record)
            return prfm(a, b, p, cfg, v_star=v) if solver == "prfm" else ppower(a, p, cfg, v_star=v)

        _, trace = run(8, True)
        assert len(trace.rows) == 9
        for t in range(1, 9):
            u, cut = run(t, False)
            row = trace.rows[t]
            if t >= 2:
                assert row.cos_sim == float(u @ v) and row.dist == float(np.linalg.norm(u - v))
            else:  # u_1 itself against its lift Q Q'u_1
                assert row.cos_sim == pytest.approx(float(u @ v), abs=1e-15)
            assert row.rho == pytest.approx(cut.final_rho, rel=1e-13)
        assert trace.rows[-1].rho == trace.final_rho

    def test_orbit_from_the_start_is_caught_by_the_lifted_t1_cycle_test(self):
        # A = diag(1, -1), B = I and eta = 1 / cos(2 theta_0) map (cos, sin)
        # theta_0 to its mirror image and back, so u_2 = u_0: with Q = I the
        # t = 1 test compares Q c_2 with the start and the run stops cycled
        # at iteration 3, as the n-dimensional loop under the sphere prior does
        u0 = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        cfg = SolverConfig(step_size=2.0, max_iters=10, init=u0)
        a = np.diag([1.0, -1.0])
        identity = SubspaceGenerator(basis=np.eye(2), latent_radius=1.0)
        runs = [prfm(a, np.eye(2), p, cfg) for p in (identity, SPHERE)]
        for u, trace in runs:
            assert (trace.stop_reason, trace.iterations_run) == ("cycled", 3)
            assert_allclose(u, u0, atol=1e-12)

    @pytest.mark.parametrize("prior", ["subspace", "range"])
    def test_first_step_goes_through_project(self, prior):
        # the subspace prior projects once per run; a range projector over the
        # same generator still projects (by Adam) at every iterate
        a, b, v = _spiked_pair(8, seed=9)
        gen = subspace_containing(v, 3, seed=10)
        p = gen if prior == "subspace" else RangeProjector(
            gen, LatentProjectionConfig(steps=3, restarts=1)
        )
        calls = []

        def counted(p, x):
            calls.append(1)
            return project(p, x)

        cfg = SolverConfig(step_size=7 / 32, max_iters=6, stop_tol=None)
        with mock.patch.object(solvers, "project", counted):
            prfm(a, b, p, cfg)
        assert len(calls) == (1 if prior == "subspace" else 6)


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

    def test_near_tied_restarts_go_to_the_lower_index(self):
        # Under a 1-sparse prior a run stays on the coordinate vector its first
        # step picks. Restart 0 starts on e1 (quotient 1); restart 1 starts
        # where its second entry dominates and ends on e2, whose quotient is
        # larger by about 3e-15, inside the tie band, so restart 0 wins.
        a = np.diag([1.0, 1.0 + 3e-15])
        seed = next(
            s for s in range(50)
            if abs(NormalStream(s, stream=1).unit_vector(2)[1])
            > abs(NormalStream(s, stream=1).unit_vector(2)[0])
        )
        e1 = np.array([1.0, 0.0])
        cfg = SolverConfig(step_size=0.1, max_iters=20, init=e1)
        p = SparseProjector(1)
        result = run_with_restarts("prfm", a, np.eye(2), cfg, 2, seed, p=p)
        assert result.restart_index == 0
        assert np.array_equal(result.estimate, e1) and result.objective == 1.0
        u1 = _unit(np.abs(NormalStream(seed, stream=1).unit_vector(2)))
        other, trace = prfm(a, np.eye(2), p, SolverConfig(0.1, 20, init=u1))
        assert np.array_equal(other, [0.0, 1.0])
        assert 2e-15 < trace.final_rho - result.objective < 4e-15

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

    @pytest.mark.parametrize("solver, compressions", [("prfm", 2), ("rifle", 0), ("ppower", 1)])
    def test_each_matrix_is_checked_and_compressed_once_per_solve(
        self, monkeypatch, solver, compressions
    ):
        # The restarts share the checked pair and, under a subspace prior,
        # its Q'AQ and Q'BQ; each restart's own call gives the same bytes
        a, b, _ = _spiked_pair(12, seed=41)
        p = subspace_containing(np.ones(12), 3, seed=2)
        cfg = SolverConfig(step_size=7 / 32, max_iters=30)
        args = dict(p=p, s=4, eta_prime=35 / 32)
        counts = Counter()
        for name in ("as_sym_matrix", "_compress"):
            inner = getattr(solvers, name)

            def counted(*call, _name=name, _inner=inner, **kwargs):
                counts[_name] += 1
                return _inner(*call, **kwargs)

            monkeypatch.setattr(solvers, name, counted)
        result = run_with_restarts(solver, a, b, cfg, 4, seed=3, **args)
        assert (counts["as_sym_matrix"], counts["_compress"]) == (2, compressions)
        monkeypatch.undo()
        j = result.restart_index
        init = cfg.init if j == 0 else _unit(np.abs(NormalStream(3, stream=j).unit_vector(12)))
        run_cfg = SolverConfig(step_size=7 / 32, max_iters=30, init=init)
        direct = {
            "prfm": lambda: prfm(a, b, p, run_cfg),
            "rifle": lambda: rifle(a, b, 4, 35 / 32, run_cfg),
            "ppower": lambda: ppower(a, p, run_cfg),
        }[solver]()
        assert result.estimate.tobytes() == direct[0].tobytes()
        assert result.trace.rows == direct[1].rows

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


class TestRangeWarmStart:
    """A range-prior run's first projection descends from the config's
    seeded starts; each later one from the previous projection's latent,
    as one row."""

    def test_each_projection_after_the_first_decodes_one_row(self):
        gen = random_mlp(10, 2, hidden=(6,), seed=3)
        v = forward(gen, np.array([0.5, -1.0]))
        a = 4.0 * np.outer(v, v) + np.eye(10)
        cfg = SolverConfig(step_size=7 / 32, max_iters=6, stop_tol=None)
        p = RangeProjector(gen, LatentProjectionConfig(steps=4, restarts=3))
        calls = []

        def counted(gen, z):
            calls.append(1)
            return forward(gen, z)

        with mock.patch.object(generative, "forward", counted):
            prfm(a, np.eye(10), p, cfg)
        # 3 seeded rows at t = 0, then 1 row for each of the 5 later iterates,
        # each row decoded at its start and after each of its 4 steps
        assert len(calls) == (3 + 5) * (4 + 1)

    def test_accuracy_at_the_range_benchmark_shape(self):
        """The range benchmark's passes 0 and 1 at seed 0, rebuilt through
        the library: the truths are decodes of random_mlp(64, 4, hidden=(32,))
        latents, each pass solves 10 spiked instances at m = 1000 with prfm
        and ppower (3 restarts x 30 fixed iterations, Adam 30 steps x 2
        seeded starts). Each pass's mean |cos| with the truth must reach 0.9
        for prfm and 0.99 for ppower; with every projection restarted from
        the seeded starts it read 0.752 and 0.814 on pass 0."""

        def derive_seed(index):
            return zlib.crc32(f"range_prior:0:{index}".encode()) & 0x7FFFFFFF

        base = derive_seed(-1)
        model = random_mlp(64, 4, hidden=(32,), seed=base)
        truths = [
            forward(model, NormalStream(base, stream=t + 1).ball_point(4, 0.9 * model.latent_radius))
            for t in range(10)
        ]
        cfg = SolverConfig(step_size=7.0 / 32.0, max_iters=30, stop_tol=None)
        means = []
        for index in (0, 1):
            key = derive_seed(index) << 8
            p = RangeProjector(model, LatentProjectionConfig(steps=30, restarts=2, seed=key))
            cos = {"prfm": [], "ppower": []}
            for t, v in enumerate(truths):
                inst = gen_spiked(v, 1000, seed=key + 16 * t)
                for solver, found in cos.items():
                    res = run_with_restarts(
                        solver, inst.a_hat, inst.b_hat, cfg, 3, key + 16 * t + 3, p=p
                    )
                    found.append(abs(float(res.estimate @ inst.truth.v_lead)))
            means.append((float(np.mean(cos["prfm"])), float(np.mean(cos["ppower"]))))
        for prfm_mean, ppower_mean in means:
            assert prfm_mean >= 0.9 and ppower_mean >= 0.99, means


class TestRangeRate:
    def test_error_falls_at_the_papers_rate_under_a_generative_prior(self):
        """The paper's rate under a generative prior: truths in the range of
        random_mlp(64, 4, hidden=(32,)) (decodes of latents uniform in the
        ball of radius 0.9 r), 10 spiked instances at each m, prfm with 3
        restarts x 30 fixed iterations through a RangeProjector (Adam 30
        steps x 2 seeded starts). The log-log slope of the per-m median
        distance up to sign lies in check 05's band [-0.65, -0.35]. Its
        truths must lie in the decoder's range, so it cannot go through
        run_sweep, which plants a truth outside it."""
        model = random_mlp(64, 4, hidden=(32,), seed=0)
        truths = [
            forward(model, NormalStream(0, stream=t + 1).ball_point(4, 0.9 * model.latent_radius))
            for t in range(10)
        ]
        cfg = SolverConfig(step_size=7.0 / 32.0, max_iters=30, stop_tol=None)
        p = RangeProjector(model, LatentProjectionConfig(steps=30, restarts=2, seed=0))
        m_values = (250, 1000, 4000)
        medians = []
        for j, m in enumerate(m_values):
            errors = []
            for t, v in enumerate(truths):
                inst = gen_spiked(v, m, seed=100 * j + t)
                res = run_with_restarts("prfm", inst.a_hat, inst.b_hat, cfg, 3, 100 * j + t, p=p)
                errors.append(signed_distance(res.estimate, inst.truth.v_lead))
            medians.append(float(np.median(errors)))
        slope, _, _ = fit_loglog_slope(zip(m_values, medians))
        assert -0.65 <= slope <= -0.35, (slope, medians)


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


_CFG = SolverConfig(step_size=0.1, max_iters=5)

#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(
        lambda: prfm(np.eye(3), np.eye(3), SphereProjector(),
                     SolverConfig(step_size=0.1, max_iters=5, init=np.full(4, 0.5))),
        ValueError, "init has length 4, expected 3", id="init-length"),
    pytest.param(lambda: prfm(np.eye(3), np.eye(4), SphereProjector(), _CFG), ValueError,
                 "a_hat and b_hat dimensions differ", id="pair-dimensions"),
    pytest.param(lambda: run_with_restarts("prfm", np.eye(3), np.eye(3), _CFG, 0, 0,
                                           p=SphereProjector()),
                 ValueError, "restarts must be >= 1", id="restarts-zero"),
    pytest.param(lambda: run_with_restarts("prfm", np.eye(3), None, _CFG, 1, 0,
                                           p=SphereProjector()),
                 ValueError, "prfm needs b_hat", id="prfm-without-b"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
