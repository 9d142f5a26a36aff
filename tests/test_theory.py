"""Condition arithmetic and inequality-checker tests.

Fixed-point values for the condition report are frozen from closed forms
worked by hand (e.g. the admissible-pair contraction equals
(14 + sqrt(611)) / 47); the randomized suites then hammer the three
inequality checkers with thousands of draws, where a single failure means
an implementation bug rather than a statistical fluke.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gepflow.errors import (
    DegenerateGap,
    NonPositiveAlignment,
    NotPositiveDefinite,
    RhoOutOfRange,
)
from gepflow.linalg import MatrixPair
from gepflow.priors import SphereProjector
from gepflow.problems import gen_spiked
from gepflow.rng import NormalStream
from gepflow.solvers import SolverConfig, default_init, prfm
from gepflow.theory import (
    _draw_tuples,
    check_lemma_coefficient,
    check_lemma_inner,
    check_lemma_sandwich,
    compute_conditions,
    conditions_from_gammas,
    run_lemma_suites,
)
from oracles import (
    random_definite_pair,
    reference_draws,
    reference_lemma_checks,
    reference_lemma_suites,
)

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def _bits(values):
    """Floats as hex strings (so -0.0, NaN and last-bit changes show)."""
    return tuple(float(v).hex() if isinstance(v, float) else v for v in values)


def _spiked_population(n: int, seed: int = 3):
    """Planted-spike pair; the returned vector follows the eigensolver's
    sign convention so alignment tests are not at the mercy of it."""
    v = NormalStream(seed, stream=0).unit_vector(n)
    a = 4.0 * np.outer(v, v) + np.eye(n)
    pair = MatrixPair(a=(a + a.T) / 2.0, b=np.eye(n))
    if float(v @ pair.spectrum.leading_unit) < 0:
        v = -v
    return pair, v


class TestComputeConditions:
    def test_spiked_protocol_step_size(self):
        pair, v = _spiked_population(16)
        cond = compute_conditions(pair, 7.0 / 32.0, v)
        assert_allclose(cond.gamma1, 0.875, atol=1e-9)
        assert_allclose(cond.gamma2, 0.875, atol=1e-9)
        assert_allclose(cond.kappa_b, 1.0, atol=1e-12)
        assert cond.step_sum_ok  # 1.75 < 2
        assert cond.step_floor_ok  # 3.5 > 3
        assert cond.nu0_positive

    def test_perfect_alignment_contracts_fast(self):
        # nu0 = 1 kills both alignment penalty terms: b0 = 2 - 2*gamma,
        # c0 = 0, contraction = b0 = 0.25 at the protocol step size.
        pair, v = _spiked_population(12)
        cond = compute_conditions(pair, 7.0 / 32.0, v)
        assert_allclose(cond.nu0, 1.0, atol=1e-12)
        assert_allclose(cond.c0, 0.0, atol=1e-9)
        assert_allclose(cond.b0, 0.25, atol=1e-8)
        assert_allclose(cond.contraction, 0.25, atol=1e-8)
        assert cond.contraction_defined
        assert cond.contraction_ok

    def test_zero_step_size_is_reported_not_rejected(self):
        pair, v = _spiked_population(8)
        cond = compute_conditions(pair, 0.0, v)
        assert cond.gamma1 == 0.0 and cond.gamma2 == 0.0
        assert_allclose(cond.b0, 2.0, atol=1e-12)
        assert_allclose(cond.contraction, 2.0, atol=1e-12)
        assert cond.step_sum_ok
        assert not cond.contraction_ok
        assert not cond.step_floor_ok

    def test_admissible_pair_by_hand(self):
        cond = conditions_from_gammas(2.0 / 3.0, 1.1, nu0=1.0, kappa_b=1.0)
        assert cond.step_sum_ok  # 1.766... < 2
        assert cond.step_floor_ok  # 3.1 > 3
        assert_allclose(cond.c0, 13.0 / 60.0, rtol=1e-15)
        assert_allclose(cond.b0, 7.0 / 30.0, rtol=1e-14)
        assert_allclose(cond.contraction, 0.8237960465663096, atol=1e-12)
        assert cond.contraction_ok

    def test_contraction_undefined_when_c0_exceeds_one(self):
        cond = conditions_from_gammas(0.0, 2.5, nu0=0.5, kappa_b=3.0)
        assert cond.c0 >= 1.0
        assert not cond.contraction_defined
        assert math.isnan(cond.contraction)
        assert not cond.contraction_ok

    def test_negative_alignment_is_flagged(self):
        pair, v = _spiked_population(10)
        cond = compute_conditions(pair, 7.0 / 32.0, -v)
        assert_allclose(cond.nu0, -1.0, atol=1e-12)
        assert not cond.nu0_positive

    def test_degenerate_gap_rejected(self):
        pair = MatrixPair(a=np.eye(6), b=np.eye(6))
        with pytest.raises(DegenerateGap):
            compute_conditions(pair, 0.1, np.ones(6) / math.sqrt(6))

    def test_validation(self):
        pair, v = _spiked_population(6)
        for eta in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="eta must be finite"):
                compute_conditions(pair, eta, v)
        with pytest.raises(NotPositiveDefinite):
            MatrixPair(a=pair.a, b=np.diag([1.0, -1.0, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            conditions_from_gammas(-0.1, 0.5, nu0=0.5, kappa_b=1.0)
        with pytest.raises(ValueError):
            conditions_from_gammas(0.6, 0.5, nu0=0.5, kappa_b=1.0)
        with pytest.raises(ValueError):
            conditions_from_gammas(0.1, 0.5, nu0=0.5, kappa_b=0.9)
        for nu0 in (math.nan, 1.5, -1.0000001):
            with pytest.raises(ValueError, match="nu0"):
                conditions_from_gammas(0.1, 0.5, nu0=nu0, kappa_b=1.0)

    def test_start_at_the_truth_clamps_nu0(self):
        # At n = 16 the all-ones start's dot with itself rounds to
        # 1.0000000000000002, which used to fail sqrt(2 (1 - nu0)).
        v = default_init(16)
        inst = gen_spiked(v, 100, seed=0)
        assert float(v @ inst.truth.pair.spectrum.leading_unit) > 1.0
        cond = compute_conditions(inst.truth.pair, 7.0 / 32.0, v)
        assert cond.nu0 == 1.0

    def test_gamma_lipschitz_in_spectrum(self):
        # The gammas depend on eigenvalue differences only, so shifting the
        # whole spectrum by eps moves them far less than eta*eps*lambda_max;
        # shifting a single eigenvalue saturates that bound exactly, which
        # needs a cushion wide enough for the float subtraction at gamma
        # scale. Each shifted spectrum is seeded into a copy of the pair.
        def with_spectrum(pair, spectrum):
            copy = dataclasses.replace(pair)
            vars(copy)["spectrum"] = spectrum
            return copy

        rng = np.random.default_rng(11)
        eta, eps = 0.2, 1e-6
        for _ in range(10):
            a, b = random_definite_pair(rng, 6, min_gap=0.05)
            pair = MatrixPair(a=a, b=b)
            spec = pair.spectrum
            b_max = float(np.max(np.linalg.eigvalsh(b)))
            u0 = NormalStream(1, stream=0).unit_vector(6)
            base = compute_conditions(pair, eta, u0)

            uniform = dataclasses.replace(spec, eigenvalues=spec.eigenvalues + eps)
            new = compute_conditions(with_spectrum(pair, uniform), eta, u0)
            bound = eta * eps * b_max * (1.0 + 1e-12)
            assert abs(new.gamma1 - base.gamma1) <= bound
            assert abs(new.gamma2 - base.gamma2) <= bound

            for idx in (0, 1, 5):
                lam = spec.eigenvalues.copy()
                lam[idx] += eps
                shifted = dataclasses.replace(
                    spec, eigenvalues=lam, gap=float(lam[0] - lam[1])
                )
                new = compute_conditions(with_spectrum(pair, shifted), eta, u0)
                bound = eta * eps * b_max * (1.0 + 1e-8)
                assert abs(new.gamma1 - base.gamma1) <= bound
                assert abs(new.gamma2 - base.gamma2) <= bound


class TestSandwich:
    def test_leading_eigenvector_collapses_to_zero(self):
        pair = MatrixPair(a=np.diag([3.0, 1.0, 0.0]), b=np.eye(3))
        out = check_lemma_sandwich(pair, 3.0, np.array([1.0, 0.0, 0.0]))
        assert_allclose([out.lower, out.middle, out.upper], 0.0, atol=1e-12)
        assert out.holds

    def test_two_by_two_equality(self):
        # n = 2 with B = I makes both bounds coincide with the middle.
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        out = check_lemma_sandwich(pair, 1.5, np.array([1.0, 1.0]))
        assert_allclose(out.lower, 1.0, atol=1e-12)
        assert_allclose(out.middle, 1.0, atol=1e-12)
        assert_allclose(out.upper, 1.0, atol=1e-12)
        assert out.holds

    def test_zero_vector(self):
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        out = check_lemma_sandwich(pair, 1.0, np.zeros(2))
        assert out.lower == out.middle == out.upper == 0.0
        assert out.holds

    def test_rho_out_of_range(self):
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        with pytest.raises(RhoOutOfRange):
            check_lemma_sandwich(pair, 0.0, np.ones(2))  # rho == lambda_2
        with pytest.raises(RhoOutOfRange):
            check_lemma_sandwich(pair, 2.1, np.ones(2))

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(5)
        stream = NormalStream(5, stream=1)
        for _ in range(60):
            a, b = random_definite_pair(rng, 5, min_gap=0.05)
            pair = MatrixPair(a=a, b=b)
            spec = pair.spectrum
            lam = spec.eigenvalues
            for _ in range(5):
                frac = float(stream.uniforms(1)[0])
                rho = float(lam[1]) + max(frac, 1e-9) * float(lam[0] - lam[1])
                x = stream.normals(5) * 2.0
                out = check_lemma_sandwich(pair, rho, x)
                assert out.holds, (out, rho)


class TestInner:
    def test_orthogonal_vectors_hit_equality(self):
        # B = I, n = 2: tau1 == tau2 and x'y = 0 leave only the alignment
        # term, which the direct evaluation matches exactly.
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        out = check_lemma_inner(
            pair, 1.5, 0.1, np.array([1.0, 1.0]), np.array([1.0, -1.0])
        )
        assert_allclose(out.lhs, -0.2, atol=1e-12)
        assert_allclose(out.rhs, -0.2, atol=1e-12)
        assert out.holds

    def test_zero_y(self):
        pair = MatrixPair(a=np.diag([2.0, 0.0, -1.0]), b=np.eye(3))
        out = check_lemma_inner(
            pair, 1.0, 0.3, np.array([1.0, 2.0, 3.0]), np.zeros(3)
        )
        assert out.lhs == 0.0
        assert out.rhs <= 0.0
        assert out.holds

    def test_zero_eta_collapses(self):
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        out = check_lemma_inner(pair, 1.0, 0.0, np.ones(2), np.ones(2))
        assert out.lhs == 0.0 and out.rhs == 0.0 and out.holds

    def test_validation(self):
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        with pytest.raises(ValueError):
            check_lemma_inner(pair, 1.0, -0.1, np.ones(2), np.ones(2))
        with pytest.raises(RhoOutOfRange):
            check_lemma_inner(pair, 3.0, 0.1, np.ones(2), np.ones(2))

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(7)
        stream = NormalStream(7, stream=2)
        for _ in range(60):
            a, b = random_definite_pair(rng, 4, min_gap=0.05)
            pair = MatrixPair(a=a, b=b)
            spec = pair.spectrum
            lam = spec.eigenvalues
            for _ in range(5):
                frac = float(stream.uniforms(1)[0])
                rho = float(lam[1]) + max(frac, 1e-9) * float(lam[0] - lam[1])
                x = stream.normals(4)
                y = stream.normals(4)
                eta = 0.4 * float(stream.uniforms(1)[0])
                out = check_lemma_inner(pair, rho, eta, x, y)
                assert out.holds, (out, rho, eta)


class TestCoefficient:
    def test_optimum_is_exact(self):
        a, b = random_definite_pair(np.random.default_rng(9), 5, min_gap=0.05)
        pair = MatrixPair(a=a, b=b)
        spec = pair.spectrum
        out = check_lemma_coefficient(pair, spec.leading_unit)
        assert_allclose(out.lhs, 0.0, atol=1e-12)
        assert_allclose(out.rhs, 0.0, atol=1e-12)
        assert out.holds

    def test_identity_b_equality(self):
        # B = I turns both sides into (1 - nu)^2.
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        theta = math.pi / 3.0
        x = np.array([math.cos(theta), math.sin(theta)])
        out = check_lemma_coefficient(pair, x)
        assert_allclose(out.lhs, 0.25, atol=1e-12)
        assert_allclose(out.rhs, 0.25, atol=1e-12)
        assert out.holds

    def test_rejects_bad_inputs(self):
        pair = MatrixPair(a=np.diag([2.0, 0.0]), b=np.eye(2))
        with pytest.raises(ValueError):
            check_lemma_coefficient(pair, np.array([1.0, 1.0]))  # not unit
        with pytest.raises(NonPositiveAlignment):
            check_lemma_coefficient(pair, -pair.spectrum.leading_unit)

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(13)
        stream = NormalStream(13, stream=3)
        for _ in range(60):
            a, b = random_definite_pair(rng, 6, min_gap=0.05)
            pair = MatrixPair(a=a, b=b)
            spec = pair.spectrum
            for _ in range(5):
                x = stream.unit_vector(6)
                if float(x @ spec.leading_unit) < 0:
                    x = -x
                if float(x @ spec.leading_unit) <= 0:
                    continue
                out = check_lemma_coefficient(pair, x)
                assert out.holds, out


class TestSuites:
    def test_ten_thousand_draws_zero_failures(self):
        results = run_lemma_suites(draws=10_000, seed=0)
        by_name = {r.name: r for r in results}
        assert set(by_name) == {"sandwich", "inner", "coefficient"}
        for r in results:
            assert r.failures == 0, r
            assert r.worst_slack > -1e-9, r
        assert by_name["sandwich"].draws == 10_000
        assert by_name["inner"].draws == 10_000
        assert by_name["coefficient"].draws >= 9_990

    def test_deterministic(self):
        first = run_lemma_suites(draws=200, seed=9)
        second = run_lemma_suites(draws=200, seed=9)
        assert first == second

    def test_b_spectrum_solved_once_per_pair(self, monkeypatch):
        # 200 draws at 20 per pair build 10 pairs; the 600 checker calls
        # share each pair's cached b_extremes
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        results = run_lemma_suites(draws=200, seed=9)
        assert results[0].draws == 200
        assert 1 <= len(calls) <= 10


    @pytest.mark.parametrize("seed", [0, 4])
    def test_worst_slack_is_a_float(self, seed):
        for r in run_lemma_suites(draws=200, seed=seed):
            assert type(r.worst_slack) is float, r

    @PROPERTY_SETTINGS
    @given(
        draws=st.integers(1, 150),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_block_draws_match_sequential_draws(self, draws, seed):
        # 150 draws at 20 per pair reach dimension 8 (pair 6) from draw 121 on
        got = run_lemma_suites(draws, seed=seed)
        expected = reference_lemma_suites(draws, 8, seed, 20)
        assert [(r.name, r.draws, r.failures, r.worst_slack.hex()) for r in got] == [
            (name, d, f, float(w).hex()) for name, d, f, w in expected
        ]


@pytest.mark.parametrize("n", range(2, 9))
def test_draw_block_equals_sequential_calls(n):
    seed, stream_id, count = 17, 3, 20
    stream = NormalStream(seed, stream=stream_id)
    fracs, xs, ys, etas = _draw_tuples(stream, n, count)
    calls = [("uniforms", 1), ("normals", n), ("normals", n), ("uniforms", 1)] * count
    expected = reference_draws(seed, stream_id, calls)
    for j in range(count):
        frac, x, y, eta = expected[4 * j : 4 * j + 4]
        assert fracs[j : j + 1].tobytes() == frac.tobytes()
        assert xs[j].tobytes() == x.tobytes()
        assert ys[j].tobytes() == y.tobytes()
        assert etas[j : j + 1].tobytes() == eta.tobytes()
    # The block consumed exactly the sequential calls' words.
    used = count * (2 + 4 * ((n + 1) // 2))
    assert stream.raw(1)[0] == NormalStream(seed, stream=stream_id).raw(used + 1)[-1]


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    frac=st.floats(1e-12, 1.0),
    eta=st.floats(0.0, 0.5),
    scale=st.floats(1e-3, 1e3),
)
def test_checkers_match_matmul_formulas(seed, n, frac, eta, scale):
    rng = np.random.default_rng(seed)
    a, b = random_definite_pair(rng, n, min_gap=1e-6)
    pair = MatrixPair(a=a, b=b)
    spec = pair.spectrum
    lam = spec.eigenvalues
    rho = float(lam[1]) + frac * float(lam[0] - lam[1])
    x = scale * rng.standard_normal(n)
    y = rng.standard_normal(n)
    xu = x / float(np.linalg.norm(x))
    if float(xu @ spec.leading_unit) < 0:
        xu = -xu
    sandwich, inner, coefficient = reference_lemma_checks(pair, spec, rho, eta, x, y, xu)
    got = check_lemma_sandwich(pair, rho, x)
    assert _bits(dataclasses.astuple(got)) == _bits(sandwich)
    got = check_lemma_inner(pair, rho, eta, x, y)
    assert _bits(dataclasses.astuple(got)) == _bits(inner)
    got = check_lemma_coefficient(pair, xu)
    assert _bits(dataclasses.astuple(got)) == _bits(coefficient)


#: Largest relative change (floored at 1) allowed in gamma1, gamma2, nu0 and
#: kappa_b under the maps below; over 1,000 random pairs (n = 2-11) the largest
#: seen was 1.6e-14.
INVARIANCE_RTOL = 1e-12


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 11),
    sigma=st.sampled_from((0.5, -2.0)),
    c=st.sampled_from((4.0, 0.25, 3.0)),
)
def test_conditions_are_invariant_to_shift_and_b_scale(seed, n, sigma, c):
    """A -> A + sigma B shifts every eigenvalue by sigma and keeps the
    eigenvectors and B; B -> cB divides the eigenvalues by c and multiplies
    B's extremes by c. Neither moves a gap-times-extreme product, the
    leading unit direction or B's condition number, so gamma1, gamma2, nu0
    and kappa_b stay put at a fixed eta."""
    rng = np.random.default_rng(seed)
    a, b = random_definite_pair(rng, n, min_gap=1e-3)
    u0 = NormalStream(seed, stream=0).unit_vector(n)
    fields = ("gamma1", "gamma2", "nu0", "kappa_b")
    base = compute_conditions(MatrixPair(a=a, b=b), 0.1, u0)
    for pair in (MatrixPair(a=a + sigma * b, b=b), MatrixPair(a=a, b=c * b)):
        moved = compute_conditions(pair, 0.1, u0)
        for name in fields:
            want, got = getattr(base, name), getattr(moved, name)
            assert abs(got - want) <= INVARIANCE_RTOL * max(abs(want), 1.0), name


class TestContractionConsistency:
    def test_noiseless_descent_beats_predicted_factor(self):
        # Population spiked pair, start at alignment 0.99: every per-step
        # distance ratio before the floating-point plateau should stay
        # below the predicted contraction factor (with a small cushion).
        n = 16
        pair, v = _spiked_population(n, seed=6)
        w = NormalStream(8, stream=0).unit_vector(n)
        w = w - (w @ v) * v
        w /= np.linalg.norm(w)
        nu0 = 0.99
        u0 = nu0 * v + math.sqrt(1.0 - nu0**2) * w
        cond = compute_conditions(pair, 7.0 / 32.0, u0)
        assert_allclose(cond.b0, 0.6299810601229374, atol=1e-8)
        assert cond.contraction_ok

        cfg = SolverConfig(step_size=7.0 / 32.0, max_iters=60, init=u0, stop_tol=None)
        _, trace = prfm(pair.a, pair.b, SphereProjector(), cfg, v_star=v)
        dists = [row.dist for row in trace.rows]
        plateau = max(min(dists), 1e-14)
        for prev, nxt in zip(dists, dists[1:]):
            if prev <= 10.0 * plateau:
                break
            assert nxt / prev <= cond.contraction + 0.05, (prev, nxt)

    def test_alignment_grows_monotonically_here(self):
        # Empirical observation on the noiseless spiked flow; recorded as a
        # regression check, not a general theorem.
        n = 16
        pair, v = _spiked_population(n, seed=6)
        w = NormalStream(8, stream=0).unit_vector(n)
        w = w - (w @ v) * v
        w /= np.linalg.norm(w)
        u0 = 0.9 * v + math.sqrt(1.0 - 0.81) * w
        cfg = SolverConfig(step_size=7.0 / 32.0, max_iters=50, init=u0, stop_tol=None)
        _, trace = prfm(pair.a, pair.b, SphereProjector(), cfg, v_star=v)
        cosines = [row.cos_sim for row in trace.rows]
        for prev, nxt in zip(cosines, cosines[1:]):
            assert nxt >= prev - 1e-12


_ONE = MatrixPair(a=[[2.0]], b=[[1.0]])

#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(lambda: compute_conditions(_ONE, 0.1, [1.0]),
                 DegenerateGap, "need at least two eigenvalues", id="single-eigenvalue"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
