"""Tests for problem-instance generators and the perturbation verifier."""

from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gepflow.errors import TruthMissing
from gepflow.generative import random_subspace
from gepflow.linalg import (
    MatrixPair,
    generalized_eig,
    spectral_norm,
)
from gepflow.problems import (
    _BLOCK_ENTRIES,
    PerturbationReport,
    ProblemInstance,
    Truth,
    _block_gram,
    gen_diag_b,
    gen_phase_retrieval,
    gen_spiked,
    instance_from_json,
    instance_to_json,
    verify_perturbation,
)
from gepflow.rng import NormalStream

from oracles import reference_instance_draws

GENERATORS = {"spiked": gen_spiked, "diag_b": gen_diag_b, "phase_retrieval": gen_phase_retrieval}


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _nonneg_unit(n: int, seed: int):
    return _unit(np.abs(NormalStream(seed, stream=0).unit_vector(n)))


class TestSpiked:
    def test_truth_record(self):
        v = _nonneg_unit(16, 1)
        inst = gen_spiked(v, 100, seed=7)
        t = inst.truth
        assert t.lambda1 == 5.0 and t.lambda2 == 1.0
        assert_allclose(t.pair.a, 4.0 * np.outer(v, v) + np.eye(16), atol=1e-15)
        assert_allclose(t.pair.b, np.eye(16), atol=0)
        assert_allclose(t.v_lead, v, atol=0)
        assert inst.kind == "spiked" and inst.m == 100 and inst.seed == 7

    def test_truth_matches_dense_solver(self):
        v = _unit(NormalStream(2, stream=0).normals(12))
        inst = gen_spiked(v, 10, seed=3)
        spectrum = generalized_eig(inst.truth.pair)
        assert spectrum.eigenvalues[0] == pytest.approx(5.0, abs=1e-9)
        assert spectrum.eigenvalues[1] == pytest.approx(1.0, abs=1e-9)
        assert abs(float(spectrum.leading_unit @ inst.truth.v_lead)) >= 1 - 1e-9

    @pytest.mark.parametrize("gen", [gen_spiked, gen_phase_retrieval])
    def test_v_lead_is_sign_fixed_copy(self, gen):
        # The largest-|entry| coordinate is negative, so v_lead is -v; the
        # caller's array must come back untouched.
        v = _unit([0.2, -0.9, 0.1, 0.3])
        before = v.copy()
        t = gen(v, 10, seed=3).truth
        assert t.v_lead.tobytes() == (-before).tobytes()
        assert v.tobytes() == before.tobytes()
        assert t.v_star.tobytes() == before.tobytes()

    def test_documented_draw_order(self):
        v = _nonneg_unit(5, 4)
        inst = gen_spiked(v, 8, seed=11)
        stream = NormalStream(11, stream=0)
        gamma = stream.normals(8)
        z = stream.matrix(8, 5)
        x = 2.0 * np.outer(gamma, v) + z
        w = stream.matrix(8, 5)
        assert_allclose(inst.a_hat, (x.T @ x + (x.T @ x).T) / 16.0, atol=0)
        assert_allclose(inst.b_hat, (w.T @ w + (w.T @ w).T) / 16.0, atol=0)

    def test_large_sample_concentration(self):
        # law-of-large-numbers check of both sample matrices, three seeds
        v = _nonneg_unit(8, 5)
        truth_a = 4.0 * np.outer(v, v) + np.eye(8)
        for seed in (1, 2, 3):
            inst = gen_spiked(v, 1_000_000, seed=seed)
            assert spectral_norm(inst.a_hat - truth_a) <= 0.05
            assert spectral_norm(inst.b_hat - np.eye(8)) <= 0.02

    def test_deterministic(self):
        v = _nonneg_unit(6, 6)
        one = gen_spiked(v, 40, seed=9)
        two = gen_spiked(v, 40, seed=9)
        assert_allclose(one.a_hat, two.a_hat, rtol=0, atol=0)
        assert_allclose(one.b_hat, two.b_hat, rtol=0, atol=0)
        other = gen_spiked(v, 40, seed=10)
        assert not np.array_equal(one.a_hat, other.a_hat)

    def test_error_decays_like_root_m(self):
        v = _nonneg_unit(16, 7)
        truth_a = 4.0 * np.outer(v, v) + np.eye(16)
        errs = []
        for m in (500, 2000, 8000):
            per_seed = [
                spectral_norm(gen_spiked(v, m, seed=s).a_hat - truth_a)
                for s in (1, 2, 3)
            ]
            errs.append(float(np.median(per_seed)))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert 0.3 <= lo / hi <= 0.7  # 4x samples -> about half the error


class TestPhaseRetrieval:
    def test_population_moment_identity(self):
        # E[(g'v)^2 gg'] = 2vv' + I must hold empirically before the truth
        # record hard-codes it.
        v = _unit(NormalStream(8, stream=0).normals(6))
        inst = gen_phase_retrieval(v, 1_000_000, seed=2)
        pop = 2.0 * np.outer(v, v) + np.eye(6)
        assert spectral_norm(inst.a_hat - pop) <= 0.05
        assert inst.truth.lambda1 == 3.0 and inst.truth.lambda2 == 1.0

    def test_single_sample_formula(self):
        v = np.zeros(4)
        v[0] = 1.0
        inst = gen_phase_retrieval(v, 1, seed=13)
        stream = NormalStream(13, stream=0)
        stream.matrix(1, 4)  # the B-side draw comes first
        g = stream.matrix(1, 4)[0]
        y = float(g @ v) ** 2
        assert_allclose(inst.a_hat, y * np.outer(g, g), atol=1e-12)
        assert y >= 0.0

    def test_b_side_matches_spiked_protocol(self):
        v = _nonneg_unit(5, 9)
        inst = gen_phase_retrieval(v, 20, seed=3)
        stream = NormalStream(3, stream=0)
        w = stream.matrix(20, 5)
        assert_allclose(inst.b_hat, (w.T @ w + (w.T @ w).T) / 40.0, atol=0)

    def test_deterministic(self):
        v = _nonneg_unit(6, 10)
        one = gen_phase_retrieval(v, 30, seed=4)
        two = gen_phase_retrieval(v, 30, seed=4)
        assert_allclose(one.a_hat, two.a_hat, rtol=0, atol=0)


class TestDiagB:
    def test_truth_condition_number(self):
        v = _nonneg_unit(10, 11)
        inst = gen_diag_b(v, 50, seed=5)
        assert_allclose(inst.truth.pair.b, np.diag([2.0] + [1.0] * 9), atol=0)
        b_min, b_max = inst.truth.pair.b_extremes
        assert b_max / b_min == pytest.approx(2.0, abs=1e-12)

    def test_b_concentrates_on_diag(self):
        v = _nonneg_unit(8, 12)
        inst = gen_diag_b(v, 1_000_000, seed=6)
        assert spectral_norm(inst.b_hat - np.diag([2.0] + [1.0] * 7)) <= 0.05

    def test_leading_vector_computed_not_assumed(self):
        v = _nonneg_unit(12, 13)
        inst = gen_diag_b(v, 50, seed=7)
        t = inst.truth
        spectrum = generalized_eig(t.pair)
        assert_allclose(t.v_lead, spectrum.leading_unit, atol=0)
        assert t.lambda1 == pytest.approx(spectrum.eigenvalues[0], abs=0)
        assert t.lambda1 > t.lambda2
        align = abs(float(t.v_lead @ v))
        assert 0.9 <= align < 1.0 - 1e-6  # close to, but not equal to, v*

    def test_first_coordinate_scaling(self):
        v = _nonneg_unit(6, 14)
        inst = gen_diag_b(v, 15, seed=8)
        stream = NormalStream(8, stream=0)
        stream.normals(15)
        stream.matrix(15, 6)
        w = stream.matrix(15, 6)
        w[:, 0] *= math.sqrt(2.0)
        assert_allclose(inst.b_hat, (w.T @ w + (w.T @ w).T) / 30.0, atol=0)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            gen_diag_b(np.array([1.0]), 10, seed=1)


def _rows(n):
    return max(2, (_BLOCK_ENTRIES // n) & ~1)


@st.composite
def _sizes(draw):
    """(n, m) with m often one row short of, on, or one past a Gram block edge."""
    n = draw(st.integers(2, 160))
    rows = _rows(n)
    m = draw(
        st.one_of(
            st.sampled_from((rows - 1, rows, rows + 1, 2 * rows + 1)),
            st.integers(1, 300),
        )
    )
    return n, m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GENERATORS)), _sizes(), st.integers(0, 2**40))
def test_instances_match_block_gram_oracle_bytes(kind, size, seed):
    n, m = size
    v = _nonneg_unit(n, seed + 1)
    inst = GENERATORS[kind](v, m, seed=seed)
    a_hat, b_hat = reference_instance_draws(kind, v, m, seed)
    assert inst.a_hat.tobytes() == a_hat.tobytes()
    assert inst.b_hat.tobytes() == b_hat.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GENERATORS)), _sizes(), st.integers(0, 2**40))
def test_instances_match_full_matrix_gram(kind, size, seed):
    # One block is the full-matrix Gram X'X / m itself; more blocks only
    # move the summation order.
    n, m = size
    v = _nonneg_unit(n, seed + 1)
    inst = GENERATORS[kind](v, m, seed=seed)
    full = reference_instance_draws(kind, v, m, seed, rows=m)
    for got, want in zip((inst.a_hat, inst.b_hat), full):
        if m <= _rows(n):
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n, blocks", [(113, 3), (5, 3), (7, 4)])  # 2^15 // n is odd
def test_row_blocks_concatenate_to_one_matrix_draw(n, blocks):
    rows = _rows(n)
    m = (blocks - 1) * rows + 3  # an odd last block: m * n is odd
    stream = NormalStream(4, stream=0)
    stream.normals(m)  # gamma
    seen = []
    _block_gram(stream, m, n, lambda block, lo: seen.append((lo, block.copy())))
    whole = NormalStream(4, stream=0)
    whole.normals(m)
    assert [lo for lo, _ in seen] == list(range(0, m, rows))
    assert np.concatenate([b for _, b in seen]).tobytes() == whole.matrix(m, n).tobytes()
    assert stream.normals(3).tobytes() == whole.normals(3).tobytes()  # same next draw


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generator_memory_does_not_grow_with_m(kind):
    # One row block of 256 x 128 plus draw chunks and n x n arrays: about
    # 0.3 to 0.42 of one 4000 x 128 matrix. Only spiked's gamma (m
    # scalars) grows with m.
    n = 128
    v = _nonneg_unit(n, 3)
    GENERATORS[kind](v, 10, seed=0)  # warm the imports and caches
    peak = {m: _traced_peak(lambda: GENERATORS[kind](v, m, seed=0)) for m in (4000, 16000)}
    assert peak[4000] < 0.5 * 4000 * n * 8
    assert peak[16000] <= 1.15 * peak[4000]


class TestInstanceInvariants:
    def test_generated_matrices_psd_and_symmetric(self):
        v = _nonneg_unit(12, 15)
        for inst in (
            gen_spiked(v, 30, seed=1),
            gen_phase_retrieval(v, 30, seed=1),
            gen_diag_b(v, 30, seed=1),
        ):
            for mat in (inst.a_hat, inst.b_hat):
                assert_allclose(mat, mat.T, atol=0)
                assert float(np.linalg.eigvalsh(mat).min()) >= -1e-10

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                a_hat=np.eye(3), b_hat=np.eye(4), truth=None, m=5, kind="x", seed=0
            )
        with pytest.raises(ValueError):
            ProblemInstance(
                a_hat=np.eye(3), b_hat=np.eye(3), truth=None, m=0, kind="x", seed=0
            )
        with pytest.raises(ValueError):
            Truth(
                pair=MatrixPair(a=np.eye(2), b=np.eye(2)),
                v_star=np.array([1.0, 1.0]),
                lambda1=1.0,
                lambda2=0.5,
                v_lead=np.array([1.0, 0.0]),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_truth_refuses_non_finite_v_star(self, bad):
        # A NaN norm used to pass the unit check, since abs(nan - 1) > tol is False.
        with pytest.raises(ValueError, match="v_star must be a finite unit vector"):
            Truth(
                pair=MatrixPair(a=np.eye(2), b=np.eye(2)),
                v_star=np.array([bad, 0.0]),
                lambda1=1.0,
                lambda2=1.0,
                v_lead=np.array([1.0, 0.0]),
            )
        with pytest.raises(ValueError, match="v_star must be a finite unit vector"):
            gen_spiked(np.array([bad, 0.0]), 10, seed=1)


class TestVerifyPerturbation:
    def test_zero_perturbation(self):
        v = _nonneg_unit(8, 27)
        base = gen_spiked(v, 25, seed=1)
        exact = ProblemInstance(
            a_hat=base.truth.pair.a,
            b_hat=base.truth.pair.b,
            truth=base.truth,
            m=25,
            kind="spiked",
            seed=1,
        )
        report = verify_perturbation(exact, 20, seed=2)
        assert report.max_e_bilinear == 0.0
        assert report.max_f_bilinear == 0.0
        assert report.e_spectral == pytest.approx(0.0, abs=1e-12)
        assert report.n_over_m == pytest.approx(8 / 25)

    def test_truth_required(self):
        inst = ProblemInstance(
            a_hat=np.eye(4), b_hat=np.eye(4), truth=None, m=10, kind="custom", seed=0
        )
        with pytest.raises(TruthMissing):
            verify_perturbation(inst, 10, seed=0)

    def test_deterministic_and_sane(self):
        v = _nonneg_unit(16, 28)
        inst = gen_spiked(v, 200, seed=3)
        r1 = verify_perturbation(inst, 30, seed=4)
        r2 = verify_perturbation(inst, 30, seed=4)
        assert r1 == r2
        assert 0.0 < r1.max_e_bilinear <= r1.e_spectral + 1e-12
        assert 0.0 < r1.max_f_bilinear <= r1.f_spectral + 1e-12
        assert r1.c_hat_e == pytest.approx(
            r1.max_e_bilinear / math.sqrt(math.log(900.0) / 200), abs=1e-12
        )

    def test_generator_probes(self):
        v = _nonneg_unit(16, 29)
        inst = gen_spiked(v, 200, seed=5)
        gen = random_subspace(16, 4, seed=6)
        r1 = verify_perturbation(inst, 15, seed=7, generator=gen)
        r2 = verify_perturbation(inst, 15, seed=7, generator=gen)
        assert r1 == r2
        assert r1.max_e_bilinear > 0.0

    def test_generator_of_wrong_output_dim_rejected(self):
        inst = gen_spiked(_nonneg_unit(16, 29), 200, seed=5)
        with pytest.raises(ValueError, match="output_dim 12 does not match instance dim 16"):
            verify_perturbation(inst, 15, seed=7, generator=random_subspace(12, 4, seed=6))

    def test_bilinear_max_shrinks_with_m(self):
        v = _nonneg_unit(32, 30)
        med = []
        for m in (500, 8000):
            vals = [
                verify_perturbation(gen_spiked(v, m, seed=s), 20, seed=100 + s).max_e_bilinear
                for s in (1, 2, 3)
            ]
            med.append(float(np.median(vals)))
        assert 0.15 <= med[1] / med[0] <= 0.45  # 16x samples -> about 1/4


class TestInstanceJson:
    def test_round_trip_with_truth(self):
        v = _nonneg_unit(6, 31)
        inst = gen_spiked(v, 12, seed=8)
        blob = json.loads(json.dumps(instance_to_json(inst)))
        back = instance_from_json(blob)
        assert back.kind == "spiked" and back.m == 12 and back.seed == 8
        assert_allclose(back.a_hat, inst.a_hat, rtol=0, atol=0)
        assert_allclose(back.b_hat, inst.b_hat, rtol=0, atol=0)
        assert_allclose(back.truth.v_star, inst.truth.v_star, rtol=0, atol=0)
        assert_allclose(back.truth.v_lead, inst.truth.v_lead, rtol=0, atol=0)
        assert back.truth.lambda1 == inst.truth.lambda1

    def test_round_trip_without_truth(self):
        inst = ProblemInstance(
            a_hat=np.eye(3), b_hat=2.0 * np.eye(3), truth=None, m=4, kind="custom", seed=2
        )
        back = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
        assert back.truth is None
        assert_allclose(back.b_hat, inst.b_hat, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("truth",), 5),
            (("truth",), [1.0]),
            (("m",), None),
            (("m",), [1]),
            (("seed",), None),
            (("seed",), "x"),
            (("a_hat", "dim"), None),
            (("truth", "b", "dim"), {}),
            (("truth", "lambda1"), None),
            # int(), float() and str() used to read each of these without an error
            (("m",), 12.9),
            (("m",), True),
            (("seed",), "7"),
            (("seed",), 7.0),
            (("kind",), None),
            (("kind",), 3),
            (("truth", "lambda1"), math.nan),
            (("truth", "lambda1"), "5"),
            (("truth", "lambda2"), -math.inf),
            (("truth", "lambda2"), False),
            (("a_hat", "dim"), 6.0),
            # np.array(..., dtype=float64) used to read each of these as e1 or I
            (("a_hat", "rows"), [[i == j for j in range(6)] for i in range(6)]),
            (("truth", "b", "rows"), [[str(int(i == j)) for j in range(6)] for i in range(6)]),
            (("truth", "v_star"), ["1", 0, 0, 0, 0, 0]),
            (("truth", "v_lead"), [True, 0, 0, 0, 0, 0]),
        ],
        ids=["truth-int", "truth-list", "m-null", "m-list", "seed-null", "seed-str",
             "a_hat-dim-null", "truth-b-dim-dict", "truth-lambda1-null", "m-float", "m-true",
             "seed-digits", "seed-float", "kind-null", "kind-int", "lambda1-nan",
             "lambda1-digits", "lambda2-inf", "lambda2-false", "a_hat-dim-float",
             "a_hat-rows-booleans", "truth-b-rows-digits", "v_star-digits", "v_lead-true"],
    )
    def test_malformed_field_names_its_key(self, path, value):
        inst = gen_spiked(_nonneg_unit(6, 31), 12, seed=8)
        blob = json.loads(json.dumps(instance_to_json(inst)))
        target = blob
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=f"'{path[-1]}' must be"):
            instance_from_json(blob)

    def test_integral_lambda_is_read_as_a_float(self):
        blob = json.loads(json.dumps(instance_to_json(gen_spiked(_nonneg_unit(6, 31), 12, seed=8))))
        blob["truth"]["lambda2"] = 1
        back = instance_from_json(blob)
        assert back.truth.lambda2 == 1.0 and type(back.truth.lambda2) is float

    @pytest.mark.parametrize("key", ["v_star", "v_lead"])
    @pytest.mark.parametrize(
        "value",
        [None, [1.0, 0.0, 0.0], [math.nan] * 6, [1.0, 0.0, 0.0, 0.0, 0.0, math.inf], {}],
        ids=["null", "short", "nan", "inf", "object"],
    )
    def test_truth_vector_must_be_finite_of_pair_dim(self, key, value):
        # A null vector used to load as a 0-d NaN, and a short unit one as is.
        blob = json.loads(json.dumps(instance_to_json(gen_spiked(_nonneg_unit(6, 31), 12, seed=8))))
        blob["truth"][key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            instance_from_json(blob)


_V = np.full(4, 0.5)

#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(lambda: gen_spiked(_V, 0, seed=0), ValueError, "m must be >= 1",
                 id="m-zero"),
    pytest.param(lambda: verify_perturbation(gen_spiked(_V, 20, seed=0), 0, 0), ValueError,
                 "set_size must be >= 1", id="set-size-zero"),
    pytest.param(lambda: instance_from_json([]), ValueError,
                 "instance bundle must be an object", id="bundle-not-object"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
