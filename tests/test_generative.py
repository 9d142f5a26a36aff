"""Tests for the generative decoders and latent-space range projection."""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gepflow import generative
from gepflow.errors import AllRestartsDegenerate, DegenerateOutput, DegenerateProjection
from gepflow.generative import (
    _random_start,
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    SubspaceGenerator,
    backward,
    default_latent_radius,
    forward,
    model_from_json,
    model_to_json,
    project_to_range,
    random_mlp,
    random_subspace,
    subspace_containing,
    subspace_project,
)
from gepflow.priors import RangeProjector, project, projector_from_spec
from gepflow.rng import NormalStream

from oracles import (
    finite_difference_gradient,
    lipschitz_upper_bound,
    reference_project_to_range,
    reference_raw_decode,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestConstruction:
    def test_mlp_dimension_chain_rejected(self):
        good = Layer(weight=np.ones((3, 2)), bias=np.zeros(3), activation="relu")
        bad = Layer(weight=np.ones((4, 5)), bias=np.zeros(4), activation="relu")
        with pytest.raises(ValueError):
            MlpGenerator(layers=(good, bad), latent_radius=1.0)

    def test_latent_dim_must_be_smaller(self):
        square = Layer(weight=np.eye(3), bias=np.zeros(3), activation="identity")
        with pytest.raises(ValueError):
            MlpGenerator(layers=(square,), latent_radius=1.0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            Layer(weight=np.ones((3, 2)), bias=np.zeros(3), activation="tanh")

    def test_subspace_requires_orthonormal_basis(self):
        with pytest.raises(ValueError):
            SubspaceGenerator(basis=np.ones((4, 2)), latent_radius=1.0)

    @pytest.mark.parametrize("field", ["weight", "bias"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_layer_rejected(self, field, bad):
        params = {"weight": np.ones((3, 2)), "bias": np.zeros(3)}
        params[field].flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            Layer(**params, activation="relu")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.eye(4)[:, :2].copy()
        basis[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SubspaceGenerator(basis=basis, latent_radius=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radius_and_floor_rejected(self, bad):
        layer = Layer(weight=np.ones((3, 2)), bias=np.zeros(3), activation="relu")
        with pytest.raises(ValueError, match="finite"):
            MlpGenerator(layers=(layer,), latent_radius=bad)
        with pytest.raises(ValueError, match="finite"):
            SubspaceGenerator(basis=np.eye(4)[:, :2], latent_radius=bad)

    @pytest.mark.parametrize(
        "setting",
        [
            {"learning_rate": 0.0}, {"learning_rate": -0.1},
            {"learning_rate": math.nan}, {"learning_rate": math.inf},
            {"adam_beta1": 0.5}, {"adam_beta1": 1.0}, {"adam_beta1": -0.1},
            {"adam_beta1": math.nan}, {"adam_beta2": 1.0}, {"adam_beta2": math.nan},
            {"adam_eps": 0.0}, {"adam_eps": math.nan}, {"adam_eps": math.inf},
        ],
        ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
    )
    def test_bad_adam_settings_rejected(self, setting, tmp_path, monkeypatch):
        # A bad learning rate used to build, and projections then returned NaN
        # points; beta1, beta2 and eps are fixed, so a spec naming one is refused.
        (tmp_path / "gen.json").write_text(json.dumps(model_to_json(random_mlp(6, 2, seed=1))))
        spec = {"prior": "range", "model_path": "gen.json", "projection": setting}
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=next(iter(setting))):
            projector_from_spec(spec)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seeded_decoders_use_the_default_radius(self, k):
        v = NormalStream(5, stream=0).normals(9)
        for gen in (random_mlp(9, k, hidden=(6,), seed=1), random_subspace(9, k, seed=1),
                    subspace_containing(v, k, seed=1)):
            assert gen.latent_radius == 3.0 * math.sqrt(k) == default_latent_radius(k)

    def test_random_mlp_shapes(self):
        gen = random_mlp(16, 4, hidden=(8,), seed=3)
        assert gen.latent_dim == 4
        assert gen.output_dim == 16
        assert [layer.weight.shape for layer in gen.layers] == [(8, 4), (16, 8)]
        assert gen.layers[-1].activation == "identity"
        assert gen.latent_radius == pytest.approx(default_latent_radius(4))

    def test_random_constructors_deterministic(self):
        a = random_mlp(10, 3, hidden=(6,), seed=11)
        b = random_mlp(10, 3, hidden=(6,), seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert_allclose(la.weight, lb.weight, rtol=0, atol=0)
            assert_allclose(la.bias, lb.bias, rtol=0, atol=0)
        qa = random_subspace(12, 4, seed=5).basis
        qb = random_subspace(12, 4, seed=5).basis
        assert_allclose(qa, qb, rtol=0, atol=0)

    def test_subspace_containing_contains_vector(self):
        v = _unit([3.0, -1.0, 2.0, 0.5, 0.0, 1.0])
        gen = subspace_containing(v, 3, seed=9)
        q = gen.basis
        assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
        assert_allclose(q @ (q.T @ v), v, atol=1e-12)
        assert float(q[:, 0] @ v) > 0.999999


class TestForward:
    def test_subspace_forward_is_normalized_span_point(self):
        gen = random_subspace(8, 3, seed=1)
        z = np.array([0.5, -1.0, 2.0])
        out = forward(gen, z)
        assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)
        assert_allclose(out, gen.basis @ z / np.linalg.norm(gen.basis @ z), atol=1e-14)

        # Through the shared layer path, forward and backward equal the
        # closed forms Qz/||Qz|| and Q'(c - (o.c)o)/||Qz|| bit for bit inside
        # the ball; outside it both refuse the latent.
        stream = NormalStream(5, stream=0)
        gens = [
            gen,
            subspace_containing(stream.normals(8), 3, seed=2),
            SubspaceGenerator(basis=np.eye(8)[:, 2:5], latent_radius=2.0),
        ]
        for gen in gens:
            for scale in (0.1, 0.5, 0.99):
                z = stream.unit_vector(3) * (scale * gen.latent_radius)
                cot = stream.normals(8)
                raw = gen.basis.dot(z)
                norm = math.sqrt(float(raw.dot(raw)))
                o = raw / norm
                grad = gen.basis.T.dot((cot - float(o.dot(cot)) * o) / norm)
                assert forward(gen, z).tobytes() == o.tobytes()
                assert backward(gen, z, cot).tobytes() == grad.tobytes()
            for scale in (1.5, 4.0):
                _assert_refused(gen, stream.unit_vector(3) * (scale * gen.latent_radius))

    def test_identity_single_layer_matches_by_hand(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        gen = MlpGenerator(
            layers=(Layer(weight=w, bias=np.zeros(3), activation="identity"),),
            latent_radius=10.0,
        )
        out = forward(gen, [1.0, 1.0])
        assert_allclose(out, _unit([1.0, 2.0, 2.0]), atol=1e-14)

    def test_rounding_overshoot_decodes_on_the_boundary(self):
        gen = replace(random_subspace(6, 2, seed=2), latent_radius=1.0)
        z = _overshooting(gen, np.array([0.6, -0.8]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = forward(gen, z)
        rescaled = z * (1.0 / math.sqrt(float(z.dot(z))))
        assert out.tobytes() == forward(replace(gen), rescaled).tobytes()

    def test_latent_outside_the_ball_is_refused(self):
        for gen in (replace(random_subspace(6, 2, seed=2), latent_radius=1.0),
                    random_mlp(6, 2, hidden=(4,), seed=3)):
            for scale in (1.5, 4.0, 1e6):
                _assert_refused(gen, np.array([0.6, -0.8]) * (scale * gen.latent_radius))

    def test_interior_latent_does_not_warn(self):
        gen = replace(random_subspace(6, 2, seed=2), latent_radius=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward(gen, [0.3, 0.4])

    def test_degenerate_output_raises(self):
        dead = Layer(
            weight=np.array([[1.0], [1.0]]),
            bias=np.array([-10.0, -10.0]),
            activation="relu",
        )
        gen = MlpGenerator(layers=(dead,), latent_radius=5.0)
        with pytest.raises(DegenerateOutput):
            forward(gen, [0.1])

    def test_overflowing_output_raises(self):
        # Weights scaled by 1e200 overflow the raw output to inf/NaN; the
        # norm check must reject it rather than return a NaN direction.
        with np.errstate(all="ignore"), pytest.raises(DegenerateOutput):
            forward(_overflowing_mlp(), [0.3, -0.2])


class TestBackward:
    def test_matches_finite_differences_sigmoid_mlp(self):
        gen = random_mlp(7, 3, hidden=(5,), activation="sigmoid", seed=21)
        stream = NormalStream(77, stream=0)
        for _ in range(20):
            z = stream.ball_point(3, 0.8 * gen.latent_radius)
            cot = stream.normals(7)
            grad = backward(gen, z, cot)
            fd = finite_difference_gradient(lambda t: float(forward(gen, t) @ cot), z)
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)

    def test_matches_finite_differences_relu_mlp(self):
        gen = random_mlp(9, 4, hidden=(6,), activation="relu", seed=5)
        stream = NormalStream(78, stream=0)
        checked = 0
        while checked < 20:
            z = stream.ball_point(4, 0.8 * gen.latent_radius)
            pre = gen.layers[0].weight @ z + gen.layers[0].bias
            if np.min(np.abs(pre)) < 1e-3:  # keep away from the kink for FD
                continue
            cot = stream.normals(9)
            grad = backward(gen, z, cot)
            fd = finite_difference_gradient(lambda t: float(forward(gen, t) @ cot), z)
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)
            checked += 1

    def test_matches_finite_differences_subspace(self):
        gen = random_subspace(10, 4, seed=13)
        stream = NormalStream(79, stream=0)
        for _ in range(10):
            z = stream.ball_point(4, 0.8 * gen.latent_radius)
            cot = stream.normals(10)
            grad = backward(gen, z, cot)
            fd = finite_difference_gradient(lambda t: float(forward(gen, t) @ cot), z)
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)

    def test_normalization_gradient_by_hand(self):
        # Raw map z -> (z1, z2, 0) with n=3; output = raw/||raw||. At
        # z=(3,4)/5 scaled: gradient of <out, e1> wrt z known in closed form.
        w = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        gen = MlpGenerator(
            layers=(Layer(weight=w, bias=np.zeros(3), activation="identity"),),
            latent_radius=10.0,
        )
        z = np.array([3.0, 4.0])
        cot = np.array([1.0, 0.0, 0.0])
        # out = (3,4,0)/5; d out/d z = (I - out out^T)/5 restricted to first 2 coords
        expected = (np.eye(2) - np.outer([0.6, 0.8], [0.6, 0.8])) @ np.array([1.0, 0.0]) / 5.0
        assert_allclose(backward(gen, z, cot), expected, atol=1e-14)


class TestLipschitzBound:
    def test_subspace_bound_is_one(self):
        assert lipschitz_upper_bound(random_subspace(9, 3, seed=4)) == 1.0

    def test_single_layer_equals_spectral_norm(self):
        w = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        gen = MlpGenerator(
            layers=(Layer(weight=w, bias=np.zeros(3), activation="identity"),),
            latent_radius=5.0,
        )
        assert lipschitz_upper_bound(gen) == pytest.approx(3.0, abs=1e-12)

    def test_sigmoid_layer_contributes_quarter(self):
        w = np.array([[2.0], [0.0]])
        top = Layer(weight=np.ones((3, 2)), bias=np.zeros(3), activation="identity")
        gen = MlpGenerator(
            layers=(Layer(weight=w, bias=np.zeros(2), activation="sigmoid"), top),
            latent_radius=5.0,
        )
        expected = 2.0 * 0.25 * math.sqrt(6.0)  # ||W1||=2, 1/4, ||W2||=sqrt(6)
        assert lipschitz_upper_bound(gen) == pytest.approx(expected, abs=1e-12)

    def test_bound_dominates_raw_secants(self):
        gen = random_mlp(12, 4, hidden=(8,), activation="relu", seed=17)
        bound = lipschitz_upper_bound(gen)
        stream = NormalStream(90, stream=0)
        for _ in range(200):
            z1 = stream.ball_point(4, gen.latent_radius)
            z2 = stream.ball_point(4, gen.latent_radius)
            (raw1, _), (raw2, _) = reference_raw_decode(gen, z1), reference_raw_decode(gen, z2)
            lhs = np.linalg.norm(raw1 - raw2)
            assert lhs <= bound * np.linalg.norm(z1 - z2) + 1e-12


class TestSubspaceProject:
    def test_in_span_target_recovered(self):
        gen = random_subspace(8, 3, seed=6)
        x = gen.basis @ np.array([1.0, -2.0, 0.5])
        assert_allclose(subspace_project(gen, x), _unit(x), atol=1e-12)

    def test_orthogonal_target_rejected(self):
        q = np.zeros((4, 2))
        q[0, 0] = 1.0
        q[1, 1] = 1.0
        gen = SubspaceGenerator(basis=q, latent_radius=3.0)
        with pytest.raises(DegenerateProjection):
            subspace_project(gen, [0.0, 0.0, 1.0, 1.0])

    def test_idempotent(self):
        gen = random_subspace(10, 4, seed=8)
        x = NormalStream(33, stream=0).normals(10)
        once = subspace_project(gen, x)
        twice = subspace_project(gen, once)
        assert_allclose(once, twice, atol=1e-12)

    def test_closest_among_span_samples(self):
        gen = random_subspace(6, 2, seed=10)
        x = NormalStream(34, stream=0).normals(6)
        best = subspace_project(gen, x)
        best_dist = np.linalg.norm(best - x)
        for theta in np.linspace(0.0, 2.0 * math.pi, 721):
            cand = gen.basis @ np.array([math.cos(theta), math.sin(theta)])
            assert best_dist <= np.linalg.norm(cand - x) + 1e-9

    def test_matches_fine_latent_grid(self):
        gen = random_subspace(5, 2, seed=11)
        x = NormalStream(35, stream=0).normals(5)
        best_dist = float(np.linalg.norm(subspace_project(gen, x) - x))
        ticks = np.linspace(-1.0, 1.0, 100)
        grid_min = math.inf
        for a in ticks:
            for b in ticks:
                if a == 0.0 and b == 0.0:
                    continue
                cand = forward(gen, [a, b])
                grid_min = min(grid_min, float(np.linalg.norm(cand - x)))
        assert abs(best_dist - grid_min) <= 1e-3
        assert best_dist <= grid_min + 1e-9


class TestProjectToRange:
    def test_subspace_iterative_matches_oracle(self):
        gen = random_subspace(16, 4, seed=12)
        cfg = LatentProjectionConfig(seed=101)
        stream = NormalStream(200, stream=0)
        hits = 0
        for _ in range(10):
            x = stream.unit_vector(16)
            got = project_to_range(gen, x, cfg).point
            oracle = subspace_project(gen, x)
            if float(np.abs(got @ oracle)) >= 0.999:
                hits += 1
        assert hits >= 9

    def test_distance_never_exceeds_start_distances(self):
        gen = random_mlp(10, 3, hidden=(6,), activation="sigmoid", seed=31)
        cfg = LatentProjectionConfig(seed=55)
        x = NormalStream(56, stream=0).unit_vector(10)
        result = project_to_range(gen, x, cfg)
        for i in range(cfg.restarts):
            z0 = NormalStream(cfg.seed, stream=i).ball_point(3, 0.9 * gen.latent_radius)
            start_dist = np.linalg.norm(forward(gen, z0) - x)
            assert result.distance <= start_dist + 1e-12

    def test_beats_latent_grid_search(self):
        gen = replace(random_mlp(5, 2, activation="sigmoid", seed=41), latent_radius=2.0)
        x = NormalStream(57, stream=0).unit_vector(5)
        result = project_to_range(gen, x, LatentProjectionConfig(steps=400, seed=3))
        ticks = np.linspace(-2.0, 2.0, 81)
        grid_best = math.inf
        for a in ticks:
            for b in ticks:
                z = np.array([a, b])
                if np.linalg.norm(z) > 2.0:
                    continue
                grid_best = min(grid_best, float(np.linalg.norm(forward(gen, z) - x)))
        assert result.distance <= grid_best + 0.02

    def test_deterministic(self):
        gen = random_mlp(8, 3, hidden=(5,), activation="relu", seed=61)
        x = NormalStream(62, stream=0).unit_vector(8)
        cfg = LatentProjectionConfig(seed=7)
        r1 = project_to_range(gen, x, cfg)
        r2 = project_to_range(gen, x, cfg)
        assert_allclose(r1.point, r2.point, rtol=0, atol=0)
        assert_allclose(r1.latent, r2.latent, rtol=0, atol=0)
        assert r1.distance == r2.distance
        assert r1.restart_index == r2.restart_index

    def test_zero_target_gives_unit_range_point(self):
        # Every range point is equidistant from the origin, so any unit
        # vector in the span is a valid answer with distance exactly 1.
        gen = random_subspace(9, 3, seed=15)
        result = project_to_range(gen, np.zeros(9), LatentProjectionConfig(seed=2))
        assert result.distance == pytest.approx(1.0, abs=1e-12)
        coeff = gen.basis.T @ result.point
        assert_allclose(gen.basis @ coeff, result.point, atol=1e-9)
        assert_allclose(np.linalg.norm(result.point), 1.0, atol=1e-12)

    def test_all_restarts_degenerate(self):
        dead = Layer(
            weight=np.array([[1.0], [1.0]]),
            bias=np.array([-10.0, -10.0]),
            activation="relu",
        )
        gen = MlpGenerator(layers=(dead,), latent_radius=5.0)
        with pytest.raises(AllRestartsDegenerate):
            project_to_range(gen, [1.0, 0.0], LatentProjectionConfig(seed=1))

    def test_overflowing_decoder_raises(self):
        with np.errstate(all="ignore"), pytest.raises(AllRestartsDegenerate):
            project_to_range(_overflowing_mlp(), np.ones(8), LatentProjectionConfig(seed=1))


def _overflowing_mlp() -> MlpGenerator:
    gen = random_mlp(8, 2, hidden=(4,), seed=1)
    layers = tuple(
        Layer(weight=1e200 * layer.weight, bias=layer.bias, activation=layer.activation)
        for layer in gen.layers
    )
    return MlpGenerator(layers=layers, latent_radius=gen.latent_radius)


def _two_threshold_decoder(t1: float, t2: float) -> MlpGenerator:
    """k = 1, n = 2: raw output (relu(z - t1), relu(z - t2)), so a latent at
    or below t1 dies, one in (t1, t2] decodes to e1 with zero gradient, and
    one above t2 turns toward (1, 1)."""
    hidden = Layer(weight=np.ones((2, 1)), bias=np.array([-t1, -t2]), activation="relu")
    top = Layer(weight=np.eye(2), bias=np.zeros(2), activation="identity")
    return MlpGenerator(layers=(hidden, top), latent_radius=1.0)


def _overshooting(gen, direction):
    """`direction` scaled to norm r and moved outward an ulp at a time until
    its computed norm exceeds r: a rounding overshoot, not a refusal."""
    r = gen.latent_radius
    z = direction * (r / math.sqrt(float(direction.dot(direction))))
    while math.sqrt(float(z.dot(z))) <= r:
        z = np.nextafter(z, 2.0 * z)
    assert math.sqrt(float(z.dot(z))) <= r * (1.0 + 1e-9)
    return z


def _assert_refused(gen, z):
    """forward and backward both refuse z, naming its norm and the radius."""
    message = (
        f"latent norm {math.sqrt(float(z.dot(z))):.6g} is outside the latent ball of radius "
        f"{gen.latent_radius:.6g}"
    )
    cot = np.ones(gen.output_dim)
    for call in (lambda: forward(gen, z), lambda: backward(gen, z, cot)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def _count_calls(monkeypatch, name: str) -> dict:
    """Wrap gepflow.generative.<name> to count its calls and those that raised."""
    tally = {"calls": 0, "raised": 0}
    inner = getattr(generative, name)

    def counted(*args):
        tally["calls"] += 1
        try:
            return inner(*args)
        except DegenerateOutput:
            tally["raised"] += 1
            raise

    monkeypatch.setattr(generative, name, counted)
    return tally


def _same_projection(got, oracle) -> bool:
    point, latent, distance, restart = oracle
    return (
        got.point.tobytes() == point.tobytes()
        and got.latent.tobytes() == latent.tobytes()
        and got.distance.hex() == distance.hex()
        and got.restart_index == restart
    )


class TestLockstepRestarts:
    """The restarts advance together and still pick the sequential scan's winner."""

    def test_constant_decoder_ties_go_to_restart_zero_start(self):
        bias = np.array([0.5, -1.0, 2.0])
        gen = MlpGenerator(
            layers=(Layer(weight=np.zeros((3, 2)), bias=bias, activation="identity"),),
            latent_radius=1.0,
        )
        x = np.array([0.3, 0.1, -0.2])
        cfg = LatentProjectionConfig(steps=5, restarts=4, seed=17)
        got = project_to_range(gen, x, cfg)
        assert got.restart_index == 0
        assert got.latent.tobytes() == _random_start(17, 0, 2, 1.0).tobytes()
        assert got.point.tobytes() == (bias / math.sqrt(float(bias.dot(bias)))).tobytes()
        assert _same_projection(got, reference_project_to_range(gen, x, cfg))

    def test_restart_dead_at_its_start_leaves_the_win_to_the_next(self, monkeypatch):
        # seed 2: restart 0 starts at z = -0.775 (dead), restart 1 at 0.073
        gen = _two_threshold_decoder(-0.05, 0.0)
        x = np.array([1.0, 0.0])
        cfg = LatentProjectionConfig(steps=4, learning_rate=0.1, restarts=2, seed=2)
        tally = _count_calls(monkeypatch, "forward")
        with pytest.raises(AllRestartsDegenerate):
            project_to_range(gen, x, replace(cfg, restarts=1))
        assert tally == {"calls": 1, "raised": 1}
        got = project_to_range(gen, x, cfg)
        assert got.restart_index == 1
        assert _same_projection(got, reference_project_to_range(gen, x, cfg))

    def test_restart_that_dies_mid_descent_keeps_its_candidates(self, monkeypatch):
        # seed 0: restart 0 starts at z = 0.1, steps to 0.0003 and then
        # dies at -0.076; restart 1 starts at 0.604 and lives all 4 steps
        gen = _two_threshold_decoder(-0.05, 0.0)
        x = np.array([1.0, 0.0])
        cfg = LatentProjectionConfig(steps=4, learning_rate=0.1, restarts=2, seed=0)
        tally = _count_calls(monkeypatch, "forward")
        alone = project_to_range(gen, x, replace(cfg, restarts=1))
        assert tally == {"calls": 3, "raised": 1}
        got = project_to_range(gen, x, cfg)
        assert tally == {"calls": 3 + 3 + cfg.steps + 1, "raised": 2}
        assert got.restart_index == 0
        assert got.latent.tobytes() == alone.latent.tobytes()
        assert got.distance == alone.distance
        assert _same_projection(got, reference_project_to_range(gen, x, cfg))

    def test_rounding_overshoots_decode_once_per_step(self, monkeypatch):
        # At the range prior's shape, a step clipped onto the sphere of radius
        # r often lands an ulp outside it; that latent's decode is kept like
        # any other, so backward does not decode it again.
        gen = random_mlp(64, 4, hidden=(32,))
        cfg = LatentProjectionConfig(steps=30, restarts=2, seed=7)
        decodes = _count_calls(monkeypatch, "_clamp_latent")
        for target in (1, 8, 10):
            before = decodes["calls"]
            project_to_range(gen, NormalStream(11, stream=target).unit_vector(64), cfg)
            assert decodes["calls"] - before == cfg.restarts * (cfg.steps + 1)

    def test_each_live_row_decodes_once_per_step(self, monkeypatch):
        # perfbench counts forward and backward calls: one of each per live
        # row per step, as when the restarts ran one at a time. The layers
        # run once per row per step (the decode starts at _clamp_latent), as
        # backward reuses the decode forward has just made.
        gen = random_mlp(10, 3, hidden=(6,), seed=4)
        cfg = LatentProjectionConfig(steps=7, restarts=3, seed=5)
        tallies = [_count_calls(monkeypatch, name) for name in ("forward", "backward")]
        decodes = _count_calls(monkeypatch, "_clamp_latent")
        for target in range(2):
            project_to_range(gen, NormalStream(6, stream=target).normals(10), cfg)
            for tally in tallies:
                assert tally == {"calls": (target + 1) * 3 * (7 + 1), "raised": 0}
            assert decodes == {"calls": (target + 1) * 3 * (7 + 1), "raised": 0}


class TestLastDecode:
    """A generator keeps its last decode, and no caller can tell."""

    def test_backward_reuses_forwards_decode(self, monkeypatch):
        gen = random_mlp(8, 3, hidden=(5,), activation="sigmoid", seed=2)
        z, other = NormalStream(3, stream=0).normals(3), NormalStream(3, stream=1).normals(3)
        cot = NormalStream(3, stream=2).normals(8)
        decodes = _count_calls(monkeypatch, "_clamp_latent")
        point = forward(gen, z)
        grad = backward(gen, z.copy(), cot)  # equal bytes, another array
        assert decodes["calls"] == 1
        backward(gen, other, cot)
        backward(gen, z, cot)
        assert decodes["calls"] == 3
        fresh = replace(gen)
        assert point.tobytes() == forward(fresh, z).tobytes()
        assert grad.tobytes() == backward(fresh, z, cot).tobytes()

    def test_each_generator_keeps_its_own_decode(self):
        gens = random_mlp(8, 3, seed=1), random_mlp(8, 3, seed=2)
        z = np.array([0.5, -1.0, 2.0])
        want = [forward(replace(gen), z).tobytes() for gen in gens]
        assert want[0] != want[1]
        assert [forward(gen, z).tobytes() for gen in gens * 2] == want * 2

    def test_forward_returns_the_callers_own_array(self):
        gen = random_subspace(6, 2, seed=3)
        z = np.array([0.5, -1.0])
        first = forward(gen, z)
        want = first.tobytes()
        first[:] = np.nan
        assert forward(gen, z).tobytes() == want

    def test_rounding_overshoot_is_kept(self, monkeypatch):
        gen = random_mlp(6, 2, hidden=(4,), seed=1)
        z = _overshooting(gen, np.array([0.6, -0.8]))
        cot = NormalStream(3, stream=0).normals(6)
        decodes = _count_calls(monkeypatch, "_clamp_latent")
        point, grad = forward(gen, z), backward(gen, z, cot)
        assert decodes["calls"] == 1
        fresh = replace(gen)
        assert point.tobytes() == forward(fresh, z).tobytes()
        assert grad.tobytes() == backward(fresh, z, cot).tobytes()

    def test_refused_latents_and_degenerate_outputs_are_not_kept(self, monkeypatch):
        gen = random_mlp(6, 2, seed=1)
        far = np.array([30.0, 40.0])  # norm 50 > r = 3 sqrt(2)
        decodes = _count_calls(monkeypatch, "_clamp_latent")
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the latent ball"):
                forward(gen, far)
        assert decodes["calls"] == 2
        dead = _two_threshold_decoder(-0.05, 0.0)
        for _ in range(2):
            with pytest.raises(DegenerateOutput):
                forward(dead, np.array([-0.5]))
        assert decodes == {"calls": 4, "raised": 0}

    def test_threads_sharing_a_generator_match_a_serial_run(self):
        # three threads, 50 targets each: one may lose the kept decode to another
        gen = random_mlp(16, 3, hidden=(8,), seed=6)
        cfg = LatentProjectionConfig(steps=5, restarts=2, seed=4)
        targets = [
            [NormalStream(40 + side, stream=i).normals(16) for i in range(50)] for side in range(3)
        ]

        def run(side):
            return [
                (r.point.tobytes(), r.latent.tobytes(), r.distance.hex(), r.restart_index)
                for r in (project_to_range(gen, x, cfg) for x in targets[side])
            ]

        serial = [run(side) for side in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over between small steps
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                threaded = list(pool.map(run, range(3), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestRandomStarts:
    """Random Adam starts are drawn once per (seed, restart, k, radius)."""

    def test_cached_start_equals_fresh_draw(self):
        for seed, stream, k, radius in [(0, 0, 4, 6.0), (7, 2, 1, 0.5), (2**40, 5, 9, 9.0)]:
            fresh = NormalStream(seed, stream=stream).ball_point(k, 0.9 * radius)
            assert _random_start(seed, stream, k, radius).tobytes() == fresh.tobytes()

    def test_cached_start_is_read_only(self):
        z = _random_start(3, 1, 4, 6.0)
        with pytest.raises(ValueError):
            z[0] = 0.0
        with pytest.raises(ValueError):
            z *= 2.0
        result = project_to_range(
            random_mlp(8, 4, seed=3), np.ones(8), LatentProjectionConfig(steps=1, seed=3)
        )
        result.latent[0] = 0.0  # what a projection returns is the caller's own

    def test_repeated_projection_is_identical_and_reuses_starts(self):
        gen = random_mlp(12, 3, hidden=(6,), activation="sigmoid", seed=8)
        projector = RangeProjector(model=gen, config=LatentProjectionConfig(steps=6, seed=91))
        x = NormalStream(92, stream=0).unit_vector(12)
        first = project_to_range(gen, x, projector.config)
        hits = _random_start.cache_info().hits
        second = project_to_range(gen, x, projector.config)
        assert _random_start.cache_info().hits == hits + projector.config.restarts
        for a, b in [(first.point, second.point), (first.latent, second.latent)]:
            assert a.tobytes() == b.tobytes()
        assert (first.distance, first.restart_index) == (second.distance, second.restart_index)
        assert project(projector, x).tobytes() == project(projector, x).tobytes()

    def test_other_seed_gets_other_starts(self):
        gen = random_mlp(12, 3, hidden=(6,), seed=8)
        x = NormalStream(92, stream=0).unit_vector(12)
        a, b = (
            RangeProjector(model=gen, config=LatentProjectionConfig(steps=1, restarts=1, seed=s))
            for s in (91, 92)
        )
        r = gen.latent_radius
        assert _random_start(91, 0, 3, r).tobytes() != _random_start(92, 0, 3, r).tobytes()
        assert project(a, x).tobytes() != project(b, x).tobytes()


class TestSerialization:
    def test_mlp_round_trip(self):
        gen = random_mlp(9, 3, hidden=(5,), activation="sigmoid", seed=70)
        blob = json.dumps(model_to_json(gen))
        back = model_from_json(json.loads(blob))
        assert isinstance(back, MlpGenerator)
        assert "normalized" not in json.loads(blob)
        assert back.latent_radius == gen.latent_radius
        for la, lb in zip(gen.layers, back.layers):
            assert la.activation == lb.activation
            assert_allclose(la.weight, lb.weight, rtol=0, atol=0)
            assert_allclose(la.bias, lb.bias, rtol=0, atol=0)

    def test_subspace_round_trip(self):
        gen = random_subspace(7, 2, seed=71)
        back = model_from_json(json.loads(json.dumps(model_to_json(gen))))
        assert isinstance(back, SubspaceGenerator)
        assert_allclose(back.basis, gen.basis, rtol=0, atol=0)
        assert back.latent_radius == gen.latent_radius

    def test_dimension_mismatch_rejected(self):
        obj = model_to_json(random_subspace(7, 2, seed=72))
        obj["latent_dim"] = 3
        with pytest.raises(ValueError):
            model_from_json(obj)

    def test_older_files_normalized_key_accepted(self):
        gen = random_mlp(9, 3, hidden=(5,), seed=70)
        back = model_from_json({**model_to_json(gen), "normalized": True})
        z = np.array([0.3, -0.2, 0.5])
        assert forward(back, z).tobytes() == forward(gen, z).tobytes()

    @pytest.mark.parametrize("extra", [{"normalized": False}, {"min_norm": 1e-3}])
    def test_removed_settings_refused(self, extra):
        # Every decoder is normalized with the fixed floor; a file asking
        # for another contract used to load and be served the wrong one.
        (key,) = extra
        obj = {**model_to_json(random_mlp(9, 3, seed=70)), **extra}
        with pytest.raises(ValueError, match=key):
            model_from_json(obj)

    def test_missing_body_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"latent_dim": 2, "output_dim": 5, "latent_radius": 1.0})

    @pytest.mark.parametrize(
        "key, value, want",
        [("latent_dim", 2.7, "an integer"), ("latent_dim", 3.0, "an integer"),
         ("output_dim", True, "an integer"), ("latent_radius", "3", "a finite number"),
         ("latent_radius", math.inf, "a finite number")],
        ids=["latent_dim-2.7", "latent_dim-3.0", "output_dim-true", "radius-str", "radius-inf"],
    )
    def test_coercible_number_refused(self, key, value, want):
        # int() and float() used to read 2.7 as 2 and "3" as 3.0
        obj = {**model_to_json(random_mlp(9, 3, seed=70)), key: value}
        with pytest.raises(ValueError, match=f"model JSON '{key}' must be {want}"):
            model_from_json(obj)

    @pytest.mark.parametrize("value", ["0.5", True, None], ids=["digits", "true", "null"])
    @pytest.mark.parametrize("key", ["weight", "bias", "basis"])
    def test_non_number_in_an_array_refused(self, key, value):
        # np.array(..., dtype=float64) used to read "0.5" as 0.5 and true as 1.0
        if key == "basis":
            obj = model_to_json(random_subspace(9, 3, seed=70))
            row = obj["basis"][4]
        else:
            obj = model_to_json(random_mlp(9, 3, seed=70))
            row = obj["layers"][-1][key]
            row = row[4] if key == "weight" else row
        row[1] = value
        with pytest.raises(ValueError, match=f"'{key}' must be an array of numbers"):
            model_from_json(obj)

    def test_missing_radius_rejected(self):
        obj = model_to_json(random_mlp(9, 3, seed=70))
        del obj["latent_radius"]
        with pytest.raises(ValueError, match="missing 'latent_radius'"):
            model_from_json(obj)

    @pytest.mark.parametrize("key", ["latent_dim", "output_dim", "latent_radius"])
    @pytest.mark.parametrize("value", [None, [8]], ids=["null", "list"])
    def test_malformed_number_names_the_key(self, key, value):
        # These used to escape as a TypeError from int() or float().
        want = "a finite number" if key == "latent_radius" else "an integer"
        obj = {**model_to_json(random_mlp(9, 3, seed=70)), key: value}
        with pytest.raises(ValueError, match=f"model JSON '{key}' must be {want}"):
            model_from_json(obj)

    @pytest.mark.parametrize("layers", [5, [5], [[1.0]], {"weight": [[1.0]]}])
    def test_malformed_layers_name_the_key(self, layers):
        obj = {**model_to_json(random_mlp(9, 3, seed=70)), "layers": layers}
        with pytest.raises(ValueError, match="'layers' must be a list of objects"):
            model_from_json(obj)


_MLP = random_mlp(6, 2, hidden=(4,), seed=1)
_SUB = random_subspace(6, 2, seed=0)

#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(lambda: LatentProjectionConfig(steps=0), ValueError,
                 "steps and restarts must be >= 1", id="config-steps"),
    pytest.param(lambda: LatentProjectionConfig(restarts=0), ValueError,
                 "steps and restarts must be >= 1", id="config-restarts"),
    pytest.param(lambda: forward(_MLP, np.ones(3)), ValueError,
                 "latent has length 3, expected 2", id="forward-latent-length"),
    pytest.param(lambda: backward(_MLP, np.full(2, 0.5), np.ones(5)), ValueError,
                 "cotangent has length 5, expected 6", id="backward-cotangent-length"),
    pytest.param(lambda: subspace_project(_SUB, np.ones(5)), ValueError,
                 "target has length 5, expected 6", id="subspace-target-length"),
    pytest.param(lambda: project_to_range(_MLP, np.ones(5), LatentProjectionConfig()),
                 ValueError, "target has length 5, expected 6", id="range-target-length"),
    pytest.param(lambda: project_to_range(_MLP, [1.0, math.nan, 0, 0, 0, 0],
                                          LatentProjectionConfig()),
                 ValueError, "target has non-finite entries", id="range-target-nan"),
    pytest.param(lambda: random_mlp(4, 4), ValueError,
                 "latent_dim must be smaller than output_dim", id="mlp-latent-too-wide"),
    pytest.param(lambda: subspace_containing(np.zeros(4), 2), ValueError,
                 "vector must be nonzero", id="containing-zero-vector"),
    pytest.param(lambda: subspace_containing(np.ones(4), 5), ValueError,
                 "need 1 <= latent_dim <= len(vector)", id="containing-k-above-n"),
    pytest.param(lambda: subspace_containing(np.ones(4), 0), ValueError,
                 "need 1 <= latent_dim <= len(vector)", id="containing-k-zero"),
    pytest.param(lambda: model_from_json([]), ValueError,
                 "model JSON must be an object", id="model-not-object"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
