"""Tests for the generative decoders and latent-space range projection."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gepflow.errors import AllRestartsDegenerate, DegenerateOutput, DegenerateProjection
from gepflow.generative import (
    _random_start,
    LatentClampWarning,
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    SubspaceGenerator,
    backward,
    default_latent_radius,
    forward,
    lipschitz_upper_bound,
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

from oracles import finite_difference_gradient, reference_raw_decode


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
        # closed forms Qz/||Qz|| and Q'(c - (o.c)o)/||Qz|| bit for bit, at
        # the clamped latent, inside and outside the ball.
        stream = NormalStream(5, stream=0)
        gens = [
            gen,
            subspace_containing(stream.normals(8), 3, seed=2),
            SubspaceGenerator(basis=np.eye(8)[:, 2:5], latent_radius=2.0),
        ]
        for gen in gens:
            for scale in (0.1, 0.5, 0.99, 1.5, 4.0):
                z = stream.unit_vector(3) * (scale * gen.latent_radius)
                cot = stream.normals(8)
                norm_z = math.sqrt(float(z.dot(z)))
                zc = z if norm_z <= gen.latent_radius else z * (gen.latent_radius / norm_z)
                raw = gen.basis.dot(zc)
                norm = math.sqrt(float(raw.dot(raw)))
                o = raw / norm
                grad = gen.basis.T.dot((cot - float(o.dot(cot)) * o) / norm)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", LatentClampWarning)
                    assert forward(gen, z).tobytes() == o.tobytes()
                    assert backward(gen, z, cot).tobytes() == grad.tobytes()

    def test_identity_single_layer_matches_by_hand(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        gen = MlpGenerator(
            layers=(Layer(weight=w, bias=np.zeros(3), activation="identity"),),
            latent_radius=10.0,
        )
        out = forward(gen, [1.0, 1.0])
        assert_allclose(out, _unit([1.0, 2.0, 2.0]), atol=1e-14)

    def test_clamp_warns_and_hits_boundary(self):
        gen = replace(random_subspace(6, 2, seed=2), latent_radius=1.0)
        with pytest.warns(LatentClampWarning):
            out = forward(gen, [10.0, 0.0])
        with pytest.warns(LatentClampWarning):
            boundary = forward(gen, [1e6, 0.0])
        assert_allclose(out, boundary, atol=1e-12)

    def test_clamp_warning_points_at_the_caller(self):
        for gen in (replace(random_subspace(6, 2, seed=2), latent_radius=1.0),
                    random_mlp(6, 2, hidden=(4,), seed=3)):
            z = np.full(2, 10.0 * gen.latent_radius)
            with pytest.warns(LatentClampWarning) as fwd:
                forward(gen, z)
            with pytest.warns(LatentClampWarning) as bwd:
                backward(gen, z, np.ones(6))
            assert fwd[0].filename == bwd[0].filename == __file__

    def test_interior_latent_does_not_warn(self):
        gen = replace(random_subspace(6, 2, seed=2), latent_radius=1.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", LatentClampWarning)
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

    def test_warm_start_at_solution_wins(self):
        gen = random_subspace(12, 3, seed=14)
        z_true = np.array([0.7, -0.2, 0.4])
        x = forward(gen, z_true)
        cfg = LatentProjectionConfig(steps=5, restarts=2, seed=9)
        result = project_to_range(gen, x, cfg, warm_starts=(z_true,))
        assert result.restart_index == 0
        assert result.distance <= 1e-9

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_warm_start_rejected(self, bad):
        gen = random_subspace(6, 2, seed=16)
        with pytest.raises(ValueError, match="non-finite"):
            project_to_range(
                gen, np.ones(6), LatentProjectionConfig(seed=1), warm_starts=([0.5, bad],)
            )

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
