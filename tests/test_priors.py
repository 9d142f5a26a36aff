"""Tests for structural priors and their projections."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gepflow.errors import ZeroVector
from gepflow.generative import (
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    forward,
    model_to_json,
    random_mlp,
    random_subspace,
)
from gepflow.priors import (
    RangeProjector,
    SparseProjector,
    SphereProjector,
    SubspaceProjector,
    project,
    projector_from_spec,
    sparse_truncate,
)
from gepflow.rng import NormalStream


class TestSparseTruncate:
    def test_worked_example(self):
        out = sparse_truncate([3.0, -1.0, 2.0, 0.5], 2)
        assert_allclose(out, np.array([3.0, 0.0, 2.0, 0.0]) / math.sqrt(13.0), atol=1e-15)

    def test_ties_prefer_lowest_index(self):
        out = sparse_truncate([1.0, -1.0, 1.0], 2)
        assert_allclose(out, np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0), atol=1e-15)

    def test_s_at_least_dimension_just_normalizes(self):
        x = np.array([3.0, 4.0])
        assert_allclose(sparse_truncate(x, 5), x / 5.0, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            sparse_truncate(np.zeros(4), 2)
        with pytest.raises(ZeroVector):
            sparse_truncate([0.0, 0.0, 1.0], 1) if False else sparse_truncate([0.0, 0.0, 0.0], 1)

    def test_against_support_enumeration(self):
        # Projection onto s-sparse unit vectors maximizes the kept mass
        # ||x_S||; check against brute force over all supports.
        stream = NormalStream(404, stream=0)
        for _ in range(50):
            x = stream.normals(8)
            got = sparse_truncate(x, 3)
            kept = float(np.linalg.norm(x[np.abs(got) > 0]))
            best = max(
                float(np.linalg.norm(x[list(sup)]))
                for sup in itertools.combinations(range(8), 3)
            )
            assert kept >= best - 1e-12
            # and the result is the normalized restriction of x to its support
            sup = np.abs(got) > 0
            assert np.count_nonzero(sup) <= 3
            assert_allclose(got[sup], x[sup] / kept, atol=1e-12)

    def test_idempotent(self):
        x = NormalStream(405, stream=0).normals(10)
        once = sparse_truncate(x, 4)
        assert_allclose(sparse_truncate(once, 4), once, atol=1e-15)


class TestProjectDispatch:
    def test_sphere_normalizes(self):
        out = project(SphereProjector(), [3.0, 4.0])
        assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_sphere_matches_linalg_norm_on_strided_input(self):
        column = NormalStream(80, stream=0).matrix(100, 3)[:, 1]
        assert not column.flags.c_contiguous
        expected = column / np.linalg.norm(column)
        assert np.array_equal(project(SphereProjector(), column), expected)

    def test_sphere_zero_rejected(self):
        with pytest.raises(ZeroVector):
            project(SphereProjector(), np.zeros(3))

    def test_sparse_dispatch(self):
        out = project(SparseProjector(s=1), [1.0, -2.0])
        assert_allclose(out, [0.0, -1.0], atol=1e-15)

    def test_subspace_dispatch_matches_closed_form(self):
        gen = random_subspace(9, 3, seed=77)
        p = SubspaceProjector(basis=gen.basis)
        x = NormalStream(78, stream=0).normals(9)
        expected = gen.basis @ (gen.basis.T @ x)
        expected /= np.linalg.norm(expected)
        assert_allclose(project(p, x), expected, atol=1e-12)

    def test_subspace_validates_basis(self):
        with pytest.raises(ValueError):
            SubspaceProjector(basis=np.ones((4, 2)))

    def test_range_dispatch_deterministic(self):
        gen = random_mlp(8, 3, hidden=(5,), activation="sigmoid", seed=80)
        p = RangeProjector(model=gen, config=LatentProjectionConfig(steps=40, seed=5))
        x = NormalStream(81, stream=0).unit_vector(8)
        assert_allclose(project(p, x), project(p, x), rtol=0, atol=0)

    def test_range_output_is_unit(self):
        gen = random_mlp(8, 3, hidden=(5,), activation="sigmoid", seed=80)
        p = RangeProjector(model=gen, config=LatentProjectionConfig(steps=40, seed=5))
        out = project(p, NormalStream(82, stream=0).unit_vector(8))
        assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)

    def test_range_projection_beats_sampled_range_points(self):
        gen = random_mlp(10, 3, hidden=(6,), activation="sigmoid", seed=87)
        p = RangeProjector(model=gen, config=LatentProjectionConfig(steps=300, seed=2))
        stream = NormalStream(89, stream=0)
        x = stream.unit_vector(10)
        achieved = float(np.linalg.norm(project(p, x) - x))
        for _ in range(200):
            w = forward(gen, stream.ball_point(3, gen.latent_radius))
            assert achieved <= float(np.linalg.norm(w - x)) + 1e-9

    def test_exact_priors_idempotent(self):
        stream = NormalStream(83, stream=0)
        gen = random_subspace(8, 3, seed=84)
        for p in (SphereProjector(), SparseProjector(s=3), SubspaceProjector(basis=gen.basis)):
            x = stream.normals(8)
            once = project(p, x)
            assert_allclose(project(p, once), once, atol=1e-12)

    def test_range_prior_idempotent_on_benign_decoders(self):
        # Iterative projector repeatability: 2e-3 is attainable when the
        # decoder's range is connected and well conditioned (a tight Adam
        # budget removes the terminal wobble). Saturated random MLPs can
        # land on different sheets between calls, checked separately below.
        tight = LatentProjectionConfig(steps=400, learning_rate=0.02, seed=6)
        sub = RangeProjector(model=random_subspace(12, 4, seed=501), config=tight)
        x = NormalStream(601, stream=0).unit_vector(12)
        once = project(sub, x)
        assert float(np.linalg.norm(project(sub, once) - once)) <= 2e-3

        w = NormalStream(88, stream=0).matrix(10, 3)
        linear = MlpGenerator(
            layers=(Layer(weight=w, bias=np.zeros(10), activation="identity"),),
            latent_radius=6.0,
        )
        p = RangeProjector(model=linear, config=tight)
        once = project(p, x[:10] / np.linalg.norm(x[:10]))
        assert float(np.linalg.norm(project(p, once) - once)) <= 2e-3

    def test_range_prior_reprojection_bounded_on_rough_mlp(self):
        # Saturating decoders admit multiple nearby sheets; re-projection
        # can hop between them, so only a coarse repeatability bound holds.
        gen = random_mlp(10, 3, hidden=(6,), activation="sigmoid", seed=85)
        p = RangeProjector(model=gen, config=LatentProjectionConfig(steps=300, seed=6))
        x = NormalStream(86, stream=0).unit_vector(10)
        once = project(p, x)
        twice = project(p, once)
        assert float(np.linalg.norm(twice - once)) <= 0.1


class TestProjectorFromSpec:
    def test_sphere_and_sparse(self):
        assert isinstance(projector_from_spec({"prior": "sphere"}), SphereProjector)
        p = projector_from_spec({"prior": "sparse", "s": 7})
        assert isinstance(p, SparseProjector) and p.s == 7

    def test_subspace_from_model_file(self, tmp_path, monkeypatch):
        gen = random_subspace(6, 2, seed=90)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(gen)))
        monkeypatch.chdir(tmp_path)
        p = projector_from_spec({"prior": "subspace", "model_path": "model.json"})
        assert isinstance(p, SubspaceProjector)
        assert_allclose(p.basis, gen.basis, rtol=0, atol=0)

    def test_relative_model_path_is_read_from_the_working_directory(self, tmp_path, monkeypatch):
        gen = random_mlp(6, 2, seed=91)
        (tmp_path / "models").mkdir()
        (tmp_path / "models" / "mlp.json").write_text(json.dumps(model_to_json(gen)))
        spec = {"prior": "range", "model_path": "models/mlp.json"}
        monkeypatch.chdir(tmp_path)
        p = projector_from_spec(spec)
        assert_allclose(p.model.layers[0].weight, gen.layers[0].weight, rtol=0, atol=0)
        assert p.model.latent_radius == gen.latent_radius
        monkeypatch.chdir(tmp_path / "models")
        with pytest.raises(FileNotFoundError):
            projector_from_spec(spec)
        p = projector_from_spec({"prior": "range", "model_path": str(tmp_path / "models/mlp.json")})
        assert p.model.latent_radius == gen.latent_radius  # an absolute path opens anywhere

    def test_range_from_model_file_with_overrides(self, tmp_path, monkeypatch):
        gen = random_mlp(6, 2, seed=91)
        path = tmp_path / "mlp.json"
        path.write_text(json.dumps(model_to_json(gen)))
        monkeypatch.chdir(tmp_path)
        p = projector_from_spec(
            {"prior": "range", "model_path": "mlp.json", "projection": {"steps": 17, "seed": 4}}
        )
        assert isinstance(p, RangeProjector)
        assert p.config.steps == 17 and p.config.seed == 4
        assert p.config.restarts == 3  # untouched default

    def test_truth_containing_subspace_from_k(self):
        from gepflow.generative import subspace_containing

        truth = NormalStream(93, stream=0).unit_vector(10)
        p = projector_from_spec({"prior": "subspace", "k": 3}, truth=truth, seed=5)
        assert isinstance(p, SubspaceProjector)
        assert_allclose(p.basis, subspace_containing(truth, 3, seed=5).basis, rtol=0, atol=0)
        assert_allclose(project(p, truth), truth, atol=1e-12)
        with pytest.raises(ValueError, match="truth"):
            projector_from_spec({"prior": "subspace", "k": 3})

    @pytest.mark.parametrize("projection", [{"step": 5}, [5]], ids=["unknown-key", "list"])
    def test_malformed_projection_is_a_value_error(self, tmp_path, monkeypatch, projection):
        # LatentProjectionConfig(**projection) raises TypeError on its own.
        path = tmp_path / "mlp.json"
        path.write_text(json.dumps(model_to_json(random_mlp(6, 2, seed=91))))
        spec = {"prior": "range", "model_path": "mlp.json", "projection": projection}
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="projection"):
            projector_from_spec(spec)

    def test_rejections(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError):
            projector_from_spec({"prior": "banana"})
        with pytest.raises(ValueError):
            projector_from_spec({"prior": "sparse"})
        with pytest.raises(ValueError):
            projector_from_spec({"prior": "range"})
        gen = random_mlp(6, 2, seed=92)
        path = tmp_path / "mlp.json"
        path.write_text(json.dumps(model_to_json(gen)))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError):
            projector_from_spec({"prior": "subspace", "model_path": "mlp.json"})
