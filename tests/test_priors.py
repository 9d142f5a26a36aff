"""Tests for structural priors and their projections."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gepflow.errors import ZeroVector
from gepflow.generative import (
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    SubspaceGenerator,
    forward,
    model_to_json,
    project_to_range,
    random_mlp,
    random_subspace,
    subspace_containing,
    subspace_project,
)
from gepflow.harness import SweepSpec, run_sweep
from gepflow.priors import (
    RangeProjector,
    SparseProjector,
    SphereProjector,
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
        x = NormalStream(78, stream=0).normals(9)
        expected = gen.basis @ (gen.basis.T @ x)
        expected /= np.linalg.norm(expected)
        assert_allclose(project(gen, x), expected, atol=1e-12)
        assert np.array_equal(project(gen, x), subspace_project(gen, x))

    def test_subspace_project_matches_dispatch_on_strided_columns(self):
        # both read a strided target as one contiguous copy, so BLAS sums it
        # in one order
        for n in range(9, 130):
            gen = random_subspace(n, 8)
            columns = NormalStream(n, stream=1).matrix(n, 4)
            for j in range(4):
                got = subspace_project(gen, columns[:, j])
                assert got.tobytes() == project(gen, columns[:, j]).tobytes(), (n, j)

    def test_range_run_state_warm_starts_each_later_projection(self):
        gen = random_mlp(8, 3, hidden=(5,), activation="sigmoid", seed=80)
        cfg = LatentProjectionConfig(steps=10, seed=5)
        p = RangeProjector(model=gen, config=cfg)
        stream = NormalStream(90, stream=0)
        x, y, z = (stream.unit_vector(8) for _ in range(3))
        cold = project_to_range(gen, x, cfg)
        run = {}
        assert project(p, x, _run=run).tobytes() == cold.point.tobytes()
        warm = project_to_range(gen, y, cfg, _start=cold.latent)
        assert project(p, y, _run=run).tobytes() == warm.point.tobytes()
        later = project_to_range(gen, z, cfg, _start=warm.latent)
        assert project(p, z, _run=run).tobytes() == later.point.tobytes()
        frozen = project_to_range(gen, z, cfg, _start=cold.latent)
        assert later.point.tobytes() != frozen.point.tobytes()
        assert project(p, y).tobytes() == project_to_range(gen, y, cfg).point.tobytes()
        assert project(p, y).tobytes() != warm.point.tobytes()

    def test_range_prior_over_a_subspace_runs_adam(self):
        gen = random_subspace(9, 3, seed=79)
        cfg = LatentProjectionConfig(steps=20, seed=3)
        x = NormalStream(78, stream=0).unit_vector(9)
        got = project(RangeProjector(model=gen, config=cfg), x)
        assert np.array_equal(got, project_to_range(gen, x, cfg).point)
        assert not np.array_equal(got, subspace_project(gen, x))  # 20 Adam steps, not the closed form

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
        for p in (SphereProjector(), SparseProjector(s=3), gen):
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
        gen = dataclasses.replace(random_subspace(6, 2, seed=90), latent_radius=2.5)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(gen)))
        monkeypatch.chdir(tmp_path)
        p = projector_from_spec({"prior": "subspace", "model_path": "model.json"})
        assert isinstance(p, SubspaceGenerator)
        assert_allclose(p.basis, gen.basis, rtol=0, atol=0)
        assert p.latent_radius == 2.5  # the file's radius, not a placeholder

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
        truth = NormalStream(93, stream=0).unit_vector(10)
        p = projector_from_spec({"prior": "subspace", "k": 3}, truth=truth, seed=5)
        expected = subspace_containing(truth, 3, seed=5)
        assert isinstance(p, SubspaceGenerator)
        assert p.basis.tobytes() == expected.basis.tobytes()
        assert p.latent_radius == expected.latent_radius
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

    # int() and the unchecked "projection" values used to read each of these:
    # 7.9 as 7, "3" as 3, true as 1, and a float step count failed inside Adam.
    # "s" and "k" are read as JSON integers; the projection values are
    # checked by LatentProjectionConfig itself.
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"prior": "sparse", "s": 7.9}, "'s' must be an integer"),
            ({"prior": "sparse", "s": "3"}, "'s' must be an integer"),
            ({"prior": "sparse", "s": True}, "'s' must be an integer"),
            ({"prior": "subspace", "k": 7.9}, "'k' must be an integer"),
            ({"prior": "subspace", "k": "3"}, "'k' must be an integer"),
            ({"prior": "subspace", "k": True}, "'k' must be an integer"),
            *(
                ({"prior": "range", "model_path": "mlp.json", "projection": {key: value}},
                 message)
                for key, value, message in [
                    ("steps", 5.5, "steps must be an integer"),
                    ("restarts", 2.5, "restarts must be an integer"),
                    ("steps", True, "steps must be an integer"),
                    ("seed", 1.5, "seed must be an integer"),
                    ("learning_rate", "0.1", "learning_rate must be a real number"),
                    ("learning_rate", True, "learning_rate must be a real number"),
                    ("learning_rate", math.inf, "learning_rate must be finite and positive"),
                ]
            ),
        ],
        ids=["s-float", "s-digits", "s-true", "k-float", "k-digits", "k-true",
             "steps-float", "restarts-float", "steps-true", "seed-float",
             "lr-digits", "lr-true", "lr-inf"],
    )
    def test_coercible_spec_number_refused(self, tmp_path, monkeypatch, spec, message):
        (tmp_path / "mlp.json").write_text(json.dumps(model_to_json(random_mlp(8, 2, seed=91))))
        monkeypatch.chdir(tmp_path)
        truth = NormalStream(93, stream=0).unit_vector(8)
        with pytest.raises(ValueError, match=message):
            projector_from_spec(spec, truth=truth)
        sweep = SweepSpec(
            kind="spiked", m_values=(40,), n=8, solvers=("prfm",), trials=1,
            prior=spec, restarts=1, max_iters=2,
        )
        with pytest.raises(ValueError, match=message):
            run_sweep(sweep)

    # Each of these used to build while dropping the key: a "k" subspace
    # dropped its model, a misspelled "projections" ran 100 Adam steps.
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"prior": "sphere", "s": 3}, "sphere prior does not read 's'"),
            ({"prior": "sparse", "s": 3, "k": 4}, "sparse prior does not read 'k'"),
            ({"prior": "sparse", "s": 3, "model_path": "basis.json"},
             "sparse prior does not read 'model_path'"),
            ({"prior": "subspace", "k": 3, "s": 2}, "subspace prior does not read 's'"),
            ({"prior": "subspace", "model_path": "basis.json", "projection": {}},
             "subspace prior does not read 'projection'"),
            ({"prior": "subspace", "k": 3, "model_path": "basis.json"},
             "subspace prior takes 'k' or 'model_path', not both"),
            ({"prior": "range", "model_path": "mlp.json", "projections": {"steps": 5}},
             "range prior does not read 'projections'"),
            ({"prior": "range", "model_path": "mlp.json", "k": 3}, "range prior does not read 'k'"),
        ],
        ids=["sphere-s", "sparse-k", "sparse-model", "subspace-s", "subspace-projection",
             "subspace-k-and-model", "range-projections", "range-k"],
    )
    def test_key_the_prior_does_not_read_refused(self, tmp_path, monkeypatch, spec, message):
        (tmp_path / "mlp.json").write_text(json.dumps(model_to_json(random_mlp(8, 2, seed=91))))
        (tmp_path / "basis.json").write_text(json.dumps(model_to_json(random_subspace(8, 2))))
        monkeypatch.chdir(tmp_path)
        truth = NormalStream(93, stream=0).unit_vector(8)
        with pytest.raises(ValueError, match=f"^{message}$"):
            projector_from_spec(spec, truth=truth)
        sweep = SweepSpec(
            kind="spiked", m_values=(40,), n=8, solvers=("prfm",), trials=1,
            prior=spec, restarts=1, max_iters=2,
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_sweep(sweep)

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


#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(lambda: SparseProjector(s=0), ValueError, "sparsity level must be >= 1",
                 id="sparse-projector-s-zero"),
    pytest.param(lambda: sparse_truncate(np.ones(3), 0), ValueError,
                 "sparsity level must be >= 1", id="truncate-s-zero"),
    pytest.param(lambda: project(object(), np.ones(3)), TypeError,
                 "unknown projector type object", id="unknown-projector"),
    pytest.param(lambda: projector_from_spec(["sphere"]), ValueError,
                 "prior spec must be an object with a 'prior' key", id="spec-not-object"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
