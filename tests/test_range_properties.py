"""Property test of `project_to_range` against `oracles.reference_project_to_range`.

The range projection must reproduce, bit for bit, the oracle that restates
its latent Adam descent with @ products, a fresh NormalStream start per
restart and per call, and the best candidate replaced step by step: the same
point, latent, distance and restart index, or the same error class when
every restart dies. Decoders: relu, sigmoid and identity MLPs with 0-2
hidden layers, subspace decoders, and a ReLU decoder
whose output vanishes on part of the latent ball, so restarts hit
DegenerateOutput at their start or mid-descent. Over the same family the
projection never clamps a latent: its starts lie inside 0.9 r and each
step is clipped to the ball before it is decoded.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gepflow.errors import AllRestartsDegenerate
from gepflow.generative import (
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    project_to_range,
    random_mlp,
    random_subspace,
)
from gepflow.rng import NormalStream

from oracles import reference_project_to_range

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def decoder(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(("mlp", "subspace", "dead_zone")))
    if kind == "dead_zone":
        # Every hidden unit is off where w_i . z <= threshold, which leaves a
        # zero output; with a positive threshold that region holds the origin.
        n = draw(st.integers(3, 8))
        k = draw(st.integers(1, 2))
        units = draw(st.integers(2, 4))
        threshold = draw(st.floats(-0.5, 1.2))
        stream = NormalStream(seed, stream=0)
        hidden = Layer(
            weight=stream.matrix(units, k), bias=np.full(units, -threshold), activation="relu"
        )
        top = Layer(weight=stream.matrix(n, units), bias=np.zeros(n), activation="identity")
        return MlpGenerator(layers=(hidden, top), latent_radius=1.0)
    n = draw(st.integers(3, 20))
    k = draw(st.integers(1, min(4, n - 1)))
    if kind == "subspace":
        return random_subspace(n, k, seed=seed)
    widths = tuple(draw(st.lists(st.integers(2, 10), min_size=0, max_size=2)))
    activation = draw(st.sampled_from(("relu", "sigmoid", "identity")))
    return random_mlp(n, k, hidden=widths, activation=activation, seed=seed)


@st.composite
def projection_case(draw):
    gen = draw(decoder())
    seed = draw(st.integers(0, 2**40))
    cfg = LatentProjectionConfig(
        steps=draw(st.integers(1, 12)),
        learning_rate=draw(st.sampled_from((0.05, 0.1, 0.5))),
        restarts=draw(st.integers(1, 6)),
        seed=seed,
    )
    stream = NormalStream(seed, stream=2**20)
    x = stream.normals(gen.output_dim) * draw(st.sampled_from((0.0, 0.3, 1.0)))
    return gen, x, cfg


@PROPERTY_SETTINGS
@given(case=projection_case())
def test_project_to_range_matches_oracle_bytes(case):
    gen, x, cfg = case
    try:
        point, latent, distance, restart = reference_project_to_range(gen, x, cfg)
    except AllRestartsDegenerate:
        try:
            project_to_range(gen, x, cfg)
        except AllRestartsDegenerate:
            return
        raise AssertionError("package found a candidate where every oracle restart died")
    got = project_to_range(gen, x, cfg)
    assert got.point.tobytes() == point.tobytes()
    assert got.latent.tobytes() == latent.tobytes()
    assert got.distance.hex() == distance.hex()
    assert got.restart_index == restart


@PROPERTY_SETTINGS
@given(case=projection_case())
def test_project_to_range_never_clamps(case):
    gen, x, cfg = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            project_to_range(gen, x, cfg)
        except AllRestartsDegenerate:
            pass
