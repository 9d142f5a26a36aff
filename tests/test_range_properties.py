"""Property test of `project_to_range` against `oracles.reference_project_to_range`.

The range projection must reproduce, bit for bit, the oracle that restates
its latent Adam descent with @ products, a fresh NormalStream start per
restart and per call, and the best candidate replaced step by step: the same
point, latent, distance and restart index, or the same error class when
every restart dies. Decoders: relu, sigmoid and identity MLPs with 0-2
hidden layers, subspace decoders, and a ReLU decoder
whose output vanishes on part of the latent ball, so restarts hit
DegenerateOutput at their start or mid-descent. Over the same family the
projection never warns or has a latent refused: its starts lie inside
0.9 r and each step is clipped to the ball before it is decoded, and the
decode a generator keeps is invisible: any sequence of `forward` and
`backward` calls, on latents inside the ball, an ulp outside it or far
outside it, returns or raises what a fresh copy of the generator does.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gepflow.errors import AllRestartsDegenerate, DegenerateOutput
from gepflow.generative import (
    LatentProjectionConfig,
    Layer,
    MlpGenerator,
    backward,
    forward,
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


@st.composite
def call_sequence(draw):
    """Two decoders, a pool of latents for each and a run of calls on them.

    Pool entry i of each decoder is the same base draw cut to its latent
    dimension and placed by its kind, so decoders of equal k see equal
    bytes. A "write" draws new values into a pool entry in place.
    """
    gens = [draw(decoder()) for _ in range(2)]
    seed = draw(st.integers(0, 2**40))
    kinds = draw(st.lists(st.sampled_from(_LATENT_KINDS), min_size=1, max_size=4))
    calls = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.integers(0, len(kinds) - 1),
                st.sampled_from(("forward", "backward", "write")),
            ),
            min_size=1,
            max_size=16,
        )
    )
    return gens, seed, kinds, calls


#: Where a pool latent lies: inside the ball, an ulp or so outside it (a
#: rounding overshoot, rescaled onto the sphere of radius r), or far outside.
_LATENT_KINDS = ("inside", "overshoot", "outside")


def _latent(base, gen, kind):
    """`base` cut to the decoder's latent dimension and placed by `kind`:
    scaled to at most 0.9 r, moved outward from norm r an ulp at a time
    until its computed norm exceeds r, or scaled to norm 1.5 r."""
    z = base[: gen.latent_dim]
    r, norm = gen.latent_radius, float(np.linalg.norm(z))
    if kind == "inside":
        return z * (0.9 / max(norm, 1.0) * r)
    if kind == "outside":
        return z * (1.5 / norm * r)
    z = z * (r / norm)
    while math.sqrt(float(z.dot(z))) <= r:
        z = np.nextafter(z, 2.0 * z)
    return z


def _call(gen, op, z, cot):
    """The call's result, None when it raised, and the class and message of
    the ValueError it raised, if any. Any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return (forward(gen, z) if op == "forward" else backward(gen, z, cot)), None
        except DegenerateOutput:
            return None, None
        except ValueError as exc:
            return None, (type(exc), str(exc))


@PROPERTY_SETTINGS
@given(case=call_sequence())
def test_kept_decode_is_invisible(case):
    gens, seed, kinds, calls = case
    stream = NormalStream(seed, stream=0)
    bases = [stream.normals(4) for _ in kinds]
    pools = [[_latent(base, gen, kind) for base, kind in zip(bases, kinds)] for gen in gens]
    cots = [stream.normals(gen.output_dim) for gen in gens]
    for g, i, op in calls:
        gen, z, cot = gens[g], pools[g][i], cots[g]
        if op == "write":
            z[:] = _latent(stream.normals(4), gen, kinds[i])
            continue
        out, refused = _call(gen, op, z, cot)
        fresh_out, fresh_refused = _call(dataclasses.replace(gen), op, z, cot)
        assert refused == fresh_refused
        assert (refused is not None) == (kinds[i] == "outside")
        assert (out is None) == (fresh_out is None)
        if out is not None:
            assert out.tobytes() == fresh_out.tobytes()
            out[:] = np.nan  # the caller's own array
        cot[:] = stream.normals(gen.output_dim)
