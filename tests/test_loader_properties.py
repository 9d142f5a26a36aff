"""Fuzz properties for the JSON loaders.

Each example takes a well-formed instance bundle or model blob, replaces
one field with a null, a list, a string, an object or NaN, and loads it.
The loader must return a valid object or raise ValueError, which the CLI
reports as one `error:` line; a TypeError, KeyError, IndexError or
AttributeError would escape as a traceback.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gepflow.generative import (
    MlpGenerator,
    SubspaceGenerator,
    model_from_json,
    model_to_json,
    random_mlp,
    random_subspace,
)
from gepflow.problems import ProblemInstance, gen_spiked, instance_from_json, instance_to_json

FUZZ_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

_SCALARS = st.integers(-3, 3) | st.floats()
REPLACEMENTS = st.one_of(
    st.none(),
    st.lists(_SCALARS | st.lists(_SCALARS, max_size=3), max_size=4),
    st.text(max_size=6),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
    st.just(math.nan),
)

_MATRIX_PATHS = [(*prefix, key) for prefix in (("a_hat",), ("b_hat",), ("truth", "a"),
                                               ("truth", "b")) for key in ("dim", "rows")]
INSTANCE_PATHS = [
    *[(key,) for key in ("kind", "m", "seed", "a_hat", "b_hat", "truth")],
    *[("truth", key) for key in ("a", "b", "v_star", "lambda1", "lambda2", "v_lead")],
    *_MATRIX_PATHS,
]
MLP_PATHS = [
    *[(key,) for key in ("latent_dim", "output_dim", "latent_radius", "layers")],
    *[("layers", i, key) for i in (0, 1) for key in ("weight", "bias", "activation")],
]
BASIS_PATHS = [(key,) for key in ("latent_dim", "output_dim", "latent_radius", "basis")]

_BUNDLE = instance_to_json(gen_spiked(np.full(4, 0.5), 12, seed=8))
_MLP = model_to_json(random_mlp(6, 2, hidden=(3,), seed=1))
_BASIS = model_to_json(random_subspace(5, 2, seed=1))


def _replaced(blob: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(blob)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def _is_finite_vector(v, n: int) -> bool:
    return v.shape == (n,) and bool(np.all(np.isfinite(v)))


@pytest.mark.parametrize("path", INSTANCE_PATHS, ids="/".join)
@FUZZ_SETTINGS
@given(value=REPLACEMENTS)
def test_instance_loader_refuses_with_value_error(path, value):
    try:
        inst = instance_from_json(_replaced(_BUNDLE, path, value))
    except ValueError:
        return
    assert isinstance(inst, ProblemInstance)
    if inst.truth is not None:
        n = inst.dim
        assert inst.truth.pair.a.shape == (n, n)
        assert _is_finite_vector(inst.truth.v_star, n)
        assert abs(np.linalg.norm(inst.truth.v_star) - 1.0) <= 1e-12
        assert _is_finite_vector(inst.truth.v_lead, n)


@pytest.mark.parametrize(
    "blob, path",
    [pytest.param(_MLP, p, id="mlp/" + "/".join(map(str, p))) for p in MLP_PATHS]
    + [pytest.param(_BASIS, p, id="basis/" + "/".join(p)) for p in BASIS_PATHS],
)
@FUZZ_SETTINGS
@given(value=REPLACEMENTS)
def test_model_loader_refuses_with_value_error(blob, path, value):
    try:
        gen = model_from_json(_replaced(blob, path, value))
    except ValueError:
        return
    assert isinstance(gen, (MlpGenerator, SubspaceGenerator))
    assert (gen.latent_dim, gen.output_dim) == (blob["latent_dim"], blob["output_dim"])
    assert math.isfinite(gen.latent_radius) and gen.latent_radius > 0
