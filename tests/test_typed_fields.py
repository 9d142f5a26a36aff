"""The config dataclasses refuse a non-integer count when they are built,
and the plain solver functions, the instance generators, `run_lemma_suites`,
`verify_perturbation`, `run_sweep`'s `jobs`, `NormalStream` and the seeded
decoder constructors when they are called. Every real-valued setting that a
command-line flag feeds refuses a bool or a string the same way.

A float, bool or string in an integer field or argument (or a bool or
string in `learning_rate`) used to build, then die later with a TypeError
inside Adam, a slice or `range`, or run silently wrong (`max_iters=True`
was a one-iteration run, `restarts=True` one restart, `seed=2.5` ran
seed 2 and a generator recorded 2.5). Each case here
builds the config and runs the call it feeds in one
`pytest.raises(ValueError)` block, so a TypeError from the run fails the
test. `step_size=True` used to run with a step of 1.0 (and `trace_to_json`
wrote `"step_size": true`), and `step_size="0.5"` died with a TypeError
from the range check.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gepflow.generative import (
    LatentProjectionConfig,
    model_to_json,
    random_mlp,
    random_subspace,
    subspace_containing,
)
from gepflow.harness import SweepSpec, run_sweep
from gepflow.priors import (
    RangeProjector,
    SparseProjector,
    SphereProjector,
    project,
    sparse_truncate,
)
from gepflow.problems import gen_diag_b, gen_phase_retrieval, gen_spiked, verify_perturbation
from gepflow.rng import NormalStream
from gepflow.solvers import SolverConfig, rifle, run_with_restarts, trace_to_json
from gepflow.theory import compute_conditions, run_lemma_suites

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

X = np.arange(6.0)
V = np.full(4, 0.5)
SWEEP = dict(
    kind="spiked", m_values=(20,), n=4, solvers=("prfm",), trials=1, restarts=1, max_iters=2
)


def _solve(**fields):
    cfg = SolverConfig(**{"step_size": 0.1, "max_iters": 5, **fields})
    return run_with_restarts("prfm", np.eye(3), np.eye(3), cfg, 1, 0, p=SphereProjector())


def _range_project(**fields):
    cfg = LatentProjectionConfig(**{"steps": 2, "restarts": 1, **fields})
    return project(RangeProjector(model=random_mlp(6, 2, seed=1), config=cfg), X)


def _sparse_project(s):
    return project(SparseProjector(s=s), X)


def _sweep(**fields):
    if "s" in fields:
        fields["solvers"] = ("rifle",)
    return run_sweep(SweepSpec(**{**SWEEP, **fields}))


def _sweep_m(m_values):
    return _sweep(m_values=(m_values,))


def _sweep_jobs(jobs):
    return run_sweep(SweepSpec(**SWEEP), jobs=jobs, timing="zero")


def _restarts(**args):
    args = {"restarts": 2, "seed": 0, **args}
    cfg = SolverConfig(step_size=0.1, max_iters=5)
    return run_with_restarts("prfm", np.eye(3), np.eye(3), cfg, p=SphereProjector(), **args)


def _rifle(s):
    return rifle(np.eye(6), np.eye(6), s, 1.0, SolverConfig(step_size=0.1, max_iters=5))


def _rifle_restarts(s):
    cfg = SolverConfig(step_size=0.1, max_iters=5)
    return run_with_restarts("rifle", np.eye(6), np.eye(6), cfg, 2, 0, s=s, eta_prime=1.0)


def _truncate(s):
    return sparse_truncate(X, s)


def _generator(gen):
    def run(**args):
        return gen(V, **{"m": 20, "seed": 0, **args})

    run.__name__ = gen.__name__
    return run


GENERATE = [_generator(gen) for gen in (gen_spiked, gen_phase_retrieval, gen_diag_b)]


def _stream(**args):
    return NormalStream(**{"seed": 0, "stream": 0, **args}).normals(3)


def _mlp(**args):
    return random_mlp(**{"output_dim": 6, "latent_dim": 2, "hidden": (3,), "seed": 0, **args})


def _subspace(**args):
    return random_subspace(**{"output_dim": 6, "latent_dim": 2, "seed": 0, **args})


def _containing(**args):
    return subspace_containing(V, **{"latent_dim": 2, "seed": 0, **args})


def _lemmas(**args):
    return run_lemma_suites(**{"draws": 20, "seed": 0, **args})


def _verify(**args):
    return verify_perturbation(gen_spiked(V, 20, 0), **{"set_size": 5, "seed": 0, **args})


#: (field, the call it feeds); every field but learning_rate is an integer.
INTEGER_FIELDS = [
    ("max_iters", _solve),
    ("steps", _range_project),
    ("restarts", _range_project),
    ("seed", _range_project),
    ("s", _sparse_project),
    *((name, _sweep) for name in ("n", "trials", "restarts", "max_iters", "s", "base_seed")),
    ("m_values", _sweep_m),
    ("jobs", _sweep_jobs),
    ("restarts", _restarts),
    ("seed", _restarts),
    ("s", _rifle),
    ("s", _rifle_restarts),
    ("s", _truncate),
    *((name, run) for run in GENERATE for name in ("m", "seed")),
    ("draws", _lemmas),
    ("seed", _lemmas),
    ("set_size", _verify),
    ("seed", _verify),
    *((name, _stream) for name in ("seed", "stream")),
    *((name, _mlp) for name in ("output_dim", "latent_dim", "seed")),
    *((name, _subspace) for name in ("output_dim", "latent_dim", "seed")),
    *((name, _containing) for name in ("latent_dim", "seed")),
]


@pytest.mark.parametrize(
    "run, field, value",
    [
        (_range_project, "steps", 5.5),
        (_range_project, "learning_rate", "0.1"),
        (_range_project, "learning_rate", True),
        (_sparse_project, "s", 2.5),
        (_solve, "max_iters", 2.5),
        (_solve, "max_iters", True),
        (_sweep, "trials", 2.5),
        (_sweep, "n", 6.0),
        (_sweep, "restarts", 2.0),
        (_sweep, "base_seed", True),
        (_sweep, "s", 2.5),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_non_integer_refused_at_construction(run, field, value):
    want = "a real number" if field == "learning_rate" else "an integer"
    with pytest.raises(ValueError, match=f"^{field} must be {want}, got {value!r}"):
        run(**{field: value})


@pytest.mark.parametrize(
    "run, field, value",
    [
        (_restarts, "restarts", 2.5),
        (_restarts, "restarts", True),
        (_restarts, "seed", 1.5),
        (_rifle_restarts, "s", 2.5),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_run_with_restarts_refuses_non_integer_counts(run, field, value):
    # restarts=2.5 died in range(), restarts=True ran one restart
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}"):
        run(**{field: value})


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
def test_rifle_refuses_non_integer_s(value):
    with pytest.raises(ValueError, match=f"^s must be an integer, got {value!r}"):
        _rifle(value)


@pytest.mark.parametrize("value", [1.5, True, "3"], ids=repr)
def test_sparse_truncate_refuses_non_integer_s(value):
    with pytest.raises(ValueError, match=f"^s must be an integer, got {value!r}"):
        _truncate(value)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
def test_sweep_m_values_refuse_non_integers(value):
    with pytest.raises(ValueError, match=f"^m_values must be an integer, got {value!r}"):
        _sweep_m(value)


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
def test_run_sweep_refuses_non_integer_jobs(value):
    # jobs=2.5 ran a pool of max_workers=2.5, jobs=True ran serially and
    # jobs="2" died with a TypeError from the comparison
    with pytest.raises(ValueError, match=f"^jobs must be an integer, got {value!r}"):
        _sweep_jobs(value)


@pytest.mark.parametrize(
    "run, field, value",
    [
        (GENERATE[0], "seed", 2.5),
        (GENERATE[0], "m", 20.0),
        (GENERATE[0], "m", True),
        (_lemmas, "seed", 2.5),
        (_lemmas, "draws", 2.5),
        (_lemmas, "draws", True),
        (_verify, "seed", 2.5),
        (_verify, "set_size", 2.5),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_generator_suite_and_probe_counts_refuse_non_integers(run, field, value):
    # seed=2.5 ran seed 2 (a generator recorded 2.5) and draws=True one
    # draw; m=20.0, m=True, draws=2.5 and set_size=2.5 died with a TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}"):
        run(**{field: value})


def test_numpy_integers_pass():
    spec = SweepSpec(**{**SWEEP, "n": np.int64(4), "trials": np.int32(1), "max_iters": np.int64(2)})
    assert run_sweep(spec, timing="zero") == run_sweep(SweepSpec(**SWEEP), timing="zero")
    a = _solve(max_iters=np.int64(5))
    b = _solve(max_iters=5)
    assert a.estimate.tobytes() == b.estimate.tobytes()
    assert _sparse_project(np.int64(2)).tobytes() == _sparse_project(2).tobytes()
    point = _range_project(steps=np.int64(2), seed=np.uint8(3))
    assert point.tobytes() == _range_project(steps=2, seed=3).tobytes()
    spec = SweepSpec(**{**SWEEP, "m_values": (np.int64(20), np.int32(30))})
    assert spec.m_values == (20, 30) and all(type(m) is int for m in spec.m_values)
    assert run_sweep(spec, timing="zero") == run_sweep(
        SweepSpec(**{**SWEEP, "m_values": (20, 30)}), timing="zero"
    )
    a = _restarts(restarts=np.int64(2), seed=np.uint32(4))
    assert a.estimate.tobytes() == _restarts(restarts=2, seed=4).estimate.tobytes()
    assert _rifle(np.int64(2))[0].tobytes() == _rifle(2)[0].tobytes()
    assert _truncate(np.int8(3)).tobytes() == _truncate(3).tobytes()
    for run in GENERATE:
        a, b = run(m=np.int64(20), seed=np.uint8(3)), run(m=20, seed=3)
        assert a.a_hat.tobytes() == b.a_hat.tobytes() and a.b_hat.tobytes() == b.b_hat.tobytes()
    assert _lemmas(draws=np.int64(20), seed=np.int32(1)) == _lemmas(draws=20, seed=1)
    assert _verify(set_size=np.int64(5), seed=np.int8(2)) == _verify(set_size=5, seed=2)
    assert _sweep_jobs(np.int64(2)) == _sweep_jobs(1)


@pytest.mark.parametrize(
    "run, field, value",
    [
        (_stream, "seed", 1.5),
        (_stream, "stream", 2.7),
        (_mlp, "output_dim", 6.0),
        (_mlp, "latent_dim", 2.0),
        (_mlp, "hidden", (3.0,)),
        (_mlp, "seed", 1.5),
        (_subspace, "output_dim", 6.0),
        (_subspace, "latent_dim", 2.5),
        (_subspace, "seed", True),
        (_containing, "latent_dim", True),
        (_containing, "seed", 1.5),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_streams_and_seeded_decoders_refuse_non_integer_counts(run, field, value):
    # NormalStream(1.5, stream=2.7) drew NormalStream(1, 2)'s values and
    # random_mlp(6, 2, seed=1.5) built the seed-1 model; random_mlp(6, 2.0)
    # and random_subspace(6, 2.5) died inside numpy
    name, shown = ("hidden[0]", value[0]) if field == "hidden" else (field, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got {shown!r}"):
        run(**{field: value})


@pytest.mark.parametrize(
    "run, field, value",
    [
        (_stream, "seed", np.uint64(2**64 - 1)),
        (_stream, "stream", np.int8(-3)),
        (_mlp, "output_dim", np.int64(6)),
        (_mlp, "latent_dim", np.int32(2)),
        (_mlp, "hidden", (np.uint8(3),)),
        (_mlp, "seed", np.int16(5)),
        (_subspace, "output_dim", np.int64(6)),
        (_subspace, "latent_dim", np.uint16(2)),
        (_subspace, "seed", np.int64(7)),
        (_containing, "latent_dim", np.int64(2)),
        (_containing, "seed", np.uint32(9)),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_streams_and_seeded_decoders_take_numpy_integers(run, field, value):
    plain = tuple(int(w) for w in value) if field == "hidden" else int(value)
    a, b = run(**{field: value}), run(**{field: plain})
    if run is _stream:
        assert a.tobytes() == b.tobytes()
    else:
        assert model_to_json(a) == model_to_json(b)


NOT_INTEGERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.text(max_size=4)
)


@PROPERTY_SETTINGS
@given(st.sampled_from(INTEGER_FIELDS), NOT_INTEGERS)
def test_integer_fields_refuse_floats_bools_and_strings(case, value):
    field, run = case
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        run(**{field: value})


@PROPERTY_SETTINGS
@given(st.one_of(st.booleans(), st.text(max_size=4)))
def test_learning_rate_refuses_bools_and_strings(value):
    with pytest.raises(ValueError, match="^learning_rate must be a real number"):
        _range_project(learning_rate=value)


def _rifle_eta(eta_prime):
    return rifle(np.eye(6), np.eye(6), 2, eta_prime, SolverConfig(step_size=0.1, max_iters=5))


def _sweep_eta_prime(eta_prime):
    spec = SweepSpec(**{**SWEEP, "solvers": ("rifle",), "s": 2, "eta_prime": eta_prime})
    return run_sweep(spec, timing="zero")


def _conditions(eta):
    pair = gen_spiked(V, 20, 0).truth.pair
    return compute_conditions(pair, eta, V)


#: (field, the call it feeds) for every real-valued setting a CLI flag feeds.
REAL_FIELDS = [
    ("learning_rate", _range_project),
    *((name, _solve) for name in ("step_size", "denominator_floor", "stop_tol")),
    ("eta_prime", _sweep_eta_prime),
    ("eta_prime", _rifle_eta),
    ("eta", _conditions),
]


@pytest.mark.parametrize("value", [True, "0.5"], ids=repr)
@pytest.mark.parametrize("field, run", REAL_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_real_fields_refuse_bools_and_strings(field, run, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
        run(**{field: value})


@pytest.mark.parametrize(
    "value, plain",
    [(np.float64(0.5), 0.5), (1, 1.0), (Fraction(1, 4), 0.25), (np.float32(0.25), 0.25),
     (Fraction(7, 32), 0.21875)],
    ids=repr,
)
@pytest.mark.parametrize("field, run", REAL_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_real_fields_take_numpy_floats_ints_and_fractions(field, run, value, plain):
    # Each value is stored as its float, so a float32 or a Fraction neither
    # narrows the arithmetic nor reaches the trace JSON.
    a, b = run(**{field: value}), run(**{field: plain})
    if run is _range_project:
        assert a.tobytes() == b.tobytes()
    elif run is _solve:
        assert a.estimate.tobytes() == b.estimate.tobytes()
        cfgs = [SolverConfig(**{"step_size": 0.1, "max_iters": 5, field: v})
                for v in (value, plain)]
        texts = [json.dumps(trace_to_json("prfm", c, r.trace)) for c, r in zip(cfgs, (a, b))]
        assert texts[0] == texts[1]
    elif run is _rifle_eta:
        assert a[0].tobytes() == b[0].tobytes()
    else:
        assert a == b


@pytest.mark.parametrize("value", [np.float32(0.25), Fraction(7, 32), 1], ids=repr)
@pytest.mark.parametrize(
    "field", ["step_size", "denominator_floor", "stop_tol", "eta_prime", "learning_rate"]
)
def test_checked_real_fields_are_stored_as_floats(field, value):
    if field == "eta_prime":
        built = SweepSpec(**SWEEP, eta_prime=value)
    elif field == "learning_rate":
        built = LatentProjectionConfig(learning_rate=value)
    else:
        built = SolverConfig(**{"step_size": 0.1, "max_iters": 5, field: value})
    got = getattr(built, field)
    assert type(got) is float and got == float(value)

