"""Property test of the shared solver loop against `oracles.reference_flow`.

prfm, rifle and ppower must reproduce, bit for bit, the oracle that
restates their update rules with fresh matvecs at every use: the same final
vector, final quotient, iteration count, stop reason and trace rows, or the
same error class. A one-restart `run_with_restarts` must report that final
quotient as its objective. Inputs come from seeded NormalStream draws: n in
2..16, sphere, sparse and subspace priors, stop_tol None and 1e-9, and
positive- or negative-definite B.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gepflow.errors import AllRunsFailed, DenominatorNonPositive, GepflowError
from gepflow.generative import random_subspace
from gepflow.priors import SparseProjector, SphereProjector
from gepflow.rng import NormalStream
from gepflow.solvers import SolverConfig, ppower, prfm, rifle, run_with_restarts

from oracles import reference_flow

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def flow_case(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(2, 16))
    solver = draw(st.sampled_from(("prfm", "rifle", "ppower")))
    prior = "sparse" if solver == "rifle" else draw(
        st.sampled_from(("sphere", "sparse", "subspace"))
    )
    return dict(
        seed=seed,
        n=n,
        solver=solver,
        prior=prior,
        level=draw(st.integers(1, n)),
        a_kind=draw(st.sampled_from(("spiked", "psd", "indefinite"))),
        negative_b=draw(st.booleans()),
        random_init=draw(st.booleans()),
        stop_tol=draw(st.sampled_from((None, 1e-9))),
        max_iters=draw(st.integers(1, 200)),
        step_size=draw(st.sampled_from((0.05, 7.0 / 32.0, 0.6))),
    )


def _inputs(case):
    n, seed = case["n"], case["seed"]
    g = NormalStream(seed, stream=0).matrix(n, n)
    if case["a_kind"] == "spiked":
        v = np.abs(NormalStream(seed, stream=1).unit_vector(n))
        a = 4.0 * np.outer(v, v) + np.eye(n)
    elif case["a_kind"] == "psd":
        a = g @ g.T / n
    else:
        a = (g + g.T) / 2.0
    m = NormalStream(seed, stream=2).matrix(n, n)
    b = m @ m.T / n + np.eye(n)
    if case["negative_b"]:
        b = -b
    u0 = NormalStream(seed, stream=3).unit_vector(n) if case["random_init"] else None
    v_star = NormalStream(seed, stream=4).unit_vector(n)
    if case["prior"] == "sphere":
        projector, prior = SphereProjector(), ("sphere",)
    elif case["prior"] == "sparse":
        projector, prior = SparseProjector(case["level"]), ("sparse", case["level"])
    else:
        projector = random_subspace(n, case["level"], seed=seed)
        prior = ("subspace", projector.basis)
    return a, b, u0, v_star, projector, prior


def _run(case, a, b, projector, cfg, v_star):
    if case["solver"] == "prfm":
        return prfm(a, b, projector, cfg, v_star=v_star)
    if case["solver"] == "rifle":
        return rifle(a, b, case["level"], 35.0 / 32.0, cfg, v_star=v_star)
    return ppower(a, projector, cfg, v_star=v_star)


@PROPERTY_SETTINGS
@given(flow_case())
def test_solvers_match_reference_flow(case):
    a, b, u0, v_star, projector, prior = _inputs(case)
    start = np.ones(case["n"]) / np.sqrt(case["n"]) if u0 is None else u0
    try:
        expected = reference_flow(
            case["solver"],
            a,
            b,
            start,
            prior,
            step_size=case["step_size"],
            max_iters=case["max_iters"],
            stop_tol=case["stop_tol"],
            eta_prime=35.0 / 32.0,
            v_star=v_star,
        )
    except GepflowError as exc:
        expected = type(exc)

    for record in (True, False):
        cfg = SolverConfig(
            step_size=case["step_size"],
            max_iters=case["max_iters"],
            init=u0,
            stop_tol=case["stop_tol"],
            record_trace=record,
        )
        try:
            u, trace = _run(case, a, b, projector, cfg, v_star)
        except GepflowError as exc:
            assert type(exc) is expected
            continue
        assert not isinstance(expected, type), f"expected {expected.__name__}"
        ref_u, ref_iterations, ref_rows, ref_stop = expected
        assert np.array_equal(u, ref_u) and np.array_equal(trace.final_vector, ref_u)
        assert trace.final_rho.hex() == ref_rows[-1][1].hex()
        assert trace.iterations_run == ref_iterations
        assert trace.stop_reason == ref_stop
        if record:
            assert [(r.t, r.rho, r.cos_sim, r.dist) for r in trace.rows] == ref_rows
        else:
            assert trace.rows == ()

    try:  # cfg is the loop's last, record_trace=False
        result = run_with_restarts(
            case["solver"], a, b, cfg, 1, case["seed"], p=projector,
            s=case["level"], eta_prime=35.0 / 32.0, v_star=v_star,
        )
    except AllRunsFailed:
        assert isinstance(expected, type)
    else:
        assert result.objective is result.trace.final_rho
        assert result.objective.hex() == expected[2][-1][1].hex()

    if case["negative_b"] and case["solver"] != "ppower":
        assert expected is DenominatorNonPositive


def _case(**kw):
    return dict(negative_b=False, stop_tol=1e-9, a_kind="spiked", **kw)


@PROPERTY_SETTINGS
@given(flow_case())
# Runs that break the bound when one held update is enough to stop.
@example(_case(seed=2016855498, n=15, solver="prfm", prior="subspace", level=15,
               random_init=True, max_iters=118, step_size=0.6))
@example(_case(seed=1915244129, n=11, solver="prfm", prior="sphere", level=3,
               random_init=False, max_iters=192, step_size=0.6))
def test_cycled_run_ends_near_its_max_iters_point(case):
    """A run stopped as cycled returns a point within
    ((max_iters - iterations_run) / 2 + 1) * stop_tol of the point the same
    run reaches without the cycled stop."""
    case = dict(case, stop_tol=1e-9)
    a, b, u0, v_star, projector, prior = _inputs(case)
    cfg = SolverConfig(
        step_size=case["step_size"], max_iters=case["max_iters"], init=u0,
        stop_tol=case["stop_tol"], record_trace=False,
    )
    try:
        u, trace = _run(case, a, b, projector, cfg, v_star)
    except GepflowError:
        return
    if trace.stop_reason != "cycled":
        return
    start = np.ones(case["n"]) / np.sqrt(case["n"]) if u0 is None else u0
    uncut = reference_flow(
        case["solver"], a, b, start, prior, step_size=case["step_size"],
        max_iters=case["max_iters"], stop_tol=case["stop_tol"],
        eta_prime=35.0 / 32.0, cycle_stop=False,
    )[0]
    left = case["max_iters"] - trace.iterations_run
    assert np.linalg.norm(u - uncut) <= (left / 2 + 1) * case["stop_tol"]
