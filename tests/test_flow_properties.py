"""Property tests of the shared solver loop and the restart rule.

prfm, rifle and ppower must reproduce, bit for bit, the oracle that
restates their update rules with fresh matvecs at every use: the same final
vector, final quotient, iteration count, stop reason and trace rows, or the
same error class. A one-restart `run_with_restarts` must report that final
quotient as its objective. Inputs come from seeded NormalStream draws: n in
2..16, sphere, sparse and subspace priors, stop_tol None and 1e-9, and
positive- or negative-definite B. Under a subspace prior the oracle's
n-dimensional update is a second route, and the compressed pair's leading
direction (`oracles.reference_compressed_solve`) a third that replays no
iteration. Check 06's prfm winners, rebuilt cell by cell from the
harness's seed layout, are held to that third route too. The restart
winner must not move with last-bit noise in the final quotients, and prfm
must take the same steps on (A + sigma B, B) as on (A, B). Scaling A, or A
and B, by a power of two c scales every product exactly, so prfm (step
eta/c), rifle (eta' unchanged) and ppower must return the same bytes on
the scaled pair, with the final quotient scaled by c or unchanged.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gepflow import harness, solvers
from gepflow.errors import AllRunsFailed, DenominatorNonPositive, GepflowError, ZeroVector
from gepflow.generative import random_subspace, subspace_containing
from gepflow.harness import SweepSpec, cosine_similarity, run_sweep
from gepflow.priors import SparseProjector, SphereProjector, projector_from_spec
from gepflow.problems import gen_diag_b, gen_spiked
from gepflow.rng import NormalStream
from gepflow.solvers import RunTrace, SolverConfig, ppower, prfm, rifle, run_with_restarts
from gepflow.theory import compute_conditions

from oracles import reference_compressed_solve, reference_flow, reference_restart_winner

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


def _case(**kw):
    return dict(negative_b=False, stop_tol=1e-9, a_kind="spiked", **kw)


@PROPERTY_SETTINGS
@given(flow_case())
# Period-2 orbits that the cycled stop catches at stop_tol 0 and 1e-15, where
# the cycle test's prefilter margin, not the tolerance, decides what it skips:
# with no margin the 1e-15 run stops one iteration late.
@example(_case(seed=24, n=7, solver="prfm", prior="subspace", level=3, random_init=False,
               max_iters=200, step_size=0.6) | {"stop_tol": 0.0})
@example(_case(seed=19089, n=6, solver="prfm", prior="subspace", level=6, random_init=True,
               max_iters=200, step_size=0.6) | {"stop_tol": 1e-15})
@example(_case(seed=22, n=13, solver="ppower", prior="sparse", level=5, random_init=False,
               max_iters=200, step_size=0.6) | {"a_kind": "psd", "stop_tol": 0.0})
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

    # the n-dimensional update, the second route under a subspace prior
    if case["prior"] == "subspace" and not isinstance(expected, type) and expected[3] == "converged":
        try:
            full = reference_flow(
                case["solver"], a, b, start, prior, step_size=case["step_size"],
                max_iters=case["max_iters"], stop_tol=case["stop_tol"], compressed=False,
            )
        except GepflowError:
            full = None
        if full is not None and full[3] == "converged":
            assert abs(abs(float(full[0] @ expected[0])) - 1.0) <= 1e-9


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


@st.composite
def compressed_case(draw):
    n = draw(st.integers(6, 24))
    return dict(
        seed=draw(st.integers(0, 2**31 - 1)),
        kind=draw(st.sampled_from(("spiked", "diag_b"))),
        n=n,
        m=draw(st.integers(2 * n, 400)),
        k=draw(st.integers(2, min(8, n))),
        frac=draw(st.floats(0.1, 0.9)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(compressed_case())
def test_converged_subspace_winners_reach_the_compressed_optimum(case):
    """Under a subspace prior with orthonormal basis Q, a converged prfm
    winner is the leading generalized eigenvector of (Q'AQ, Q'BQ) and a
    converged ppower winner the top eigenvector of Q'AQ (the fixed-point
    conditions), to 1e-8 in |cos|. The step lies inside the paper's regime
    for the instance's population pair."""
    v = np.abs(NormalStream(case["seed"], stream=0).unit_vector(case["n"]))
    v /= np.linalg.norm(v)
    generate = gen_spiked if case["kind"] == "spiked" else gen_diag_b
    inst = generate(v, case["m"], seed=case["seed"])
    lam = inst.truth.pair.spectrum.eigenvalues
    b_min, b_max = inst.truth.pair.b_extremes
    g1, g2 = float(lam[0] - lam[1]) * b_min, float(lam[0] - lam[-1]) * b_max
    lo, hi = 3.0 / (3.0 * g1 + g2), 2.0 / (g1 + g2)
    assume(lo < hi)
    eta = lo + case["frac"] * (hi - lo)
    u0 = np.ones(case["n"]) / math.sqrt(case["n"])
    cond = compute_conditions(inst.truth.pair, eta, u0)
    assert cond.step_sum_ok and cond.step_floor_ok
    p = subspace_containing(inst.truth.v_lead, case["k"], seed=case["seed"] + 1)
    cfg = SolverConfig(step_size=eta, max_iters=300, record_trace=False)
    targets = {
        "prfm": reference_compressed_solve(inst.a_hat, inst.b_hat, p.basis),
        "ppower": reference_compressed_solve(inst.a_hat, np.eye(case["n"]), p.basis),
    }
    for solver, target in targets.items():
        result = run_with_restarts(solver, inst.a_hat, inst.b_hat, cfg, 3, case["seed"], p=p)
        if result.trace.stop_reason == "converged":
            assert abs(float(result.estimate @ target)) >= 1.0 - 1e-8


def test_check_06_prfm_winners_reach_the_compressed_optimum():
    """Acceptance check 06's sweep (diag-B, n = 64, m in {100, 200, 300}, 20
    trials, k = 8 subspace prior, base seed 0), replayed cell by cell: the
    cell key from `harness._cell_key`, the truth from key + 1, the instance
    from key, the prior from key + 2 and the restarts from key + 3. Each prfm
    winner's |cos| is the sweep row's, and every converged winner is the
    leading direction of the compressed pair (Q'AQ, Q'BQ) to 1e-8 in |cos|."""
    spec = SweepSpec(
        kind="diag_b", m_values=(100, 200, 300), n=64, solvers=("prfm", "ppower", "rifle"),
        trials=20, prior={"prior": "subspace", "k": 8}, s=20,
    )
    rows = {(r.m, r.trial): r.abs_cos_sim for r in run_sweep(spec) if r.solver == "prfm"}
    stops = {"converged": 0, "cycled": 0, "max_iters": 0}
    for mi, m in enumerate(spec.m_values):
        for trial in range(spec.trials):
            key = harness._cell_key(spec, mi, trial)
            v = np.abs(NormalStream(key + 1, stream=0).unit_vector(spec.n))
            inst = gen_diag_b(v / np.linalg.norm(v), m, seed=key)
            truth = inst.truth.v_lead
            p = projector_from_spec(spec.prior, truth=truth, seed=key + 2)
            result = run_with_restarts(
                "prfm", inst.a_hat, inst.b_hat, spec.solver_config, spec.restarts, key + 3, p=p
            )
            assert abs(cosine_similarity(truth, result.estimate)) == rows[(m, trial)]
            stops[result.trace.stop_reason] += 1
            if result.trace.stop_reason == "converged":
                target = reference_compressed_solve(inst.a_hat, inst.b_hat, p.basis)
                assert abs(float(result.estimate @ target)) >= 1.0 - 1e-8, (m, trial)
    print(f"check 06 prfm winners by stop reason: {stops}")


@st.composite
def shift_case(draw):
    n = draw(st.integers(6, 25))
    return dict(
        seed=draw(st.integers(0, 2**31 - 1)),
        kind=draw(st.sampled_from(("spiked", "diag_b"))),
        n=n,
        m=draw(st.integers(2 * n, 200)),
        sigma=draw(st.sampled_from((-2.0, 0.5, 3.0))),
        prior=draw(st.sampled_from(("sphere", "sparse", "subspace"))),
        level=draw(st.integers(2, n)),
    )


#: Where both runs converge, the largest 1 - |cos| and quotient-shift error
#: allowed; over this property's examples the largest seen are 5.6e-16 and 3.6e-15.
SHIFT_TOL = 1e-13


@PROPERTY_SETTINGS
@given(shift_case())
def test_prfm_is_invariant_to_a_spectral_shift(case):
    """(A + sigma B - (rho + sigma) B) u = (A - rho B) u and u'Bu does not
    change, so prfm on (A + sigma B, B) takes the steps it takes on (A, B):
    the same iteration count and stop reason, or the same error, and where
    both converge the same direction with its quotient moved by sigma."""
    v = np.abs(NormalStream(case["seed"], stream=0).unit_vector(case["n"]))
    generate = gen_spiked if case["kind"] == "spiked" else gen_diag_b
    inst = generate(v / np.linalg.norm(v), case["m"], seed=case["seed"])
    a, b, sigma = inst.a_hat, inst.b_hat, case["sigma"]
    if case["prior"] == "sphere":
        p = SphereProjector()
    elif case["prior"] == "sparse":
        p = SparseProjector(case["level"])
    else:
        p = subspace_containing(inst.truth.v_lead, case["level"], seed=case["seed"] + 1)
    cfg = SolverConfig(step_size=7.0 / 32.0, max_iters=300, record_trace=False)
    runs = []
    for pair in ((a, b), (a + sigma * b, b)):
        try:
            runs.append(prfm(*pair, p, cfg))
        except GepflowError as exc:
            runs.append(type(exc))
    if isinstance(runs[0], type) or isinstance(runs[1], type):
        assert runs[0] == runs[1]
        return
    (u, base), (u_shift, shifted) = runs
    assert (shifted.iterations_run, shifted.stop_reason) == (base.iterations_run, base.stop_reason)
    if base.stop_reason == "converged":
        assert 1.0 - abs(float(u @ u_shift)) <= SHIFT_TOL
        assert abs(shifted.final_rho - base.final_rho - sigma) <= SHIFT_TOL


@st.composite
def scale_case(draw):
    n = draw(st.integers(6, 25))
    return dict(
        seed=draw(st.integers(0, 2**31 - 1)),
        kind=draw(st.sampled_from(("spiked", "diag_b"))),
        n=n,
        m=draw(st.integers(2 * n, 200)),
        c=draw(st.sampled_from((4.0, 0.5, 0.125))),
        solver=draw(st.sampled_from(("prfm", "rifle", "ppower"))),
        prior=draw(st.sampled_from(("sphere", "sparse", "subspace"))),
        level=draw(st.integers(2, n)),
    )


def _outcome(solver, *args):
    """The solver's (final vector, trace), or the class of the error it raised."""
    try:
        return solver(*args)
    except GepflowError as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(scale_case())
def test_solvers_are_invariant_to_a_power_of_two_scale(case):
    """With c a power of two, c x rounds to c fl(x) wherever x is a sum,
    product, quotient or square root, so each scaled run below takes the
    steps of the run on (A, B) bit for bit:
    - prfm on (cA, B) with step eta/c: (eta/c)(cAu - (c rho) Bu) = eta (Au - rho Bu);
    - prfm on (cA, cB) with step eta/c: rho is unchanged, and so is the step;
    - rifle on (cA, B) with eta': (eta'/(c rho)) c(Au - rho Bu) is its own step;
    - ppower on cA: every prior's projection divides the scale out.
    Each returns the same final vector, iteration count and stop reason, or
    the same error, with its final quotient c times the original, or the
    original for (cA, cB). A range prior is left out: its latent descent is
    not scale-invariant."""
    v = np.abs(NormalStream(case["seed"], stream=0).unit_vector(case["n"]))
    generate = gen_spiked if case["kind"] == "spiked" else gen_diag_b
    inst = generate(v / np.linalg.norm(v), case["m"], seed=case["seed"])
    a, b, c = inst.a_hat, inst.b_hat, case["c"]
    if case["prior"] == "sphere":
        p = SphereProjector()
    elif case["prior"] == "sparse":
        p = SparseProjector(case["level"])
    else:
        p = subspace_containing(inst.truth.v_lead, case["level"], seed=case["seed"] + 1)
    eta = 7.0 / 32.0
    cfg = SolverConfig(step_size=eta, max_iters=300, record_trace=False)
    scaled_cfg = SolverConfig(step_size=eta / c, max_iters=300, record_trace=False)
    if case["solver"] == "prfm":
        base = _outcome(prfm, a, b, p, cfg)
        scaled = [
            (_outcome(prfm, c * a, b, p, scaled_cfg), c),
            (_outcome(prfm, c * a, c * b, p, scaled_cfg), 1.0),
        ]
    elif case["solver"] == "rifle":
        base = _outcome(rifle, a, b, case["level"], eta, cfg)
        scaled = [(_outcome(rifle, c * a, b, case["level"], eta, cfg), c)]
    else:
        base = _outcome(ppower, a, p, cfg)
        scaled = [(_outcome(ppower, c * a, p, cfg), c)]
    for run, factor in scaled:
        if isinstance(base, type) or isinstance(run, type):
            assert run == base
            continue
        (u, trace), (u_scaled, trace_scaled) = base, run
        assert u_scaled.tobytes() == u.tobytes()
        assert (trace_scaled.iterations_run, trace_scaled.stop_reason) == (
            trace.iterations_run, trace.stop_reason
        )
        assert trace_scaled.final_rho == factor * trace.final_rho


@PROPERTY_SETTINGS
@given(
    st.integers(1, 39).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
            st.integers(1, n),
            st.integers(-6, 6),
            st.integers(0, 2**31 - 1),
        )
    )
)
def test_subspace_containing_keeps_the_vector_as_its_first_column(case):
    """Column 0 of `subspace_containing(v, k)` is +v/||v|| to 1e-12 for signed
    v of any scale: the QR sign fix alone turns it to +v, with no later flip."""
    entries, k, exponent, seed = case
    v = np.array(entries) * 10.0**exponent
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-12)
    basis = subspace_containing(v, k, seed=seed).basis
    assert np.max(np.abs(basis[:, 0] - v / norm)) <= 1e-12


def _bump(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@PROPERTY_SETTINGS
@given(st.data())
def test_restart_winner_ignores_last_bit_noise(data):
    """Restarts whose final quotients tie within 1e-14 of the best, among
    others at least 1e-9 below it and some that fail, go to the lowest tied
    index, as `oracles.reference_restart_winner` restates the rule; moving
    every quotient by up to 8 ulp changes neither winner nor objective."""
    top = data.draw(st.floats(-1e3, 1e3))
    scale = max(abs(top), 1.0)
    kinds = data.draw(st.lists(st.sampled_from(("tie", "below", "fail")), min_size=1, max_size=10))
    assume("tie" in kinds)
    values = [
        top + data.draw(st.floats(-1e-14, 1e-14)) * scale if kind == "tie"
        else top - data.draw(st.floats(1e-9, 1.0)) * scale
        for kind in kinds
    ]
    ulps = data.draw(st.lists(st.integers(-8, 8), min_size=len(kinds), max_size=len(kinds)))
    expected = kinds.index("tie")
    for quotients in (values, [_bump(x, k) for x, k in zip(values, ulps)]):
        runs = iter(zip(kinds, quotients))

        def fake_prfm(a, b, p, cfg, v_star=None):
            kind, rho = next(runs)
            if kind == "fail":
                raise ZeroVector("failed on purpose")
            u = np.array([1.0, 0.0])
            return u, RunTrace(rows=(), final_vector=u, final_rho=rho, iterations_run=1,
                               stop_reason="converged")

        with mock.patch.object(solvers, "prfm", fake_prfm):
            result = run_with_restarts("prfm", np.eye(2), np.eye(2), SolverConfig(0.1, 1),
                                       len(kinds), 0, p=SphereProjector())
        ok = [(j, rho) for j, (kind, rho) in enumerate(zip(kinds, quotients)) if kind != "fail"]
        assert result.restart_index == expected == reference_restart_winner(ok)
        assert result.objective == quotients[expected]
        assert len(result.failures) == kinds.count("fail")
