"""End-to-end acceptance checks, one test per numbered item in the README.

Each test prints a single ``acceptance NN name: PASS/FAIL`` line with the
measured quantities (run pytest with ``-s`` to see the lines for passing
tests; for failing tests the same line appears in the captured output).
Tolerances and protocol constants are pinned here on purpose: these are the
package's exit criteria, not unit tests, so nothing is mocked and every
check runs the real pipeline end to end.

Check 06 is expected to fail: for the diagonal-covariance construction the
plain and generalized leading directions nearly coincide (mean alignment
0.997 at n = 64), so a solver that ignores the covariance estimate skips
its estimation noise without giving up any signal, and no covariance-aware
method can beat it at these sample sizes. The check asserts the stated
ordering anyway rather than weakening it; the failure message carries the
measured means.
"""

from __future__ import annotations

import math
import time

import numpy as np

from oracles import det_poly_roots, finite_difference_gradient, random_definite_pair

from gepflow.cli import main as cli_main
from gepflow.generative import (
    LatentProjectionConfig,
    backward,
    forward,
    project_to_range,
    random_mlp,
    random_subspace,
    subspace_containing,
    subspace_project,
)
from gepflow.harness import (
    SweepSpec,
    fit_loglog_slope,
    plateau_index,
    run_sweep,
)
from gepflow.linalg import MatrixPair, generalized_eig, spectral_norm
from gepflow.problems import gen_spiked
from gepflow.rng import NormalStream
from gepflow.solvers import SolverConfig, prfm, rifle
from gepflow.theory import compute_conditions, run_lemma_suites


def _line(num: int, name: str, ok: bool, detail: str = "") -> str:
    tag = "PASS" if ok else "FAIL"
    msg = f"acceptance {num:02d} {name}: {tag}" + (f"  ({detail})" if detail else "")
    print(msg)
    return msg


def _nonneg_unit(stream: NormalStream, n: int) -> np.ndarray:
    v = np.abs(stream.unit_vector(n))
    return v / float(np.linalg.norm(v))


def test_01_dense_eigensolver_matches_oracles():
    """200 random definite pairs (n <= 8): residuals, B-orthonormality, and
    agreement with determinant-root bisection for n <= 3, all within 1e-8,
    in under 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_res = 0.0  # residual relative to its per-eigenpair bound
    worst_orth = 0.0
    worst_det = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a, b = random_definite_pair(rng, n)
        spec = generalized_eig(MatrixPair(a=a, b=b))
        na, nb = spectral_norm(a), spectral_norm(b)
        for j, lam in enumerate(spec.eigenvalues):
            v = spec.eigenvectors[:, j]
            res = float(np.linalg.norm(a @ v - lam * (b @ v)))
            worst_res = max(worst_res, res / (1e-8 * (na + abs(lam) * nb)))
        gram = spec.eigenvectors.T @ b @ spec.eigenvectors
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(n)))))
        if n <= 3:
            roots = det_poly_roots(a, b, points=10_001)
            assert len(roots) == n, "determinant scan missed a root"
            diff = np.sort(spec.eigenvalues) - np.array(roots)
            worst_det = max(worst_det, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1.0 and worst_orth <= 1e-8 and worst_det <= 1e-8 and elapsed < 5.0
    msg = _line(
        1,
        "dense-eigensolver-oracles",
        ok,
        f"residual/bound {worst_res:.2e}, orth {worst_orth:.2e}, "
        f"det-roots {worst_det:.2e}, {elapsed:.1f}s",
    )
    assert ok, msg


def test_02_spiked_population_spectrum():
    """A = 4vv' + I with B = I at n = 64 has leading eigenvalue 5 and a flat
    unit bulk, each within 1e-9."""
    stream = NormalStream(2, stream=0)
    v = _nonneg_unit(stream, 64)
    spec = generalized_eig(MatrixPair(a=4.0 * np.outer(v, v) + np.eye(64), b=np.eye(64)))
    lead_err = abs(float(spec.eigenvalues[0]) - 5.0)
    bulk_err = float(np.max(np.abs(spec.eigenvalues[1:] - 1.0)))
    ok = lead_err <= 1e-9 and bulk_err <= 1e-9
    msg = _line(
        2,
        "spiked-population-spectrum",
        ok,
        f"lead err {lead_err:.2e}, bulk err {bulk_err:.2e}",
    )
    assert ok, msg


def test_03_noiseless_fixed_point_is_stationary():
    """Started at the true direction on the population pair, the projected
    flow stays within 1e-9 of it for all 50 iterations."""
    stream = NormalStream(2, stream=0)
    v = _nonneg_unit(stream, 64)
    pair = MatrixPair(a=4.0 * np.outer(v, v) + np.eye(64), b=np.eye(64))
    p = subspace_containing(v, 8, seed=3)
    cfg = SolverConfig(step_size=7 / 32, max_iters=50, stop_tol=None, init=v)
    _, trace = prfm(pair.a, pair.b, p, cfg, v_star=v)
    worst = max(row.dist for row in trace.rows)
    ok = trace.iterations_run == 50 and worst <= 1e-9
    msg = _line(
        3,
        "noiseless-fixed-point",
        ok,
        f"worst drift {worst:.2e} over {trace.iterations_run} iters",
    )
    assert ok, msg


def test_04_monitored_convergence_under_valid_step():
    """Spiked instance n = 128, m = 2000 with a truth-containing 8-dim
    subspace prior: gammas report as 7/8 with both step conditions
    satisfied, the truth-distance decreases until its plateau, and the final
    alignment reaches 0.95 within 50 iterations and 5 s."""
    start = time.perf_counter()
    n = 128
    stream = NormalStream(42, stream=0)
    v = _nonneg_unit(stream, n)
    inst = gen_spiked(v, 2000, seed=43)
    u0 = np.ones(n) / math.sqrt(n)

    cond = compute_conditions(inst.truth.pair, 7 / 32, u0)
    gammas_ok = abs(cond.gamma1 - 7 / 8) <= 1e-12 and abs(cond.gamma2 - 7 / 8) <= 1e-12
    flags_ok = cond.step_sum_ok and cond.step_floor_ok and cond.nu0_positive

    p = subspace_containing(v, 8, seed=44)
    cfg = SolverConfig(step_size=7 / 32, max_iters=50, stop_tol=None, init=u0)
    est, trace = prfm(inst.a_hat, inst.b_hat, p, cfg, v_star=v)
    dists = [row.dist for row in trace.rows]
    plat = plateau_index(dists)
    mono_ok = plat >= 1 and all(
        dists[t + 1] <= dists[t] + 1e-7 for t in range(plat)
    )
    progressed = dists[plat] < dists[0]
    final_cos = abs(float(est @ v))
    elapsed = time.perf_counter() - start

    ok = (
        gammas_ok
        and flags_ok
        and mono_ok
        and progressed
        and final_cos >= 0.95
        and trace.iterations_run <= 50
        and elapsed < 5.0
    )
    msg = _line(
        4,
        "monitored-convergence",
        ok,
        f"gamma1 {cond.gamma1:.4f}, gamma2 {cond.gamma2:.4f}, "
        f"step-sum {cond.step_sum_ok}, step-floor {cond.step_floor_ok}, "
        f"plateau at t={plat}, final |cos| {final_cos:.4f}, {elapsed:.2f}s",
    )
    assert ok, msg


def test_05_error_rate_scales_with_sample_count():
    """Median signed distance of the projected flow over 20 trials per m in
    {250..4000} (n = 128, 8-dim subspace prior) fits a log-log slope in
    [-0.65, -0.35], within 5 minutes."""
    start = time.perf_counter()
    spec = SweepSpec(
        kind="spiked",
        m_values=(250, 500, 1000, 2000, 4000),
        n=128,
        solvers=("prfm",),
        trials=20,
        prior={"prior": "subspace", "k": 8},
    )
    rows = run_sweep(spec)
    assert all(r.status == "ok" for r in rows)
    medians = [
        float(np.median([r.signed_dist_min for r in rows if r.m == m]))
        for m in spec.m_values
    ]
    slope, _, r2 = fit_loglog_slope(zip(spec.m_values, medians))
    elapsed = time.perf_counter() - start
    ok = -0.65 <= slope <= -0.35 and elapsed < 300.0
    msg = _line(
        5,
        "sample-rate-slope",
        ok,
        f"slope {slope:.3f}, r^2 {r2:.3f}, medians "
        + "/".join(f"{v:.3f}" for v in medians)
        + f", {elapsed:.1f}s",
    )
    assert ok, msg


def test_06_diag_b_baseline_ordering():
    """Diagonal-covariance instances, n = 64, m in {100, 200, 300}, 20
    trials: the projected flow's mean |cos| should meet or beat the
    covariance-blind power baseline at every m, and both should beat the
    truncation baseline at s = 20 on the dense truth.

    The second clause holds; the first is structurally false for this
    construction (see the module docstring) and the assert is expected to
    fail with the measured means.
    """
    spec = SweepSpec(
        kind="diag_b",
        m_values=(100, 200, 300),
        n=64,
        solvers=("prfm", "ppower", "rifle"),
        trials=20,
        prior={"prior": "subspace", "k": 8},
        s=20,
    )
    rows = run_sweep(spec)
    assert all(r.status == "ok" for r in rows)
    mean = {
        (solver, m): float(
            np.mean(
                [r.abs_cos_sim for r in rows if r.solver == solver and r.m == m]
            )
        )
        for solver in spec.solvers
        for m in spec.m_values
    }
    beats_rifle = all(
        mean[(solver, m)] > mean[("rifle", m)]
        for solver in ("prfm", "ppower")
        for m in spec.m_values
    )
    flow_ge_power = all(
        mean[("prfm", m)] >= mean[("ppower", m)] for m in spec.m_values
    )
    detail = ", ".join(
        f"m={m}: prfm {mean[('prfm', m)]:.3f} / ppower {mean[('ppower', m)]:.3f}"
        f" / rifle {mean[('rifle', m)]:.3f}"
        for m in spec.m_values
    )
    msg = _line(6, "diag-b-baseline-ordering", beats_rifle and flow_ge_power, detail)
    assert beats_rifle, msg
    assert flow_ge_power, msg


def test_07_sparse_support_recovery():
    """Planted 5-sparse truth, n = 50, m = 1000: the truncation solver at
    s = 5 recovers the exact support with |cos| >= 0.9 in at least 18 of 20
    trials."""
    wins = 0
    for trial in range(20):
        stream = NormalStream(1000 + trial, stream=0)
        support = np.sort(np.argsort(stream.normals(50))[:5])
        v = np.zeros(50)
        # entries bounded away from zero so the support is identifiable
        v[support] = np.abs(stream.normals(5)) + 0.5
        v /= np.linalg.norm(v)
        inst = gen_spiked(v, 1000, seed=2000 + trial)
        cfg = SolverConfig(step_size=7 / 32, max_iters=300, stop_tol=1e-9)
        est, _ = rifle(inst.a_hat, inst.b_hat, 5, 35 / 32, cfg, v_star=v)
        got = np.sort(np.nonzero(est)[0])
        if np.array_equal(got, support) and abs(float(est @ v)) >= 0.9:
            wins += 1
    ok = wins >= 18
    msg = _line(7, "sparse-support-recovery", ok, f"{wins}/20 exact recoveries")
    assert ok, msg


def test_08_inequality_suites_pass_in_bulk():
    """All three randomized inequality suites run 10^4 draws with zero
    failures at 1e-9 slack, in under 30 s."""
    start = time.perf_counter()
    results = run_lemma_suites(draws=10_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        all(r.failures == 0 for r in results)
        and all(r.draws >= 9_900 for r in results)
        and elapsed < 30.0
    )
    msg = _line(
        8,
        "inequality-suites",
        ok,
        ", ".join(f"{r.name} {r.failures}/{r.draws}" for r in results)
        + f", {elapsed:.1f}s",
    )
    assert ok, msg


def test_09_iterative_range_projection_matches_closed_form():
    """Latent-space descent projection onto an 8-dim subspace range (100
    targets, 3 restarts, 100 steps, lr 0.1) matches the closed-form
    orthogonal projection to cosine 0.999 in at least 95 cases."""
    gen = random_subspace(64, 8, seed=1)
    stream = NormalStream(2, stream=0)
    hits = 0
    worst = 1.0
    for i in range(100):
        x = stream.normals(64)
        cfg = LatentProjectionConfig(
            steps=100, learning_rate=0.1, restarts=3, seed=300 + i
        )
        found = project_to_range(gen, x, cfg).point
        exact = subspace_project(gen, x)
        denom = float(np.linalg.norm(found) * np.linalg.norm(exact))
        cos = float(found @ exact) / denom if denom > 1e-12 else 0.0
        worst = min(worst, cos)
        hits += cos >= 0.999
    ok = hits >= 95
    msg = _line(
        9,
        "range-projection-equivalence",
        ok,
        f"{hits}/100 at cos >= 0.999, worst {worst:.5f}",
    )
    assert ok, msg


def test_10_cross_term_noise_halves_per_doubling():
    """max |s1' E s2| over 50 x 50 random range points shrinks per
    m-doubling by a factor within [0.7, 1.3]/sqrt(2) (median over 10
    seeds) across m in {500, 1000, 2000, 4000}."""
    n, k = 64, 8
    m_values = (500, 1000, 2000, 4000)
    ratios = []
    for seed in range(10):
        stream = NormalStream(seed, stream=7)
        v = _nonneg_unit(stream, n)
        a_pop = 4.0 * np.outer(v, v) + np.eye(n)
        gen = random_subspace(n, k, seed=seed + 100)

        def points(src: NormalStream) -> np.ndarray:
            pts = []
            for _ in range(50):
                x = forward(gen, src.normals(k) * 0.5)
                pts.append(x / float(np.linalg.norm(x)))
            return np.array(pts)

        s1 = points(NormalStream(seed, stream=8))
        s2 = points(NormalStream(seed, stream=9))
        maxima = []
        for m in m_values:
            inst = gen_spiked(v, m, seed=(seed << 20) + m)
            e = inst.a_hat - a_pop
            maxima.append(float(np.max(np.abs(s1 @ e @ s2.T))))
        ratios.append([maxima[i + 1] / maxima[i] for i in range(len(m_values) - 1)])
    med = np.median(np.array(ratios), axis=0)
    lo, hi = 0.7 / math.sqrt(2), 1.3 / math.sqrt(2)
    ok = bool(np.all((med >= lo) & (med <= hi)))
    msg = _line(
        10,
        "cross-term-scaling",
        ok,
        "medians " + "/".join(f"{r:.3f}" for r in med) + f" in [{lo:.3f}, {hi:.3f}]",
    )
    assert ok, msg


def test_11_vjp_matches_finite_differences():
    """Vector-Jacobian products of random decoder networks agree with
    central finite differences to 1e-4 relative on 100 configurations."""
    stream = NormalStream(200, stream=0)
    worst_rel = 0.0
    checked = 0
    cfg_i = 0
    while checked < 100:
        cfg_i += 1
        lat_d = 2 + (cfg_i % 3)
        out_d = lat_d + 2 + (cfg_i % 6)
        hidden = tuple(lat_d + 2 for _ in range(cfg_i % 3))
        act = ("relu", "sigmoid")[cfg_i % 2]
        gen = random_mlp(out_d, lat_d, hidden=hidden, activation=act, seed=300 + cfg_i)
        z = stream.ball_point(lat_d, 0.8 * gen.latent_radius)
        if act == "relu":
            # redraw when any pre-activation sits within 1e-3 of a kink,
            # where central differences straddle the nondifferentiability
            h, near_kink = z, False
            for layer in gen.layers:
                pre = layer.weight @ h + layer.bias
                if layer.activation == "relu" and np.min(np.abs(pre)) < 1e-3:
                    near_kink = True
                    break
                h = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
            if near_kink:
                continue
        cot = stream.normals(out_d)
        grad = backward(gen, z, cot)
        fd = finite_difference_gradient(lambda t: float(forward(gen, t) @ cot), z)
        rel = float(np.linalg.norm(grad - fd)) / max(float(np.linalg.norm(fd)), 1e-8)
        worst_rel = max(worst_rel, rel)
        checked += 1
    ok = worst_rel <= 1e-4 and checked == 100
    msg = _line(
        11,
        "vjp-finite-difference",
        ok,
        f"worst relative error {worst_rel:.2e} over {checked} configs",
    )
    assert ok, msg


def test_12_sweep_output_is_byte_stable_across_jobs(tmp_path):
    """Rerunning the three experiment sweeps (monitored convergence, rate
    curve, baseline ordering) with identical seeds yields byte-identical
    CSVs at --jobs 1 and --jobs 3."""
    configs = {
        "convergence": [
            "--kind", "spiked", "--n", "128", "--m-values", "2000",
            "--solvers", "prfm", "--trials", "20",
            "--prior", "subspace", "--k", "8",
        ],
        "rate": [
            "--kind", "spiked", "--n", "128",
            "--m-values", "250,500,1000,2000,4000",
            "--solvers", "prfm", "--trials", "20",
            "--prior", "subspace", "--k", "8",
        ],
        "ordering": [
            "--kind", "diag_b", "--n", "64", "--m-values", "100,200,300",
            "--solvers", "prfm,ppower,rifle", "--trials", "20",
            "--prior", "subspace", "--k", "8", "--s", "20",
        ],
    }
    stable = {}
    for name, flags in configs.items():
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"{name}-jobs{jobs}.csv"
            rc = cli_main(
                ["sweep", *flags, "--seed", "0", "--timing", "zero",
                 "--jobs", jobs, "--out", str(out)]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        stable[name] = outputs[0] == outputs[1] and len(outputs[0]) > 0
    ok = all(stable.values())
    msg = _line(
        12,
        "byte-stable-sweeps",
        ok,
        ", ".join(f"{k} {'stable' if v else 'DIFFERS'}" for k, v in stable.items()),
    )
    assert ok, msg
