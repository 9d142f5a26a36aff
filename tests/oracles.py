"""Independent test oracles.

These deliberately avoid the package's own numerics. The package's dense
eigensolver is itself numpy/LAPACK, so comparing the two checks little; the
routes that stay independent of it are sign-change bisection on the
determinant (here), the characteristic-polynomial roots frozen in
test_linalg.py, and the eigen-residual and B-orthonormality checks, which
test a solution by its defining equations. `reference_rayleigh_quotient`
is the generalized quotient with its denominator guard, `reference_flow`
restates the three iterative solvers from their update rules alone,
`reference_restart_winner` restates the restart tie rule,
`reference_compressed_solve` is the leading direction of a pair restricted
to a subspace, the limit a subspace-prior flow converges to,
`reference_draws` restates the Philox/Box-Muller contract of `gepflow.rng`
in one unchunked pass, `reference_project_to_range` restates the latent
Adam descent of the range prior with its decoder's forward and backward
passes inline, `reference_lemma_checks` / `reference_lemma_suites`
restate the three inequality checkers and the randomized suite draw by
draw, `reference_instance_draws` restates the three instance generators'
row-block arithmetic on whole matrices, and `reference_loglog_fit` is the
rate fit's least-squares line written out from its centered sums.
`exact_solve` is the dense solve's leading direction with a gap guard, the
target the iterative solvers are scored against, and
`lipschitz_upper_bound` is the product-of-layer-norms bound on a decoder's
raw map.
"""

from __future__ import annotations

import math

import numpy as np

from gepflow.errors import (
    AllRestartsDegenerate,
    DegenerateGap,
    DegenerateOutput,
    DegenerateProjection,
    DenominatorNonPositive,
    NonPositiveRho,
    ZeroVector,
)
from gepflow.generative import MIN_NORM_DEFAULT, SubspaceGenerator
from gepflow.linalg import MatrixPair, generalized_eig
from gepflow.rng import NormalStream
from gepflow.theory import LEMMA_SLACK


def det_poly_roots(a: np.ndarray, b: np.ndarray, *, points: int = 200_001) -> list[float]:
    """All real roots of det(a - lam * b) for a definite pair, ascending.

    Scans a bracket that provably contains every generalized eigenvalue,
    locates sign changes of the determinant, and bisects each to ~1e-13
    absolute. Assumes simple roots (generic random pairs); callers should
    filter out near-multiple spectra before relying on it.
    """
    bw = np.linalg.eigvalsh(b)
    radius = float(np.linalg.norm(a, 2)) / float(bw[0]) + 1.0
    grid = np.linspace(-radius, radius, points)
    vals = np.linalg.det(a[None] - grid[:, None, None] * b[None])
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(vals[i])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = float(np.linalg.det(a - mid * b))
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo < 1e-13 * max(1.0, abs(mid)):
                break
        roots.append(0.5 * (lo + hi))
    # Grid zeros that the sign test skips (exact hits) are vanishingly rare
    # for random pairs; include them anyway for robustness.
    for i in np.nonzero(sign == 0)[0]:
        roots.append(float(grid[i]))
    return sorted(roots)


def random_definite_pair(
    rng: np.random.Generator, n: int, *, min_gap: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Random (A, B) with B = MM^T + I; optionally enforce eigenvalue gaps.

    The gap filter uses numpy's eigensolver (oracle side) so bisection-based
    comparisons stay away from near-multiple roots.
    """
    while True:
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        m = rng.standard_normal((n, n))
        b = m @ m.T + np.eye(n)
        if min_gap == 0.0:
            return a, b
        low = np.linalg.cholesky(b)
        c = np.linalg.solve(low, np.linalg.solve(low, a).T)
        w = np.sort(np.linalg.eigvalsh((c + c.T) / 2.0))
        if n == 1 or np.min(np.diff(w)) > min_gap:
            return a, b


def reference_rayleigh_quotient(a: np.ndarray, b: np.ndarray, u) -> float:
    """Generalized Rayleigh quotient (u' a u) / (u' b u).

    Refuses |u' b u| <= 1e-12 * ||u||^2 * ||b||_F; the Frobenius norm bounds
    the spectral norm from above, so the guard is marginally conservative.
    """
    v = np.asarray(u, dtype=np.float64).reshape(-1)
    den = float(v @ b @ v)
    floor = 1e-12 * float(v @ v) * float(np.linalg.norm(b))
    if abs(den) <= floor:
        raise ValueError(f"|u' b u| = {abs(den):.6g} <= {floor:.6g}")
    return float(v @ a @ v) / den


def exact_solve(pair: MatrixPair) -> np.ndarray:
    """Dense-oracle leading generalized eigenvector, unit-normalized.

    Refuses near-degenerate leading gaps, where "the" leading direction is
    not well defined.
    """
    spectrum = generalized_eig(pair)
    if spectrum.gap <= 1e-10:
        raise DegenerateGap(f"leading gap {spectrum.gap:.3e} <= 1e-10")
    return spectrum.leading_unit


#: Lipschitz constant of each activation (sigmoid' peaks at 1/4).
_ACT_LIPSCHITZ = {"relu": 1.0, "sigmoid": 0.25, "identity": 1.0}


def lipschitz_upper_bound(gen) -> float:
    """Product-of-layer-norms Lipschitz bound on the raw (pre-norm) map."""
    if isinstance(gen, SubspaceGenerator):
        return 1.0  # orthonormal columns: exactly norm-preserving
    bound = 1.0
    for layer in gen.layers:
        bound *= float(np.linalg.norm(layer.weight, 2)) * _ACT_LIPSCHITZ[layer.activation]
    return bound


def finite_difference_gradient(f, z: np.ndarray, *, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    g = np.zeros_like(z, dtype=float)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def _reference_projection(prior: tuple, x: np.ndarray) -> np.ndarray:
    """Closed-form projection onto ("sphere",), ("sparse", s) or
    ("subspace", orthonormal basis); ties in |x| keep the lowest index."""
    if prior[0] == "sphere":
        norm = np.linalg.norm(x)
        if norm <= 1e-12:
            raise ZeroVector("zero vector")
        return x / norm
    if prior[0] == "sparse":
        keep = sorted(range(x.shape[0]), key=lambda i: (-abs(x[i]), i))[: prior[1]]
        out = np.zeros(x.shape[0])
        out[keep] = x[keep]
        norm = np.linalg.norm(out)
        if norm <= 1e-12:
            raise ZeroVector("nothing left after truncation")
        return out / norm
    basis = prior[1]
    coeff = basis.T @ x
    norm = np.linalg.norm(coeff)
    if norm <= 1e-12:
        raise DegenerateProjection("orthogonal to the subspace")
    return basis @ (coeff / norm)


def reference_flow(
    solver: str,
    a: np.ndarray,
    b: np.ndarray | None,
    u0: np.ndarray,
    prior: tuple,
    *,
    step_size: float,
    max_iters: int,
    stop_tol: float | None,
    eta_prime: float | None = None,
    floor: float = 1e-10,
    v_star: np.ndarray | None = None,
    cycle_stop: bool = True,
    compressed: bool = True,
):
    """prfm, rifle or ppower written straight from their update rules.

    prfm:   u <- P(u + eta (A u - rho B u)),        rho = u'Au / u'Bu
    rifle:  u <- P_s(u + (eta'/rho)(A u - rho B u)), P_s = ("sparse", s)
    ppower: u <- P(A u),                             rho = u'Au

    Every use of A u or B u is a fresh product and every norm is
    np.linalg.norm. Returns (u, iterations, rows, stop_reason) with rows
    the (t, rho, cos_sim, dist) of each visited iterate, the final one
    included; raises the package's error class for each failure.

    Under a ("subspace", Q) prior, prfm and ppower take their first step as
    above and then, with compressed=True, run in Q's coordinates: c = Q'u_1
    and, with A_k = Q'AQ and B_k = Q'BQ built column by column as Q'(A q_j),
    prfm:   c <- y / ||y||, y = c + eta (A_k c - rho B_k c), rho = c'A_k c / c'B_k c
    ppower: c <- A_k c / ||A_k c||,                         rho = c'A_k c
    where ||y|| <= 1e-12 raises DegenerateProjection and ||A_k c|| <= 1e-12
    ZeroVector. Rows are taken on Q c, as is the final vector, whose quotient
    uses A and B. Each step's movement is ||c_{t+1} - c_t||, and a distance
    to the start u_0 is ||Q c - u_0||. compressed=False keeps the
    n-dimensional update throughout.

    With stop_tol set, the run stops as "converged" once
    ||u_{t+1} - u_t|| <= stop_tol, and as "cycled" once both u_{t+1} and u_t
    are in orbit: u_k is when ||u_k - u_{k-2}|| <= stop_tol and
    ||u_k - u_{k-1}|| > 1e3 stop_tol. A cycled run returns u_{t+1} when
    max_iters - (t+1) is even, else u_t. cycle_stop=False leaves out the
    cycled stop.
    """
    basis = prior[1] if compressed and prior[0] == "subspace" and solver != "rifle" else None
    a_full, b_full = a, b

    def rho_at(u, t):
        if solver == "ppower":
            return float(u @ (a @ u))
        den = float(u @ (b @ u))
        if den <= floor:
            raise DenominatorNonPositive(t, den)
        return float(u @ (a @ u)) / den

    def lifted(u):
        return basis @ u if switched else u

    def row(t, rho, u):
        if v_star is None:
            return (t, rho, None, None)
        return (t, rho, float(u @ v_star), float(np.linalg.norm(u - v_star)))

    def gap(i, j):
        if switched and j == 0:  # an iterate in Q's coordinates against the start
            return float(np.linalg.norm(basis @ path[i] - path[0]))
        return float(np.linalg.norm(path[i] - path[j]))

    def in_orbit(k):
        return k >= 2 and gap(k, k - 2) <= stop_tol and gap(k, k - 1) > 1e3 * stop_tol

    def unit(x):
        norm = np.linalg.norm(x)
        if norm <= 1e-12:
            raise DegenerateProjection("orthogonal to the subspace")
        return x / norm

    u = np.array(u0, dtype=np.float64)
    path = [u]
    switched = False
    rows, iterations, stop_reason = [], 0, "max_iters"
    for t in range(max_iters):
        if t == 1 and basis is not None:
            qt = np.ascontiguousarray(basis.T)
            a = np.column_stack([qt @ (a_full @ q) for q in qt])
            b = None if b_full is None else np.column_stack([qt @ (b_full @ q) for q in qt])
            u = path[1] = basis.T @ u
            switched = True
        rho = rho_at(u, t)
        if solver == "prfm":
            target = u + step_size * (a @ u - rho * (b @ u))
        elif solver == "rifle":
            if rho <= floor:
                raise NonPositiveRho(t, rho)
            target = u + (eta_prime / rho) * (a @ u - rho * (b @ u))
        else:
            if np.linalg.norm(a @ u) <= 1e-12:
                raise ZeroVector(f"A u vanished at iteration {t}")
            target = a @ u
        rows.append(row(t, rho, lifted(u)))
        u_next = unit(target) if switched else _reference_projection(prior, target)
        iterations = t + 1
        moved = float(np.linalg.norm(u_next - u))
        if stop_tol is not None and moved <= stop_tol:
            u = u_next
            stop_reason = "converged"
            break
        path.append(u_next)
        if cycle_stop and stop_tol is not None and in_orbit(t + 1) and in_orbit(t):
            if (max_iters - iterations) % 2 == 0:
                u = u_next
            stop_reason = "cycled"
            break
        u = u_next
    u = lifted(u)
    a, b = a_full, b_full
    rows.append(row(iterations, rho_at(u, iterations), u))
    return u, iterations, rows, stop_reason


def reference_restart_winner(objectives, rtol: float = 1e-12) -> int:
    """Index of the restart `run_with_restarts` keeps, from the successful
    runs' (restart index, final quotient) pairs in index order: the lowest
    index whose quotient lies within rtol * max(|best|, 1) of the best."""
    best = max(value for _, value in objectives)
    band = rtol * max(abs(best), 1.0)
    return min(j for j, value in objectives if best - value <= band)


def reference_compressed_solve(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unit leading generalized eigenvector of (a, b) restricted to span(q),
    lifted to R^n: the Rayleigh-Ritz pair (q'aq, q'bq) is whitened by the
    Cholesky factor L of q'bq, C = L^-1 (q'aq) L^-T is solved by
    np.linalg.eigh, and the top vector y gives q L^-T y. With b the identity
    this is the top eigenvector of q'aq, ppower's limit under the prior."""
    ak = q.T @ a @ q
    bk = q.T @ b @ q
    low = np.linalg.cholesky((bk + bk.T) / 2.0)
    half = np.linalg.solve(low, (ak + ak.T) / 2.0)
    c = np.linalg.solve(low, half.T)
    _, vecs = np.linalg.eigh((c + c.T) / 2.0)
    x = q @ np.linalg.solve(low.T, vecs[:, -1])
    return x / np.linalg.norm(x)


def reference_draws(seed: int, stream: int, calls) -> list[np.ndarray]:
    """Outputs of a sequence of ("normals" | "uniforms", count) draws.

    Restates the rng module's contract over one block of Philox 4x64 words
    keyed by (seed mod 2^64, stream mod 2^64): a uniform takes one word w
    as (w >> 11) 2^-53; normals take 2 ceil(c / 2) words in pairs,
    u1 = ((w_even >> 11) + 1) 2^-53, u2 = (w_odd >> 11) 2^-53,
    z_even = sqrt(-2 ln u1) cos(2 pi u2), z_odd = sqrt(-2 ln u1) sin(2 pi u2).
    """
    sizes = [c if kind == "uniforms" else 2 * ((c + 1) // 2) for kind, c in calls]
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(sum(sizes))
    shift, scale = np.uint64(11), 2.0**-53
    out, pos = [], 0
    for (kind, count), size in zip(calls, sizes):
        w = words[pos : pos + size]
        pos += size
        if kind == "uniforms":
            out.append((w >> shift) * scale)
            continue
        u1 = ((w[0::2] >> shift) + np.uint64(1)) * scale
        u2 = (w[1::2] >> shift) * scale
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(size)
        z[0::2] = r * np.cos(2.0 * np.pi * u2)
        z[1::2] = r * np.sin(2.0 * np.pi * u2)
        out.append(z[:count])
    return out


def reference_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """The first `count` normals of NormalStream(seed, stream), per the contract."""
    return reference_draws(seed, stream, [("normals", count)])[0]


def reference_instance_draws(kind: str, v: np.ndarray, m: int, seed: int, rows=None):
    """(A_hat, B_hat) of a spiked, diag_b or phase_retrieval instance.

    Restates the generators' sampling with whole m x n matrices, drawn by
    `reference_draws` from stream 0 in the documented order: spiked and
    diag_b draw gamma, then Z, then W (diag_b scales W's first column by
    sqrt 2) and take x = 2 gamma v' + Z; phase retrieval draws W, then G,
    and takes the rows g_i |g_i'v|. Each Gram is the in-order sum of
    X[lo:hi]' X[lo:hi] over row blocks of `rows` rows, by default the
    documented rows(n) = max(2, 2^15 // n rounded down to even), then / m,
    then symmetrized; rows=m gives the full-matrix Gram X'X / m. The
    products g_i'v are taken per block too, because the last bits of a
    BLAS matrix-vector product depend on its row count.
    """
    n = v.shape[0]
    if rows is None:
        rows = max(2, (2**15 // n) & ~1)
    blocks = [slice(lo, lo + rows) for lo in range(0, m, rows)]

    def gram(x):
        g = np.zeros((n, n))
        for b in blocks:
            g += x[b].T @ x[b]
        g /= m
        return (g + g.T) / 2.0

    if kind == "phase_retrieval":
        w, g = (d.reshape(m, n) for d in reference_draws(seed, 0, [("normals", m * n)] * 2))
        y = np.concatenate([g[b] @ v for b in blocks]) ** 2
        return gram(g * np.sqrt(y)[:, None]), gram(w)
    calls = [("normals", m), ("normals", m * n), ("normals", m * n)]
    gamma, z, w = reference_draws(seed, 0, calls)
    x = 2.0 * np.outer(gamma, v) + z.reshape(m, n)
    w = w.reshape(m, n)
    if kind == "diag_b":
        w[:, 0] *= math.sqrt(2.0)
    return gram(x), gram(w)


def reference_raw_decode(gen, z):
    """The decoder's raw (pre-norm) map, written with @: the latent clamped
    to the radius-r ball, then the basis product for a subspace decoder or
    the MLP's layers. Returns (raw output, per-layer (pre, post) activations;
    empty for a subspace decoder)."""
    zc = np.array(z, dtype=np.float64)
    norm = math.sqrt(float(zc @ zc))
    if norm > gen.latent_radius:
        zc = zc * (gen.latent_radius / norm)
    if isinstance(gen, SubspaceGenerator):
        return gen.basis @ zc, []
    h, cache = zc, []
    for layer in gen.layers:
        pre = layer.weight @ h + layer.bias
        if layer.activation == "relu":
            post = np.maximum(pre, 0.0)
        elif layer.activation == "sigmoid":
            post = 1.0 / (1.0 + np.exp(-pre))
        else:
            post = pre
        cache.append((pre, post))
        h = post
    return h, cache


def reference_project_to_range(gen, x, cfg):
    """`project_to_range` restated restart by restart, for byte comparison.

    Every product is written with @; each random start is a fresh
    NormalStream(cfg.seed, stream=restart).ball_point(k, 0.9 r); the
    decoder's forward and backward passes are inline (`reference_raw_decode`,
    then the output divided by its norm, ReLU's subgradient at 0 taken as
    0); Adam runs with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8. The best
    candidate is replaced after every objective evaluation whose distance is
    not >= the best's. Returns (point, latent, distance, restart_index);
    raises AllRestartsDegenerate when every restart dies with
    DegenerateOutput before recording a candidate.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    subspace = isinstance(gen, SubspaceGenerator)
    r = gen.latent_radius

    def objective_and_grad(z):
        raw, cache = reference_raw_decode(gen, z)
        raw_norm = math.sqrt(float(raw @ raw))
        if not MIN_NORM_DEFAULT < raw_norm < math.inf:
            raise DegenerateOutput("raw output norm at or below the floor, or not finite")
        point = raw / raw_norm
        diff = point - x
        grad = (diff - float(point @ diff) * point) / raw_norm
        if subspace:
            grad = gen.basis.T @ grad
        else:
            for layer, (pre, post) in zip(reversed(gen.layers), reversed(cache)):
                if layer.activation == "relu":
                    grad = grad * (pre > 0.0).astype(np.float64)
                elif layer.activation == "sigmoid":
                    grad = grad * (post * (1.0 - post))
                grad = layer.weight.T @ grad
        return float(diff @ diff), 2.0 * grad, point

    def candidate(best, point, z, value, restart):
        distance = math.sqrt(max(value, 0.0))
        if best is not None and distance >= best[2]:
            return best
        return (point.copy(), z.copy(), distance, restart)

    b1, b2, eps = 0.9, 0.999, 1e-8
    best = None
    for restart in range(cfg.restarts):
        z = NormalStream(cfg.seed, stream=restart).ball_point(gen.latent_dim, 0.9 * r)
        m = np.zeros(z.shape[0])
        v = np.zeros(z.shape[0])
        try:
            value, grad, point = objective_and_grad(z)
        except DegenerateOutput:
            continue
        best = candidate(best, point, z, value, restart)
        for step in range(1, cfg.steps + 1):
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            m_hat = m / (1.0 - b1**step)
            v_hat = v / (1.0 - b2**step)
            z = z - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            norm = math.sqrt(float(z @ z))
            if norm > r:
                z = z * (r / norm)
            try:
                value, grad, point = objective_and_grad(z)
            except DegenerateOutput:
                break
            best = candidate(best, point, z, value, restart)
    if best is None:
        raise AllRestartsDegenerate("every restart hit a degenerate output")
    return best



def reference_lemma_checks(pair, spec, rho, eta, x, y, xu):
    """The fields of check_lemma_sandwich(pair, rho, x),
    check_lemma_inner(pair, rho, eta, x, y) and check_lemma_coefficient(pair,
    xu) for a pair whose spectrum is `spec`, in dataclass field order,
    written with @ and np.linalg.norm: ((lower, middle, upper, holds),
    (lhs, rhs, holds), (lhs, rhs, holds))."""
    lam = spec.eigenvalues
    l1, l2, ln = float(lam[0]), float(lam[1]), float(lam[-1])
    b_eigs = np.linalg.eigvalsh(pair.b)
    b_min, b_max = float(b_eigs[0]), float(b_eigs[-1])
    v1 = spec.eigenvectors[:, 0]
    f1 = float(v1 @ (pair.b @ x))
    g1 = float(v1 @ (pair.b @ y))
    step = rho * (pair.b @ x) - pair.a @ x

    nsq = float(x @ x)
    middle = float(x @ step)
    lower = (rho - l2) * b_min * nsq - (l1 - l2) * f1**2
    upper = (rho - ln) * b_max * nsq - (l1 - ln) * f1**2
    sandwich = (lower, middle, upper, (lower - LEMMA_SLACK) <= middle <= (upper + LEMMA_SLACK))

    tau1 = eta * (rho - l2) * b_min
    tau2 = eta * (rho - ln) * b_max
    lhs = eta * float(y @ step)
    rhs = (
        ((tau1 + tau2) / 2.0) * float(x @ y)
        - ((tau2 - tau1) / 4.0) * (float(x @ x) + float(y @ y))
        - eta * (l1 - l2) * f1 * g1
    )
    inner = (lhs, rhs, lhs >= rhs - LEMMA_SLACK)

    assert abs(float(np.linalg.norm(xu)) - 1.0) <= 1e-10
    nu = float(xu @ spec.leading_unit)
    h = xu - spec.leading_unit
    lhs = (float(v1 @ (pair.b @ xu)) - spec.scale_d) ** 2
    rhs = (b_max - (1.0 + nu) * b_min / 2.0) * float(h @ h)
    coefficient = (lhs, rhs, lhs <= rhs + LEMMA_SLACK)
    return sandwich, inner, coefficient


def reference_lemma_suites(draws=10_000, n_max=8, seed=0, draws_per_pair=20):
    """run_lemma_suites restated with one sequence of stream calls per draw.

    Pair i is NormalStream(seed, stream=i): A = (G + G')/2 and
    B = sym(M M' + I) from two n x n matrices, n = 2 + i mod (n_max - 1);
    pairs with gap <= 1e-8 are skipped. Each draw then calls uniforms(1),
    normals(n), normals(n), uniforms(1) for frac, x, y and eta/0.5, and
    is scored by `reference_lemma_checks` (the coefficient check only when
    x can be aligned to v*). Returns (name, draws, failures, worst slack)
    per inequality.
    """
    tally = {name: [0, 0, math.inf] for name in ("sandwich", "inner", "coefficient")}

    def record(name, holds, *slacks):
        tally[name][0] += 1
        tally[name][1] += 0 if holds else 1
        tally[name][2] = min(tally[name][2], *slacks)

    done = 0
    for i in range(-(-draws // draws_per_pair)):
        if done >= draws:
            break
        stream = NormalStream(seed, stream=i)
        n = 2 + i % (n_max - 1)
        g = stream.matrix(n, n)
        m = stream.matrix(n, n)
        b = m @ m.T + np.eye(n)
        pair = MatrixPair(a=(g + g.T) / 2.0, b=(b + b.T) / 2.0)
        spec = generalized_eig(pair)
        lam = spec.eigenvalues
        if float(lam[0] - lam[1]) <= 1e-8:
            continue
        todo = min(draws_per_pair, draws - done)
        for _ in range(todo):
            frac = stream.uniforms(1)[0]
            rho = float(lam[1]) + max(frac, 1e-12) * float(lam[0] - lam[1])
            x = stream.normals(n)
            y = stream.normals(n)
            eta = 0.5 * stream.uniforms(1)[0]
            xu = x / float(np.linalg.norm(x))
            if float(xu @ spec.leading_unit) < 0:
                xu = -xu
            sandwich, inner, coefficient = reference_lemma_checks(
                pair, spec, rho, eta, x, y, xu
            )
            lower, middle, upper, holds = sandwich
            record("sandwich", holds, middle - lower, upper - middle)
            record("inner", inner[2], inner[0] - inner[1])
            if float(xu @ spec.leading_unit) > 0:
                record("coefficient", coefficient[2], coefficient[1] - coefficient[0])
        done += todo
    return [(name, *t) for name, t in tally.items()]


def reference_loglog_fit(pairs) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) of the least-squares line through
    (log m, log error), from plain centered sums; r_squared is 1.0 when
    every log error is equal."""
    xs = [math.log(m) for m, _ in pairs]
    ys = [math.log(e) for _, e in pairs]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    slope = sxy / sxx
    r_squared = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, my - slope * mx, r_squared
