"""Independent test oracles.

These deliberately avoid the package's own numerics. The package's dense
eigensolver is itself numpy/LAPACK, so comparing the two checks little; the
routes that stay independent of it are sign-change bisection on the
determinant (here), the characteristic-polynomial roots frozen in
test_linalg.py, and the eigen-residual and B-orthonormality checks, which
test a solution by its defining equations.
"""

from __future__ import annotations

import numpy as np


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
    vals = np.array([np.linalg.det(a - lam * b) for lam in grid])
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
