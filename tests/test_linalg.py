"""Dense linear algebra: eigensolvers, Cholesky, spectral norm, serialization,
and the one zero-norm floor that every normalizing map of the package shares.

Reference routes: numpy/LAPACK, exact characteristic-polynomial roots
(frozen from a rational-arithmetic computation), and determinant bisection.
"""

import json
import math
import re

import numpy as np
import pytest

from gepflow.errors import DegenerateProjection, NotPositiveDefinite, ZeroVector
from gepflow.generative import SubspaceGenerator, subspace_containing, subspace_project
from gepflow.harness import cosine_similarity
from gepflow.linalg import (
    _ZERO_NORM,
    MatrixPair,
    _norm,
    as_sym_matrix,
    cholesky,
    generalized_eig,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
    sym_eig,
)
from gepflow.priors import SphereProjector, project, sparse_truncate
from oracles import det_poly_roots, random_definite_pair

# Frozen oracle: symmetric 4x4 drawn from NormalStream(424242, stream=0); the
# expected eigenvalues are the real roots of its characteristic polynomial,
# computed once in exact rational arithmetic (sympy real_roots) and pinned.
ORACLE_4X4 = np.array(
    [
        [0.1629702144316254, 0.04195304436706093, -0.5800511800633819, 0.7431729504328142],
        [0.04195304436706093, 0.68169992505439, 0.6250771824877192, 0.49683743338763464],
        [-0.5800511800633819, 0.6250771824877192, -0.7292516094265766, 0.21958974928272454],
        [0.7431729504328142, 0.49683743338763464, 0.21958974928272454, 0.8071872724833719],
    ]
)
ORACLE_4X4_EIGS = [
    1.5570950115295652,
    0.8669411834424423,
    -0.23886421150769238,
    -1.2625661809215045,
]

class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(v, np.eye(3))

    def test_diagonal(self):
        w, v = sym_eig(np.diag([5.0, 1.0, 1.0]))
        np.testing.assert_allclose(w, [5.0, 1.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-14)

    def test_charpoly_oracle_4x4(self):
        w, _ = sym_eig(ORACLE_4X4)
        np.testing.assert_allclose(w, ORACLE_4X4_EIGS, atol=1e-11)

    def test_against_numpy_random(self):
        rng = np.random.default_rng(101)
        for n in (1, 2, 3, 5, 8, 13, 16):
            for _ in range(8):
                a = rng.standard_normal((n, n))
                s = (a + a.T) / 2.0
                w, v = sym_eig(s)
                np.testing.assert_allclose(
                    w, np.sort(np.linalg.eigvalsh(s))[::-1], atol=1e-10
                )
                scale = max(1.0, float(np.linalg.norm(s, 2)))
                assert np.linalg.norm(s @ v - v * w) <= 1e-10 * scale
                assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10

    def test_sign_convention(self):
        # Each column's largest-magnitude entry must come out positive.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        s = (a + a.T) / 2.0
        _, v = sym_eig(s)
        # generalized_eig sign-fixes the C-ordered output of the back-solve;
        # n = 8 is where an in-place negate of a strided column view of a
        # C-ordered matrix goes wrong on numpy 2.4.
        a8, b8 = random_definite_pair(rng, 8)
        spec = generalized_eig(MatrixPair(a8, b8))
        for vecs in (v, spec.eigenvectors):
            for j in range(vecs.shape[1]):
                col = vecs[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(4)), np.eye(4))

    def test_diagonal_roots(self):
        np.testing.assert_allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        b = m @ m.T + np.eye(5)
        low = cholesky(b)
        assert np.all(np.diag(low) > 0)
        np.testing.assert_allclose(low @ low.T, b, rtol=1e-10, atol=1e-10)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, -1.0]))

    def test_near_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, 1e-30]))


class TestGeneralizedEig:
    def test_spiked_population_spectrum(self):
        # A = 4 v v^T + I against B = I: top eigenvalue 5, the rest exactly 1.
        rng = np.random.default_rng(11)
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        a = 4.0 * np.outer(v, v) + np.eye(16)
        spec = generalized_eig(MatrixPair((a + a.T) / 2.0, np.eye(16)))
        assert abs(spec.eigenvalues[0] - 5.0) < 1e-9
        np.testing.assert_allclose(spec.eigenvalues[1:], np.ones(15), atol=1e-9)
        assert abs(abs(spec.leading_unit @ v) - 1.0) < 1e-9
        assert abs(spec.gap - 4.0) < 1e-9

    def test_equal_pair_all_ones(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        b = m @ m.T + np.eye(6)
        spec = generalized_eig(MatrixPair(b, b))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(6), atol=1e-10)

    def test_bisection_oracle_small(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            for _ in range(10):
                a, b = random_definite_pair(rng, n, min_gap=1e-3)
                spec = generalized_eig(MatrixPair(a, b))
                roots = det_poly_roots(a, b, points=10_001)
                assert len(roots) == n
                np.testing.assert_allclose(
                    spec.eigenvalues, roots[::-1], atol=1e-8
                )

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 8, 9, 16):
            for _ in range(8):
                a, b = random_definite_pair(rng, n)
                pair = MatrixPair(a, b)
                spec = generalized_eig(pair)
                na, nb = spectral_norm(a), spectral_norm(b)
                for i in range(n):
                    lam = spec.eigenvalues[i]
                    vi = spec.eigenvectors[:, i]
                    res = np.linalg.norm(a @ vi - lam * (b @ vi))
                    assert res <= 1e-8 * (na + abs(lam) * nb)
                gram = spec.eigenvectors.T @ b @ spec.eigenvectors
                assert np.max(np.abs(gram - np.eye(n))) <= 1e-8

    def test_leading_unit_and_scale(self):
        rng = np.random.default_rng(29)
        a, b = random_definite_pair(rng, 7)
        spec = generalized_eig(MatrixPair(a, b))
        assert abs(np.linalg.norm(spec.leading_unit) - 1.0) < 1e-12
        v1 = spec.eigenvectors[:, 0]
        np.testing.assert_allclose(spec.leading_unit, spec.scale_d * v1, atol=1e-12)
        assert abs(spec.scale_d - 1.0 / np.linalg.norm(v1)) < 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(31)
        a, b = random_definite_pair(rng, 8)
        s1 = generalized_eig(MatrixPair(a, b))
        s2 = generalized_eig(MatrixPair(a, b))
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestSpectralNorm:
    def test_identity(self):
        assert abs(spectral_norm(np.eye(5)) - 1.0) < 1e-14

    def test_max_absolute(self):
        assert abs(spectral_norm(np.diag([-7.0, 3.0])) - 7.0) < 1e-12

    def test_against_numpy(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            s = (a + a.T) / 2.0
            expected = float(np.max(np.abs(np.linalg.eigvalsh(s))))
            assert abs(spectral_norm(s) - expected) <= 1e-8 * expected


class TestValidationAndSerialization:
    def test_as_sym_matrix_tolerance(self):
        a = np.array([[1.0, 1.0 + 1e-15], [1.0, 2.0]])
        as_sym_matrix(a)  # within relative tolerance
        with pytest.raises(ValueError):
            as_sym_matrix(np.array([[1.0, 1.1], [1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_as_sym_matrix_refuses_non_finite(self, bad, where):
        a = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]])
        a[where] = bad  # off the diagonal this also breaks the symmetry
        with pytest.raises(ValueError, match="m has non-finite entries"):
            as_sym_matrix(a, name="m")
        asym = a.copy()
        asym[2, 0] = 7.0  # asymmetric as well: non-finite is still reported
        with pytest.raises(ValueError, match="m has non-finite entries"):
            as_sym_matrix(asym, name="m")

    def test_matrix_pair_validates(self):
        with pytest.raises(ValueError):
            MatrixPair(np.eye(3), np.eye(4))
        with pytest.raises(NotPositiveDefinite):
            MatrixPair(np.eye(2), np.diag([1.0, -2.0]))

    def test_b_extremes_are_eigvalsh_extremes(self):
        rng = np.random.default_rng(15)
        for n in (1, 2, 5, 9):
            a, b = random_definite_pair(rng, n)
            pair = MatrixPair(a, b)
            w = np.linalg.eigvalsh(pair.b)
            assert pair.b_extremes == (float(w[0]), float(w[-1]))
            assert pair.b_extremes is pair.b_extremes  # solved once, then cached

    def test_spectrum_is_the_cached_generalized_eig(self):
        rng = np.random.default_rng(16)
        for n in (1, 2, 5, 9):
            a, b = random_definite_pair(rng, n)
            pair = MatrixPair(a, b)
            assert pair.spectrum is pair.spectrum  # solved once, then cached
            expected = generalized_eig(pair)
            for name in ("eigenvalues", "eigenvectors", "leading_unit"):
                got = getattr(pair.spectrum, name)
                assert got.tobytes() == getattr(expected, name).tobytes(), (n, name)
            assert pair.spectrum.scale_d == expected.scale_d
            assert pair.spectrum.gap == expected.gap

    def test_json_round_trip_bit_stable(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 5))
        s = (a + a.T) / 2.0
        text = json.dumps(matrix_to_json(s))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, s)

    def test_matrix_json_shape_check(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})

    @pytest.mark.parametrize(
        "rows",
        [[["1", "0"], [False, True]], [[1.0, 0.0], [0.0, True]], [[1.0, None], [None, 1.0]],
         [[1.0, 0.0], "01"]],
        ids=["strings-and-booleans", "one-boolean", "null", "string-row"],
    )
    def test_matrix_json_rows_must_be_numbers(self, rows):
        # np.array(rows, dtype=float64) used to read the first as the identity
        with pytest.raises(ValueError, match="matrix JSON 'rows' must be an array of numbers"):
            matrix_from_json({"dim": 2, "rows": rows})

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2"])
    def test_matrix_json_dim_must_be_an_integer(self, dim):
        # int() used to read 2.5 and 2.0 as 2, true as 1 and "2" as 2
        with pytest.raises(ValueError, match="matrix JSON 'dim' must be an integer"):
            matrix_from_json({"dim": dim, "rows": [[1.0, 0.0], [0.0, 1.0]]})


#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(lambda: as_sym_matrix(np.ones((2, 3)), name="a_hat"), ValueError,
                 "a_hat must be square, got shape (2, 3)", id="not-square"),
    pytest.param(lambda: as_sym_matrix(np.zeros((0, 0))), ValueError,
                 "matrix must have dim >= 1", id="empty"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


_PLANE = SubspaceGenerator(np.eye(4)[:, :2], 1.0)
_E0 = np.array([1.0, 0.0, 0.0, 0.0])

#: Each map that normalizes through `linalg._unit` (or, for
#: `cosine_similarity`, checks against its floor): (call on a vector x of
#: norm |x_0|, its error class and whole message for a zero-norm x, and what
#: it refuses x for past the floor, or None when it returns a unit vector).
ZERO_FLOOR_SITES = {
    "sphere project": (lambda x: project(SphereProjector(), x), ZeroVector,
                       "cannot normalize a (near-)zero vector", None),
    "sparse_truncate": (lambda x: sparse_truncate(x, 1), ZeroVector,
                        "nothing left after sparse truncation", None),
    "unit_coordinates": (lambda x: _PLANE.unit_coordinates(x[:2]), DegenerateProjection,
                         "target is orthogonal to the subspace", None),
    "subspace_project": (lambda x: subspace_project(_PLANE, x), DegenerateProjection,
                         "target is orthogonal to the subspace", None),
    "subspace_containing": (lambda x: subspace_containing(x, 2).basis[:, 0], ValueError,
                            "vector must be nonzero", None),
    # takes unit vectors only, so past the zero floor its 1e-8 unit tolerance refuses
    "cosine_similarity": (lambda x: cosine_similarity(_E0, x), ZeroVector, "u has zero norm",
                          "u must be unit within 1e-8, got norm 1e-11"),
}


@pytest.mark.parametrize("site", sorted(ZERO_FLOOR_SITES))
@pytest.mark.parametrize("norm", [1e-13, _ZERO_NORM, 1e-11])
def test_every_normalizing_map_shares_the_zero_floor(site, norm):
    """At or below `_ZERO_NORM` each map raises its own error; just above
    it, none does (or only for its own tolerance), whatever the scale."""
    call, error, message, past_floor = ZERO_FLOOR_SITES[site]
    x = norm * _E0
    assert _norm(x) == norm
    if norm <= _ZERO_NORM:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(x)
    elif past_floor is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(past_floor)}$"):
            call(x)
    else:
        out = call(x)
        assert abs(_norm(out) - 1.0) <= 1e-15
        assert out[0] > 0.0
