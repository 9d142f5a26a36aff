"""Property tests for the dense eigensolvers.

These check `sym_eig` and `generalized_eig` by their defining properties,
not against another eigensolver: eigen-residuals (the bound of acceptance
check 01), orthonormality, descending order, the sign convention, and the
leading-vector scaling. Inputs are random symmetric A and B = M M^T + I
with n in 1..12, given to the solvers in both C and Fortran memory order.

The solver and range-projection hot loops call ndarray.dot where they once
used @, on the premise that both give the same bytes; the last property
checks that premise for the layouts those loops use.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gepflow.linalg import MatrixPair, generalized_eig, spectral_norm, sym_eig

ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def symmetric(draw, n=None):
    n = draw(st.integers(1, 12)) if n is None else n
    x = draw(arrays(np.float64, (n, n), elements=ENTRIES))
    return (x + x.T) / 2.0


@st.composite
def definite_pair(draw):
    n = draw(st.integers(1, 12))
    a = draw(symmetric(n))
    m = draw(arrays(np.float64, (n, n), elements=ENTRIES))
    return a, m @ m.T + np.eye(n)


def _assert_signs(vectors: np.ndarray) -> None:
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    assert np.all(peaks > 0.0)


@PROPERTY_SETTINGS
@given(s=symmetric(), order=st.sampled_from("CF"))
def test_sym_eig_properties(s, order):
    n = s.shape[0]
    w, v = sym_eig(np.array(s, order=order))
    assert w.shape == (n,) and v.shape == (n, n)
    assert np.all(np.diff(w) <= 0.0)
    scale = spectral_norm(s)
    assert np.linalg.norm(s @ v - v * w, axis=0).max() <= 1e-10 * scale
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
    _assert_signs(v)


@PROPERTY_SETTINGS
@given(ab=definite_pair(), order=st.sampled_from("CF"))
def test_generalized_eig_properties(ab, order):
    a, b = ab
    n = a.shape[0]
    spec = generalized_eig(MatrixPair(np.array(a, order=order), np.array(b, order=order)))
    lam, vecs = spec.eigenvalues, spec.eigenvectors
    assert np.all(np.diff(lam) <= 0.0)
    na, nb = spectral_norm(a), spectral_norm(b)
    residuals = np.linalg.norm(a @ vecs - (b @ vecs) * lam, axis=0)
    assert np.all(residuals <= 1e-8 * (na + np.abs(lam) * nb))
    assert np.max(np.abs(vecs.T @ b @ vecs - np.eye(n))) <= 1e-8
    _assert_signs(vecs)
    np.testing.assert_allclose(spec.leading_unit, spec.scale_d * vecs[:, 0], rtol=0, atol=1e-15)
    assert abs(np.linalg.norm(spec.leading_unit) - 1.0) <= 1e-12
    assert spec.gap == (lam[0] - lam[1] if n > 1 else np.inf)


@st.composite
def product_operands(draw):
    """A float64 matrix (C order, F order, or the transpose view of a C
    array, as in `backward`) with a vector to multiply and a second vector
    for the inner product; each vector contiguous or strided."""
    rows, cols = draw(st.integers(1, 130)), draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    layout = draw(st.sampled_from(("C", "F", "T")))
    if layout == "T":
        m = (rng.standard_normal((cols, rows)) * scale).T
    else:
        m = np.array(rng.standard_normal((rows, cols)) * scale, order=layout)
    vectors = []
    for _ in range(2):
        step = draw(st.sampled_from((1, 2, 3)))
        vectors.append(rng.standard_normal(cols * step)[::step])
    return m, vectors[0], vectors[1]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ops=product_operands())
def test_dot_method_matches_matmul_bytes(ops):
    m, v, w = ops
    assert m.dot(v).tobytes() == (m @ v).tobytes()
    assert np.float64(v.dot(w)).tobytes() == np.float64(v @ w).tobytes()
