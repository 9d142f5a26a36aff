"""Dense symmetric linear algebra for generalized eigenvalue problems.

Everything here works on plain float64 numpy arrays. Symmetric matrices are
validated by :func:`as_sym_matrix`; the pair (A, B) with B positive definite
is carried by :class:`MatrixPair`; full decompositions are returned as
:class:`GeneralizedSpectrum`.

The dense routines are numpy's LAPACK wrappers (``eigh``, ``cholesky``,
``solve``). The generalized problem is reduced to a symmetric one by
Cholesky whitening (Golub & Van Loan, *Matrix Computations*, section 8.7);
a singular B is refused, never regularized.

Every vector 2-norm in the package is :func:`_norm`'s, and every normalization
that refuses a zero vector is :func:`_unit`'s, at the one floor `_ZERO_NORM`.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import NonConvergence, NotPositiveDefinite

#: Cholesky pivots at or below this are treated as "not positive definite".
PIVOT_FLOOR = 1e-12

#: Relative symmetry tolerance for validating inputs.
SYMMETRY_RTOL = 1e-12

#: A vector whose 2-norm is at or below this has no direction.
_ZERO_NORM = 1e-12


def as_sym_matrix(a, *, name: str = "matrix") -> NDArray[np.float64]:
    """Validate and return `a` as a float64 symmetric square matrix.

    Checks: two-dimensional, square, dim >= 1, all entries finite, and
    symmetric up to a relative tolerance of 1e-12 (scaled by the largest
    absolute entry).
    """
    arr = np.array(a, dtype=np.float64, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must have dim >= 1")
    scale = float(np.max(np.abs(arr)))  # NaN or inf exactly when an entry is
    if not math.isfinite(scale):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(arr - arr.T)) > SYMMETRY_RTOL * (scale or 1.0):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return arr


@dataclass(frozen=True, eq=False)
class MatrixPair:
    """A symmetric matrix `a` with a symmetric positive definite `b`.

    Construction validates symmetry, matching dimensions, and positive
    definiteness of `b` (Cholesky with all pivots > 1e-12); the lower
    Cholesky factor computed during validation is cached on the instance,
    and so are B's extreme eigenvalues and the pair's generalized spectrum
    once `b_extremes` and `spectrum` are first read.
    """

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    chol_lower: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        a = as_sym_matrix(self.a, name="a")
        b = as_sym_matrix(self.b, name="b")
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "chol_lower", cholesky(b))

    @cached_property
    def b_extremes(self) -> tuple[float, float]:
        """(lambda_min(B), lambda_max(B)), from one ``eigvalsh`` per pair."""
        eigs = np.linalg.eigvalsh(self.b)  # ascending
        return float(eigs[0]), float(eigs[-1])

    @cached_property
    def spectrum(self) -> GeneralizedSpectrum:
        """The pair's :func:`generalized_eig`, solved once per pair."""
        return generalized_eig(self)


@dataclass(frozen=True, eq=False)
class GeneralizedSpectrum:
    """Full solution of A v = lambda B v for a definite pair.

    Fields
    ------
    eigenvalues : descending array of the n generalized eigenvalues
    eigenvectors : n x n array whose columns are B-orthonormal eigenvectors
        (v_i^T B v_j = delta_ij), signs fixed so each column's
        largest-magnitude entry is positive
    leading_unit : unit 2-norm version of the leading eigenvector (v*)
    scale_d : d = 1 / ||v_1||_2, so leading_unit = scale_d * v_1
    gap : lambda_1 - lambda_2 (inf when n == 1); consumers needing a
        simple leading eigenvalue must check this themselves
    """

    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]
    leading_unit: NDArray[np.float64]
    scale_d: float
    gap: float


# ---------------------------------------------------------------------------
# symmetric eigendecomposition, Cholesky, generalized eigenproblem


def _fix_signs(vectors: NDArray[np.float64]) -> None:
    """Flip columns in place so each largest-|entry| coordinate is positive."""
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(peaks < 0.0, -1.0, 1.0)


def sym_eig(
    s,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigendecomposition of a symmetric matrix (LAPACK via ``numpy.linalg.eigh``).

    Parameters
    ----------
    s : array_like
        Symmetric matrix (validated by :func:`as_sym_matrix`).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues in descending order; eigenvectors as the columns of an
        orthonormal matrix in matching order, signs fixed so each column's
        largest-magnitude entry is positive. Equal eigenvalues keep the
        relative order LAPACK returns them in (a stable sort), so their
        eigenvectors span the right space but are otherwise unspecified.

    Raises
    ------
    NonConvergence
        If LAPACK's eigensolver fails to converge.
    """
    a = as_sym_matrix(s)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    _fix_signs(v)
    return w, v


def cholesky(b) -> NDArray[np.float64]:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises NotPositiveDefinite when the factorization fails or any pivot
    is <= 1e-12; callers that want to refuse near-singular matrices get
    that behavior for free.
    """
    a = as_sym_matrix(b)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    small = np.flatnonzero(np.diag(low) <= PIVOT_FLOOR)
    if small.size:
        j = int(small[0])
        raise NotPositiveDefinite(
            f"pivot {low[j, j]:.6g} <= {PIVOT_FLOOR} at column {j}"
        )
    return low


def generalized_eig(pair: MatrixPair) -> GeneralizedSpectrum:
    """Solve A v = lambda B v by Cholesky whitening.

    With B = L L^T, the symmetric problem C = L^-1 A L^-T is solved by
    :func:`sym_eig` and eigenvectors are mapped back through L^-T, then
    rescaled to exact B-orthonormality (v_i^T B v_i = 1) and sign-fixed.

    Returns a :class:`GeneralizedSpectrum`; see its field docs. Propagates
    NotPositiveDefinite (from pair construction) and NonConvergence.
    """
    low = pair.chol_lower
    x = np.linalg.solve(low, pair.a)
    c = np.linalg.solve(low, x.T).T
    c = (c + c.T) / 2.0
    w, q = sym_eig(c)
    vecs = np.linalg.solve(low.T, q)
    # Columns are already near B-orthonormal; renormalize exactly.
    bv = pair.b @ vecs
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, bv))
    vecs /= norms
    _fix_signs(vecs)
    v1 = vecs[:, 0]
    scale_d = 1.0 / _norm(v1)
    leading = v1 * scale_d
    gap = float(w[0] - w[1]) if w.shape[0] > 1 else math.inf
    return GeneralizedSpectrum(
        eigenvalues=w,
        eigenvectors=vecs,
        leading_unit=leading,
        scale_d=scale_d,
        gap=gap,
    )


# ---------------------------------------------------------------------------
# scalars


def _norm(x: NDArray[np.float64]) -> float:
    """2-norm of a float64 vector, bit for bit ``np.linalg.norm``'s without its
    dispatch: ravel (copying a strided view to contiguous memory), dot, sqrt."""
    flat = x.ravel()
    return math.sqrt(flat.dot(flat))


def _unit(x: NDArray[np.float64], error: type[Exception], message: str) -> NDArray[np.float64]:
    """x / _norm(x); `error(message)` when the norm is at or below _ZERO_NORM."""
    norm = _norm(x)
    if norm <= _ZERO_NORM:
        raise error(message)
    return x / norm


def spectral_norm(s) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    w = np.linalg.eigvalsh(as_sym_matrix(s))
    return max(abs(float(w[0])), abs(float(w[-1])))


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(a) -> dict:
    """Serialize a symmetric matrix to {"dim": n, "rows": [[...], ...]}.

    Values are emitted as Python floats; the JSON writer's shortest-repr
    encoding makes the round trip bit-stable under IEEE-754 parsing.
    """
    arr = as_sym_matrix(a)
    return {"dim": int(arr.shape[0]), "rows": [[float(x) for x in row] for row in arr]}


def _floats(value) -> NDArray[np.float64]:
    """A float64 array of (nested lists of) JSON numbers; a string, boolean
    or null at any depth is a TypeError."""
    arr = np.array(value, dtype=np.float64)  # a ragged array raises here
    if not all(type(x) in (int, float) for x in np.array(value, dtype=object).flat):
        raise TypeError
    return arr


#: The JSON values `_number` takes for each cast, and how it names them.
_CASTS = {
    int: (int, "an integer"),
    float: ((int, float), "a finite number"),
    str: (str, "a string"),
    _floats: (object, "an array of numbers"),
}


def _number(obj: dict, key: str, cast, kind: str):
    """``cast(obj[key])`` from a `kind` file.

    An int field takes only a JSON integer, a float field only a finite JSON
    number, a str field only a string and a `_floats` field only (nested
    lists of) JSON numbers. A missing or refused value raises a ValueError
    naming the key.
    """
    if key not in obj:
        raise ValueError(f"{kind} is missing {key!r}")
    value = obj[key]
    types, want = _CASTS[cast]
    try:
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError
        out = cast(value)
        if cast is float and not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{kind} {key!r} must be {want}, got {reprlib.repr(value)}") from None
    return out


#: The values `_typed` takes for each kind, and how it names them.
_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    bool: ((bool, np.bool_), "a bool"),
}


def _typed(kind=int, lo=None, **values) -> dict:
    """Each `name=value` setting as a Python `kind` (int unless told
    otherwise), in a dict keyed by name.

    An int setting takes any integer, a float setting any real number
    (numpy scalars and `Fraction`s pass) and a bool setting only a bool,
    numpy's included; a bool where a number belongs, a string, or a float
    where an integer belongs is a ValueError naming the setting. Given
    `lo`, an int below it reads "{name} must be >= {lo}", and a float not
    finite and above it "{name} must be finite and positive" (`lo` is 0).
    A real too large for a float is stored as +-inf, to fail those checks.
    """
    types, want = _KINDS[kind]
    for name, value in values.items():
        if type(value) is not kind:
            if kind is not bool and isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{name} must be {want}, got {reprlib.repr(value)}")
            try:
                value = kind(value)
            except OverflowError:
                value = math.inf if value > 0 else -math.inf
            values[name] = value
        if lo is not None and not (value >= lo if kind is int else lo < value < math.inf):
            raise ValueError(
                f"{name} must be >= {lo}" if kind is int else f"{name} must be finite and positive"
            )
    return values


def matrix_from_json(obj: dict) -> NDArray[np.float64]:
    """Inverse of :func:`matrix_to_json`, with shape validation."""
    if not isinstance(obj, dict) or "dim" not in obj or "rows" not in obj:
        raise ValueError("matrix JSON must have 'dim' and 'rows' keys")
    n = _number(obj, "dim", int, "matrix JSON")
    arr = _number(obj, "rows", _floats, "matrix JSON")
    if arr.shape != (n, n):
        raise ValueError(f"matrix JSON rows have shape {arr.shape}, expected ({n}, {n})")
    return as_sym_matrix(arr)
