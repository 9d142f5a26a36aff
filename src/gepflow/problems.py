"""Synthetic problem-instance generators.

Sampling discipline: every generator draws from NormalStream(seed, stream=0)
in a fixed documented order — spike coefficients gamma (m scalars), then the
spike-noise matrix Z (m x n, row-major), then the B-side sample matrix W
(m x n), then the measurement matrix G (m x n) — skipping draws the model
does not use. This makes instances bit-reproducible from (kind, v*, m, seed)
alone. Drawing each matrix in row blocks leaves this order unchanged.

Memory: a generator holds one row block of a sample matrix at a time (plus
draw chunks and n x n arrays), never a whole m x n matrix. A block has
rows(n) = max(2, 2^15 // n rounded down to even) rows, changed in place by
the spike or row scaling; each Gram is the in-order sum of the blocks'
X_b' X_b, divided by m and symmetrized, so m <= rows(n) makes one block.

Models:

* spiked:   x_i = 2 gamma_i v* + z_i, so E[A_hat] = 4 v* v*' + I; B truth I.
* phase retrieval: A_hat = mean of (g_i'v*)^2 g_i g_i'; Gaussian fourth-moment
  identity gives E[A_hat] = 2 v* v*' + I (confirmed by a Monte-Carlo test
  before use); B truth I.
* diag-B:   as spiked but w_i ~ N(0, Diag(2,1,...,1)), condition number 2.

The diag-B population pair (4 v* v*' + I, Diag(2,1,...,1)) does NOT have v*
as its leading generalized eigenvector; the truth record carries both the
planted direction (v_star) and the computed eigenvector (v_lead) so scoring
code can report against either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import TruthMissing
from .generative import Generator, forward
from .linalg import (
    MatrixPair,
    _fix_signs,
    _floats,
    _norm,
    _number,
    _typed,
    as_sym_matrix,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)
from .rng import NormalStream


@dataclass(frozen=True, eq=False)
class Truth:
    """Population ground truth attached to a synthetic instance."""

    pair: MatrixPair
    v_star: NDArray[np.float64]
    lambda1: float
    lambda2: float
    #: Leading generalized eigenvector of `pair` under the dense solver's
    #: sign convention; equals +/- v_star only when B is the identity.
    v_lead: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "v_star", _unit_v(self.v_star))
        object.__setattr__(self, "v_lead", _unit_v(self.v_lead, "v_lead"))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A sampled (A_hat, B_hat) pair plus provenance and optional truth of
    the same dimension; `m` and `seed` are stored as Python ints."""

    a_hat: NDArray[np.float64]
    b_hat: NDArray[np.float64]
    truth: Truth | None
    m: int
    kind: str
    seed: int

    def __post_init__(self):
        a = as_sym_matrix(self.a_hat, name="a_hat")
        b = as_sym_matrix(self.b_hat, name="b_hat")
        if a.shape != b.shape:
            raise ValueError("a_hat and b_hat dimensions differ")
        vars(self).update(_typed(int, 1, m=self.m) | _typed(seed=self.seed))
        truth_dim = len(a) if self.truth is None else len(self.truth.pair.a)
        if truth_dim != len(a):
            raise ValueError(f"truth pair has dimension {truth_dim}, a_hat has dimension {len(a)}")
        object.__setattr__(self, "a_hat", a)
        object.__setattr__(self, "b_hat", b)

    @property
    def dim(self) -> int:
        return self.a_hat.shape[0]


def _unit_v(x, name: str = "v_star") -> NDArray[np.float64]:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    # Written so that a NaN norm (a non-finite entry) is refused too.
    if not abs(_norm(v) - 1.0) <= 1e-12:
        raise ValueError(f"{name} must be a finite unit vector within 1e-12")
    return v


def _identity_b_truth(v: NDArray[np.float64], spike: float) -> Truth:
    """Truth A = spike v v' + I, B = I: eigenvalues spike + 1 and 1, led by v."""
    v_lead = v.copy()
    _fix_signs(v_lead[:, None])  # the dense solver's sign convention
    eye = np.eye(v.shape[0])
    pair = MatrixPair(a=spike * np.outer(v, v) + eye, b=eye)
    return Truth(pair=pair, v_star=v, lambda1=spike + 1.0, lambda2=1.0, v_lead=v_lead)


#: Entries per row block of a sample matrix; see "Memory" above.
_BLOCK_ENTRIES = 1 << 15


def _sample_stream(m: int, seed: int) -> NormalStream:
    """The draw stream of an m-sample instance, after checking that `m` and
    `seed` are integers and m >= 1."""
    _typed(int, 1, m=m)
    return NormalStream(seed, stream=0)


def _block_gram(stream: NormalStream, m: int, n: int, fill=None) -> NDArray[np.float64]:
    """Symmetrized X'X / m of the next m x n normal matrix X of `stream`,
    drawn and summed in blocks of an even row count (so the stream moves as
    one `stream.matrix(m, n)` call would); `fill(block, lo)` may change each
    block, X's rows lo onward, in place first."""
    rows = max(2, (_BLOCK_ENTRIES // n) & ~1)
    g = np.zeros((n, n))
    for lo in range(0, m, rows):
        block = stream.matrix(min(rows, m - lo), n)
        if fill is not None:
            fill(block, lo)
        g += block.T @ block
    g /= m
    return (g + g.T) / 2.0


def _spiked_draws(
    v, m: int, seed: int, w0_scale: float = 1.0
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """A_hat of x_i = 2 gamma_i v + z_i, and B_hat of the samples w_i with
    their first coordinate scaled by w0_scale (1.0 leaves every bit)."""
    stream = _sample_stream(m, seed)
    gamma = stream.normals(m)

    def add_spike(z, lo):
        spike = np.outer(gamma[lo : lo + z.shape[0]], v)
        spike *= 2.0
        z += spike

    def scale_w0(w, lo):
        w[:, 0] *= w0_scale

    n = v.shape[0]
    return _block_gram(stream, m, n, add_spike), _block_gram(stream, m, n, scale_w0)


def gen_spiked(v_star, m: int, seed: int) -> ProblemInstance:
    """Spiked-covariance model: truth A = 4 v* v*' + I, B = I (eigs 5 and 1)."""
    v = _unit_v(v_star)
    a_hat, b_hat = _spiked_draws(v, m, seed)
    return ProblemInstance(
        a_hat=a_hat, b_hat=b_hat, truth=_identity_b_truth(v, 4.0), m=m,
        kind="spiked", seed=seed,
    )


def gen_phase_retrieval(v_star, m: int, seed: int) -> ProblemInstance:
    """Quadratic-measurement model: A_hat = mean (g'v*)^2 gg'; truth 2 v* v*' + I."""
    v = _unit_v(v_star)
    n = v.shape[0]
    stream = _sample_stream(m, seed)
    b_hat = _block_gram(stream, m, n)

    def scale_rows(g, lo):
        g *= np.sqrt((g @ v) ** 2)[:, None]  # each row g_i scaled by |g_i'v*|

    a_hat = _block_gram(stream, m, n, scale_rows)
    return ProblemInstance(
        a_hat=a_hat, b_hat=b_hat, truth=_identity_b_truth(v, 2.0), m=m,
        kind="phase_retrieval", seed=seed,
    )


def gen_diag_b(v_star, m: int, seed: int) -> ProblemInstance:
    """Spiked model with anisotropic B truth Diag(2,1,...,1), kappa(B) = 2."""
    v = _unit_v(v_star)
    n = v.shape[0]
    if n < 2:
        raise ValueError("diag-B model needs dimension >= 2")
    a_hat, b_hat = _spiked_draws(v, m, seed, math.sqrt(2.0))
    b_true = np.diag([2.0] + [1.0] * (n - 1))
    pair = MatrixPair(a=4.0 * np.outer(v, v) + np.eye(n), b=b_true)
    spectrum = pair.spectrum
    truth = Truth(
        pair=pair,
        v_star=v,
        lambda1=float(spectrum.eigenvalues[0]),
        lambda2=float(spectrum.eigenvalues[1]),
        v_lead=spectrum.leading_unit,
    )
    return ProblemInstance(
        a_hat=a_hat, b_hat=b_hat, truth=truth, m=m, kind="diag_b", seed=seed
    )


# ---------------------------------------------------------------------------
# perturbation verification


@dataclass(frozen=True)
class PerturbationReport:
    """Empirical bilinear-form deviations of (A_hat, B_hat) from truth.

    c_hat_* are the implied constants max / sqrt(log(|S1||S2|)/m); nothing
    is enforced — the report is for the consumer to judge.
    """

    max_e_bilinear: float
    max_f_bilinear: float
    c_hat_e: float
    c_hat_f: float
    e_spectral: float
    f_spectral: float
    n_over_m: float
    set_size: int
    m: int


def _probe_set(
    count: int, n: int, stream: NormalStream, generator: Generator | None
) -> NDArray[np.float64]:
    out = np.empty((count, n))
    for i in range(count):
        if generator is None:
            out[i] = stream.unit_vector(n)
        else:
            z = stream.ball_point(generator.latent_dim, generator.latent_radius)
            out[i] = forward(generator, z)
    return out


def verify_perturbation(
    instance: ProblemInstance,
    set_size: int,
    seed: int,
    generator: Generator | None = None,
) -> PerturbationReport:
    """Measure max |s1' E s2| and |s1' F s2| over seeded probe sets.

    E = A_hat - A, F = B_hat - B against the instance's recorded truth.
    Probe vectors are uniform unit vectors, or random decoder range points
    when a generator is supplied (S1 drawn first, then S2, one stream).
    """
    set_size = _typed(int, 1, set_size=set_size)["set_size"]
    _typed(seed=seed)
    if instance.truth is None:
        raise TruthMissing("verify_perturbation needs an instance with truth")
    if generator is not None and generator.output_dim != instance.dim:
        raise ValueError(
            f"generator output_dim {generator.output_dim} does not match "
            f"instance dim {instance.dim}"
        )
    e = instance.a_hat - instance.truth.pair.a
    f = instance.b_hat - instance.truth.pair.b
    n = instance.dim
    stream = NormalStream(seed, stream=0)
    s1 = _probe_set(set_size, n, stream, generator)
    s2 = _probe_set(set_size, n, stream, generator)
    max_e = float(np.max(np.abs(s1 @ e @ s2.T)))
    max_f = float(np.max(np.abs(s1 @ f @ s2.T)))
    scale = math.sqrt(math.log(float(set_size) * float(set_size)) / instance.m)
    c_e = max_e / scale if scale > 0 else math.inf
    c_f = max_f / scale if scale > 0 else math.inf
    return PerturbationReport(
        max_e_bilinear=max_e,
        max_f_bilinear=max_f,
        c_hat_e=c_e,
        c_hat_f=c_f,
        e_spectral=spectral_norm(e),
        f_spectral=spectral_norm(f),
        n_over_m=n / instance.m,
        set_size=set_size,
        m=instance.m,
    )


# ---------------------------------------------------------------------------
# serialization


def instance_to_json(instance: ProblemInstance) -> dict:
    """Serialize an instance bundle, truth included when present."""
    truth = None
    if instance.truth is not None:
        t = instance.truth
        truth = {
            "a": matrix_to_json(t.pair.a),
            "b": matrix_to_json(t.pair.b),
            "v_star": [float(x) for x in t.v_star],
            "lambda1": t.lambda1,
            "lambda2": t.lambda2,
            "v_lead": [float(x) for x in t.v_lead],
        }
    return {
        "kind": instance.kind,
        "m": instance.m,
        "seed": instance.seed,
        "a_hat": matrix_to_json(instance.a_hat),
        "b_hat": matrix_to_json(instance.b_hat),
        "truth": truth,
    }


def _truth_vector(t: dict, key: str, n: int) -> NDArray[np.float64]:
    v = _number(t, key, _floats, "instance bundle")
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ValueError(f"instance bundle {key!r} must be a finite vector of length {n}")
    return v


def instance_from_json(obj: dict) -> ProblemInstance:
    """Load an instance bundle written by instance_to_json."""
    if not isinstance(obj, dict):
        raise ValueError("instance bundle must be an object")
    truth = None
    if obj.get("truth") is not None:
        t = obj["truth"]
        if not isinstance(t, dict):
            raise ValueError("instance bundle 'truth' must be an object or null")
        pair = MatrixPair(a=matrix_from_json(t.get("a")), b=matrix_from_json(t.get("b")))
        n = pair.a.shape[0]
        truth = Truth(
            pair=pair,
            v_star=_truth_vector(t, "v_star", n),
            lambda1=_number(t, "lambda1", float, "instance bundle"),
            lambda2=_number(t, "lambda2", float, "instance bundle"),
            v_lead=_truth_vector(t, "v_lead", n),
        )
    return ProblemInstance(
        a_hat=matrix_from_json(obj["a_hat"]),
        b_hat=matrix_from_json(obj["b_hat"]),
        truth=truth,
        m=_number(obj, "m", int, "instance bundle"),
        kind=_number(obj, "kind", str, "instance bundle"),
        seed=_number(obj, "seed", int, "instance bundle"),
    )
