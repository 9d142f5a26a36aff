"""Generative decoders mapping a latent ball into the unit sphere.

Two families serve as desk-scale stand-ins for pretrained decoders: a
feed-forward MLP, and a linear subspace decoder that admits a closed-form
projection oracle. A decoder's domain is its closed latent ball: a latent of
norm above r (1 + 1e-9), or NaN, raises ValueError, and a rounding
overshoot up to that bound is rescaled onto the sphere of radius r. Both
share one decode path (check the latent, layers, normalize; `backward` runs
it in reverse): the subspace decoder is one bias-free identity layer over
its basis. A generator keeps its last decode, so `backward` on the latent
`forward` just decoded runs no layer again. Both expose `forward`,
`backward` and `project_to_range` (Adam in latent space); `subspace_project`
is the exact oracle for the subspace family.
Every decoder divides its raw output by its 2-norm; a raw norm at or below
MIN_NORM_DEFAULT, or not finite, raises DegenerateOutput. Adam runs on the
fixed constants beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, one restart
after another, on each restart's latent, moments and gradient held as
Python floats: one latent array per step serves the clip and the decode.

Stream usage: `random_mlp`/`random_subspace` draw from
NormalStream(seed, stream=0) (weights row-major then bias, layer by layer;
the subspace draws its n*k basis entries row-major). `project_to_range`
draws restart i's latent start from NormalStream(cfg.seed, stream=i). A
solver run draws them for its first range projection only: each later
projection of the run descends from the latent the one before it returned,
as a single row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import AllRestartsDegenerate, DegenerateOutput, DegenerateProjection
from .linalg import _floats, _number, _typed
from .rng import NormalStream

#: Pre-normalization norm floor below which decoding is considered degenerate.
MIN_NORM_DEFAULT = 1e-6
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

ACTIVATIONS = ("relu", "sigmoid", "identity")


def default_latent_radius(latent_dim: int) -> float:
    """Desk-scale latent-radius convention r = 3 * sqrt(k)."""
    return 3.0 * math.sqrt(latent_dim)


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine layer: activation(weight @ h + bias)."""

    weight: NDArray[np.float64]
    bias: NDArray[np.float64]
    activation: str

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if w.ndim != 2:
            raise ValueError("layer weight must be 2-D")
        if b.shape[0] != w.shape[0]:
            raise ValueError(
                f"bias length {b.shape[0]} does not match weight rows {w.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer weight and bias must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True, eq=False)
class MlpGenerator:
    """Feed-forward decoder G: ball of radius r in R^k -> S^(n-1)."""

    layers: tuple[Layer, ...]
    latent_radius: float

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        dims = [self.layers[0].weight.shape[1]]
        for layer in self.layers:
            if layer.weight.shape[1] != dims[-1]:
                raise ValueError("layer dimensions do not chain")
            dims.append(layer.weight.shape[0])
        if dims[0] >= dims[-1]:
            raise ValueError("latent_dim must be smaller than output_dim")
        vars(self).update(_typed(float, 0, latent_radius=self.latent_radius))
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def latent_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


@dataclass(frozen=True, eq=False)
class SubspaceGenerator:
    """Linear decoder z -> Qz / ||Qz|| over an orthonormal basis Q (n x k)."""

    basis: NDArray[np.float64]
    latent_radius: float

    def __post_init__(self):
        q = np.asarray(self.basis, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] < q.shape[1]:
            raise ValueError("basis must be n x k with k <= n")
        if not np.all(np.isfinite(q)):
            raise ValueError("basis must be finite")
        gram = q.T @ q
        if np.max(np.abs(gram - np.eye(q.shape[1]))) > 1e-10:
            raise ValueError("basis columns are not orthonormal within 1e-10")
        vars(self).update(_typed(float, 0, latent_radius=self.latent_radius))
        object.__setattr__(self, "basis", q)

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]

    @functools.cached_property
    def layers(self) -> tuple[Layer, ...]:
        # bias -0.0, the exact additive identity: the layer yields Qz bit for bit
        return (Layer(self.basis, np.full(self.output_dim, -0.0), "identity"),)

    def unit_coordinates(self, c: NDArray[np.float64]) -> NDArray[np.float64]:
        """c / ||c||, the Q-coordinates of the nearest unit vector in span(Q)
        to a target x with c = Q'x; DegenerateProjection at ||c|| <= 1e-12."""
        norm = math.sqrt(float(c.dot(c)))  # equals ||QQ^T x|| for orthonormal Q
        if norm <= 1e-12:
            raise DegenerateProjection("target is orthogonal to the subspace")
        return c / norm


Generator = MlpGenerator | SubspaceGenerator


@dataclass(frozen=True)
class LatentProjectionConfig:
    """Range-projection settings; Adam's beta1 = 0.9, beta2 = 0.999, eps = 1e-8 are fixed.

    `restarts` seeded starts serve a standalone projection and a solver
    run's first one; each later projection of a run takes `steps` Adam steps
    from the latent the run's previous projection returned, alone.
    """

    steps: int = 100
    learning_rate: float = 0.1
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        settings = vars(self)
        settings.update(_typed(steps=self.steps, restarts=self.restarts, seed=self.seed))
        settings.update(_typed(float, 0, learning_rate=self.learning_rate))
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class RangeProjection:
    """Best point found by `project_to_range` and where it came from."""

    point: NDArray[np.float64]
    latent: NDArray[np.float64]
    distance: float
    restart_index: int


# ---------------------------------------------------------------------------
# forward / backward


def _clamp_latent(gen: Generator, z) -> NDArray[np.float64]:
    # ravel, not reshape: a strided view must be copied to contiguous memory,
    # or its dot product (hence the rescale) can differ in the last bit.
    zv = np.asarray(z, dtype=np.float64).ravel()
    if zv.shape[0] != gen.latent_dim:
        raise ValueError(f"latent has length {zv.shape[0]}, expected {gen.latent_dim}")
    norm = math.sqrt(float(zv.dot(zv)))
    if not norm <= gen.latent_radius:  # a NaN norm is refused too
        if not norm <= gen.latent_radius * (1.0 + 1e-9):
            raise ValueError(
                f"latent norm {norm:.6g} is outside the latent ball of radius "
                f"{gen.latent_radius:.6g}"
            )
        zv = zv * (gen.latent_radius / norm)  # a rounding overshoot
    return zv


def _decode(gen: Generator, z):
    """Check z against the latent ball, run the layers and normalize:
    (output, raw output norm, per-layer (pre, post) activations). A latent
    of norm above r (1 + 1e-9) raises ValueError; one above r by no more
    is rescaled onto the sphere of radius r. Kept on the generator, keyed
    on z's bytes (of which it is a pure function), unless the output is
    degenerate. One assignment swaps the entry, so threads sharing the
    generator can miss it, never read it torn."""
    key = np.asarray(z, dtype=np.float64).tobytes()
    last = vars(gen).get("_last_decode")
    if last is not None and last[0] == key:
        return last[1]
    h = _clamp_latent(gen, z)
    cache = []
    for layer in gen.layers:
        pre = layer.weight.dot(h)
        pre += layer.bias
        if layer.activation == "relu":
            h = np.maximum(pre, 0.0)
        elif layer.activation == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
        cache.append((pre, h))
    norm = math.sqrt(float(h.dot(h)))
    if not MIN_NORM_DEFAULT < norm < math.inf:  # NaN fails too
        raise DegenerateOutput(f"raw output norm {norm:.6g} not in ({MIN_NORM_DEFAULT:.6g}, inf)")
    decoded = h / norm, norm, cache
    vars(gen)["_last_decode"] = key, decoded
    return decoded


def forward(gen: Generator, z) -> NDArray[np.float64]:
    """Decode a latent vector to the generator's output sphere.

    A latent of norm above r (1 + 1e-9), or of NaN norm, raises ValueError;
    a rounding overshoot up to that bound is rescaled onto the sphere of
    radius r. The output has unit norm; DegenerateOutput is raised when the
    raw output norm is at or below MIN_NORM_DEFAULT or is not finite (the
    layers overflowed), since no direction can be assigned.
    """
    return _decode(gen, z)[0].copy()  # the kept decode stays the generator's


def backward(gen: Generator, z, cotangent) -> NDArray[np.float64]:
    """Gradient of <forward(gen, z), cotangent> with respect to z.

    The normalization layer is differentiated analytically; ReLU uses
    subgradient 0 at kinks. The latent is checked and rescaled as by
    `forward`, so a latent of norm above r (1 + 1e-9) raises ValueError.
    """
    out, norm, cache = _decode(gen, z)
    cot = np.asarray(cotangent, dtype=np.float64).reshape(-1)
    if cot.shape[0] != gen.output_dim:
        raise ValueError(f"cotangent has length {cot.shape[0]}, expected {gen.output_dim}")
    grad = (cot - float(out.dot(cot)) * out) / norm
    for layer, (pre, post) in zip(reversed(gen.layers), reversed(cache)):
        if layer.activation == "relu":
            grad = grad * (pre > 0.0)  # the mask casts to 1.0/0.0: subgradient 0 at kinks
        elif layer.activation == "sigmoid":
            grad = grad * (post * (1.0 - post))
        grad = layer.weight.T.dot(grad)
    return grad


# ---------------------------------------------------------------------------
# range projection


def subspace_project(gen: SubspaceGenerator, x) -> NDArray[np.float64]:
    """Exact nearest unit vector in span(Q): QQ^T x / ||QQ^T x||."""
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if xv.shape[0] != gen.output_dim:
        raise ValueError(f"target has length {xv.shape[0]}, expected {gen.output_dim}")
    return gen.basis.dot(gen.unit_coordinates(gen.basis.T.dot(xv)))


def project_to_range(
    gen: Generator, x, cfg: LatentProjectionConfig, *, _start=None
) -> RangeProjection:
    """Approximate the closest range point to `x` by Adam in latent space.

    Runs `cfg.restarts` independent descents on z -> ||forward(gen, z) - x||^2.
    Each starts uniform in the ball of radius 0.9 * r, drawn from
    NormalStream(cfg.seed, stream=restart_index). After every Adam step
    the iterate is clipped back into the radius-r ball. Returns the best
    point seen anywhere along any trajectory, so the achieved distance never
    exceeds the distance at any sampled start; ties keep the earliest
    (lowest restart, earliest step) candidate.

    The restarts run one after another, each from its start (step 0)
    through `cfg.steps` Adam steps; a decode that degenerates ends that
    restart alone, and the candidates it recorded stay. A restart holds its
    latent, Adam moments and last gradient as Python floats, updated element
    by element with the same operations, in the same order, as Adam's array
    form, so the bytes are the array form's. Its latent becomes an array
    once per step, to be clipped and decoded (by `forward`; `backward`
    reuses that decode).

    The private `_start` replaces the seeded starts with that one latent,
    as restart 0: a solver run passes the latent its previous projection
    returned (`priors.project`), whose decode already succeeded, so step 0
    always records a candidate and the result is no farther from `x` than
    forward(gen, _start).

    Raises AllRestartsDegenerate only if every restart dies with
    DegenerateOutput before recording a candidate, and ValueError on a
    non-finite target.
    """
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if xv.shape[0] != gen.output_dim:
        raise ValueError(f"target has length {xv.shape[0]}, expected {gen.output_dim}")
    if not np.all(np.isfinite(xv)):
        raise ValueError("target has non-finite entries")

    radius = gen.latent_radius
    beta1, beta2, lr, eps = _ADAM_BETA1, _ADAM_BETA2, cfg.learning_rate, _ADAM_EPS
    keep1, keep2 = 1.0 - beta1, 1.0 - beta2
    if _start is None:
        starts = [_random_start(cfg.seed, i, gen.latent_dim, radius) for i in range(cfg.restarts)]
    else:
        starts = [_start]
    # The best candidate (distance, point, latent, restart). The scan visits
    # candidates in (restart, step) order and only a strictly smaller
    # distance replaces the best, so ties keep the earliest. The NaN start
    # compares false, so the first candidate is always taken; later distances
    # are never NaN (the point and the target are finite). Every step builds
    # its latent row anew, so a kept row is never written again.
    best = (math.nan, None, None, None)
    for restart, start in enumerate(starts):
        row = np.array(start, dtype=np.float64)
        z = row.tolist()
        m, v = [0.0] * len(z), [0.0] * len(z)
        for step in range(cfg.steps + 1):  # step 0 evaluates the start
            if step:
                c1, c2 = 1.0 - beta1**step, 1.0 - beta2**step
                for i, half in enumerate(vjp):
                    g = 2.0 * half  # the objective's gradient: doubling is exact
                    m[i] = mi = beta1 * m[i] + keep1 * g
                    v[i] = vi = beta2 * v[i] + keep2 * g * g
                    z[i] -= lr * (mi / c1) / (math.sqrt(vi / c2) + eps)
                row = np.array(z)
                norm = math.sqrt(float(row.dot(row)))
                if norm > radius:
                    row *= radius / norm
                    z = row.tolist()
            try:
                point = forward(gen, row)
            except DegenerateOutput:
                break
            diff = point - xv
            distance = math.sqrt(float(diff.dot(diff)))
            vjp = backward(gen, row, diff).tolist()  # half the objective's gradient
            if not distance >= best[0]:
                best = (distance, point, row, restart)

    distance, point, latent, restart = best
    if point is None:
        raise AllRestartsDegenerate(f"all {len(starts)} restarts hit degenerate outputs")
    return RangeProjection(point=point, latent=latent, distance=distance, restart_index=restart)


@functools.lru_cache(maxsize=64)
def _random_start(seed: int, stream: int, k: int, radius: float) -> NDArray[np.float64]:
    """Restart `stream`'s random Adam start: uniform in the ball of radius
    0.9 * radius. A pure function of its arguments, so drawn once and
    cached; read-only, so no caller can change a cached start."""
    z = NormalStream(seed, stream=stream).ball_point(k, 0.9 * radius)
    z.flags.writeable = False
    return z


# ---------------------------------------------------------------------------
# seeded constructors


def random_mlp(
    output_dim: int,
    latent_dim: int,
    *,
    hidden: tuple[int, ...] = (),
    activation: str = "relu",
    seed: int = 0,
) -> MlpGenerator:
    """Random-weight MLP decoder (stand-in for a trained model) with latent
    radius `default_latent_radius(latent_dim)`.

    Weights are N(0, 2/fan_in) (He scaling), biases N(0, 0.01), drawn from
    NormalStream(seed, stream=0) layer by layer, weight row-major then bias.
    The final layer uses the identity activation so outputs are not confined
    to an orthant; earlier layers use `activation`.
    """
    _typed(output_dim=output_dim, latent_dim=latent_dim)
    _typed(**{f"hidden[{i}]": width for i, width in enumerate(hidden)})
    if latent_dim >= output_dim:
        raise ValueError("latent_dim must be smaller than output_dim")
    stream = NormalStream(seed, stream=0)
    dims = [latent_dim, *hidden, output_dim]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = stream.matrix(fan_out, fan_in) * math.sqrt(2.0 / fan_in)
        b = stream.normals(fan_out) * 0.1
        act = "identity" if i == len(dims) - 2 else activation
        layers.append(Layer(weight=w, bias=b, activation=act))
    return MlpGenerator(layers=tuple(layers), latent_radius=default_latent_radius(latent_dim))


def _orthonormalize(columns: NDArray[np.float64]) -> NDArray[np.float64]:
    q, r = np.linalg.qr(columns)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_subspace(output_dim: int, latent_dim: int, *, seed: int = 0) -> SubspaceGenerator:
    """Uniformly random orthonormal basis (QR of a Gaussian matrix) with
    latent radius `default_latent_radius(latent_dim)`."""
    _typed(output_dim=output_dim, latent_dim=latent_dim)
    raw = NormalStream(seed, stream=0).matrix(output_dim, latent_dim)
    return SubspaceGenerator(
        basis=_orthonormalize(raw), latent_radius=default_latent_radius(latent_dim)
    )


def subspace_containing(vector, latent_dim: int, *, seed: int = 0) -> SubspaceGenerator:
    """Random subspace whose span contains the given (nonzero) vector.

    The first basis column is the normalized vector itself; the remaining
    latent_dim - 1 columns complete it with seeded Gaussian draws. The latent
    radius is `default_latent_radius(latent_dim)`.
    """
    _typed(latent_dim=latent_dim)
    v = np.asarray(vector, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm <= 1e-12:
        raise ValueError("vector must be nonzero")
    n = v.shape[0]
    if not 1 <= latent_dim <= n:
        raise ValueError("need 1 <= latent_dim <= len(vector)")
    stream = NormalStream(seed, stream=0)
    cols = np.empty((n, latent_dim))
    cols[:, 0] = v / norm
    for j in range(1, latent_dim):
        cols[:, j] = stream.normals(n)
    q = _orthonormalize(cols)  # R[0, 0] = +/-1 turns +, so column 0 stays v / ||v||
    return SubspaceGenerator(basis=q, latent_radius=default_latent_radius(latent_dim))


# ---------------------------------------------------------------------------
# serialization


def model_to_json(gen: Generator) -> dict:
    """Serialize a generator to its JSON model schema."""
    head = {
        "latent_dim": gen.latent_dim,
        "output_dim": gen.output_dim,
        "latent_radius": gen.latent_radius,
    }
    if isinstance(gen, SubspaceGenerator):
        return {**head, "basis": gen.basis.tolist()}
    layers = [
        {"activation": layer.activation, "weight": layer.weight.tolist(),
         "bias": layer.bias.tolist()}
        for layer in gen.layers
    ]
    return {**head, "layers": layers}


def model_from_json(obj: dict) -> Generator:
    """Load a generator from its JSON form; validates the dimension chain."""
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    if obj.get("normalized", True) is not True:
        raise ValueError("model JSON 'normalized' must be true: every decoder is normalized")
    if "min_norm" in obj:
        raise ValueError(f"model JSON 'min_norm' is refused: the floor is {MIN_NORM_DEFAULT}")
    dims = tuple(_number(obj, key, int, "model JSON") for key in ("latent_dim", "output_dim"))
    radius = _number(obj, "latent_radius", float, "model JSON")
    if "basis" in obj:
        gen: Generator = SubspaceGenerator(
            basis=_number(obj, "basis", _floats, "model JSON"), latent_radius=radius
        )
    elif "layers" in obj:
        entries = obj["layers"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("model JSON 'layers' must be a list of objects")
        layers = tuple(
            Layer(
                weight=_number(entry, "weight", _floats, "model JSON layer"),
                bias=_number(entry, "bias", _floats, "model JSON layer"),
                activation=str(entry.get("activation")),
            )
            for entry in entries
        )
        gen = MlpGenerator(layers=layers, latent_radius=radius)
    else:
        raise ValueError("model JSON needs either 'layers' or 'basis'")
    if (gen.latent_dim, gen.output_dim) != dims:
        raise ValueError("declared model dimensions do not match the data")
    return gen
