"""Deterministic random streams: Philox counter RNG + Box-Muller Gaussians.

Every random draw in this package flows through :class:`NormalStream` so that
instances, restarts, and sweeps are reproducible bit-for-bit across platforms
and, in principle, across language reimplementations. The contract:

Bit source
    Philox 4x64 (10 rounds) keyed by the pair ``(seed mod 2^64, stream mod
    2^64)`` with the counter starting at zero. Raw output is the stream of
    64-bit words ``w_0, w_1, ...`` exactly as Philox emits them.

Uniforms
    ``uniforms(c)`` consumes one word per value: ``u_i = (w >> 11) * 2^-53``,
    i.e. the top 53 bits as a double in [0, 1).

Gaussians
    ``normals(c)`` consumes words in pairs and applies Box-Muller:
    ``u1 = ((w_even >> 11) + 1) * 2^-53`` in (0, 1],
    ``u2 = (w_odd >> 11) * 2^-53`` in [0, 1),
    ``r = sqrt(-2 ln u1)``, ``z_even = r cos(2 pi u2)``,
    ``z_odd = r sin(2 pi u2)``. Outputs are interleaved
    ``z_0, z_1, z_2, ...`` in word order; an odd request discards the final
    sine value, so ``normals(c)`` always consumes ``2 * ceil(c / 2)`` words.

Draw order
    Consumers draw sequentially from a stream; mixing ``normals`` and
    ``uniforms`` calls consumes words strictly in call order. Matrices fill
    row-major. Each module documents which stream ids it keys and in which
    order it draws (see e.g. :mod:`gepflow.problems`). Both maps act word by
    word (or pair by pair), so mapping a block of raw words with
    :func:`map_words` gives the same values as the sequential calls that
    would consume those words: ``raw(2 + 2 * m)`` mapped as
    ``[uniform | m Box-Muller pairs | uniform]`` equals ``uniforms(1)``,
    ``normals(2 * m)``, ``uniforms(1)``.

Because the word stream is a pure function of (seed, stream, position),
prefix stability holds: the first k draws of a stream never depend on how
many draws follow them.

``normals`` evaluates Box-Muller in fixed-size chunks of pairs so that its
temporaries stay in cache; every value is computed elementwise, so the
results do not depend on the chunk size.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .linalg import _ZERO_NORM, _norm, _typed

_U64 = np.uint64
_SHIFT = _U64(11)
_SCALE = 2.0**-53
#: Box-Muller pairs evaluated per chunk in `NormalStream.normals`.
_CHUNK_PAIRS = 1 << 13


def map_words(
    words: NDArray[np.uint64],
    normals: tuple[int, int] = (0, 0),
    out: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Map raw words to uniforms and Box-Muller normals, per the contract.

    `words` is a 1-D run or a (rows, cols) block; along its last axis the
    columns ``normals[0]:normals[1]`` (an even count) are Box-Muller pairs
    and every other column is a uniform. The values go into `out` (same
    shape; allocated when None), which is returned. The words are shifted
    in place, so the caller must not reuse them.
    """
    lo, hi = normals
    if out is None:
        out = np.empty(words.shape, dtype=np.float64)
    words >>= _SHIFT
    if lo > 0:
        np.multiply(words[..., :lo], _SCALE, out[..., :lo])
    if hi < words.shape[-1]:
        np.multiply(words[..., hi:], _SCALE, out[..., hi:])
    if hi > lo:
        u1 = (words[..., lo:hi:2] + _U64(1)) * _SCALE
        u2 = words[..., lo + 1 : hi : 2] * _SCALE
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        np.multiply(radius, np.cos(angle), out[..., lo:hi:2])
        np.multiply(radius, np.sin(angle), out[..., lo + 1 : hi : 2])
    return out


class NormalStream:
    """A seeded, forkable source of uniforms and standard normals.

    Parameters
    ----------
    seed : int
        Base seed; reduced mod 2^64 into the first Philox key word.
    stream : int
        Substream id; reduced mod 2^64 into the second key word. Distinct
        (seed, stream) pairs give statistically independent streams.

    Both must be integers (numpy integers included, `bool` not); anything
    else is a ValueError naming the argument.
    """

    def __init__(self, seed: int, stream: int = 0):
        vars(self).update(_typed(seed=seed, stream=stream))
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=_U64)
        self._bits = np.random.Philox(key=key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NormalStream(seed={self.seed}, stream={self.stream})"

    def raw(self, count: int) -> NDArray[np.uint64]:
        """Return the next `count` raw 64-bit words."""
        if count <= 0:
            return np.empty(0, dtype=_U64)
        return np.asarray(self._bits.random_raw(count), dtype=_U64)

    def uniforms(self, count: int) -> NDArray[np.float64]:
        """Return `count` uniforms in [0, 1), one word each."""
        return map_words(self.raw(count))

    def normals(self, count: int) -> NDArray[np.float64]:
        """Return `count` standard normals via Box-Muller."""
        if count <= 0:
            return np.empty(0, dtype=np.float64)
        words = 2 * ((count + 1) // 2)
        out = np.empty(words, dtype=np.float64)
        for lo in range(0, words, 2 * _CHUNK_PAIRS):
            hi = min(lo + 2 * _CHUNK_PAIRS, words)
            map_words(self.raw(hi - lo), (0, hi - lo), out[lo:hi])
        return out[:count]

    def matrix(self, rows: int, cols: int) -> NDArray[np.float64]:
        """Return a rows x cols standard-normal matrix, filled row-major."""
        return self.normals(rows * cols).reshape(rows, cols)

    def unit_vector(self, n: int) -> NDArray[np.float64]:
        """Return a uniform point on the unit sphere in R^n (n >= 1)."""
        if n < 1:
            raise ValueError(f"unit vector dimension must be >= 1, got {n}")
        # A zero draw has probability ~0 but the retry keeps the map total.
        while True:
            v = self.normals(n)
            norm = _norm(v)
            if norm > _ZERO_NORM:
                return v / norm

    def ball_point(self, k: int, radius: float) -> NDArray[np.float64]:
        """Return a uniform point in the closed ball of the given radius.

        Draws the direction first (k normals), then one uniform for the
        radial coordinate ``radius * u^(1/k)``.
        """
        direction = self.unit_vector(k)
        u = float(self.uniforms(1)[0])
        return (radius * u ** (1.0 / k)) * direction
