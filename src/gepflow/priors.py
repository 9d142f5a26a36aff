"""Structural priors and their (approximate) metric projections.

Each projector maps an arbitrary nonzero vector to the prior's feasible set:

* sphere: the full unit sphere (pure normalization);
* sparse: unit vectors with at most s nonzero entries;
* subspace: unit vectors in the span of an orthonormal basis (closed form);
* range: unit vectors output by a generative decoder (iterative, seeded).

Projections are deterministic; the range prior folds its Adam seed into the
projector so repeated calls agree bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ZeroVector
from .generative import (
    Generator,
    LatentProjectionConfig,
    SubspaceGenerator,
    model_from_json,
    project_to_range,
    subspace_containing,
    subspace_project,
)

__all__ = [
    "SphereProjector",
    "SparseProjector",
    "SubspaceProjector",
    "RangeProjector",
    "Projector",
    "project",
    "sparse_truncate",
    "projector_from_spec",
]

PRIOR_NAMES = ("sphere", "sparse", "subspace", "range")


@dataclass(frozen=True)
class SphereProjector:
    """No structural restriction beyond unit norm."""


@dataclass(frozen=True)
class SparseProjector:
    """At most `s` nonzero entries."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("sparsity level must be >= 1")


@dataclass(frozen=True, eq=False)
class SubspaceProjector:
    """Unit vectors in the span of an orthonormal n x k basis."""

    basis: NDArray[np.float64]
    _decoder: SubspaceGenerator = field(init=False, repr=False)

    def __post_init__(self):
        decoder = SubspaceGenerator(
            basis=np.asarray(self.basis, dtype=np.float64), latent_radius=1.0
        )
        object.__setattr__(self, "basis", decoder.basis)
        object.__setattr__(self, "_decoder", decoder)


@dataclass(frozen=True, eq=False)
class RangeProjector:
    """Range of a generative decoder, reached by seeded latent descent."""

    model: Generator
    config: LatentProjectionConfig = LatentProjectionConfig()


Projector = SphereProjector | SparseProjector | SubspaceProjector | RangeProjector


def sparse_truncate(x, s: int) -> NDArray[np.float64]:
    """Keep the s largest-magnitude entries, zero the rest, renormalize.

    This is the exact metric projection onto the set of unit vectors with at
    most s nonzeros. Magnitude ties are broken toward the lowest index.
    Raises ZeroVector when nothing survives truncation.
    """
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if s < 1:
        raise ValueError("sparsity level must be >= 1")
    keep = (-np.abs(xv)).argsort(kind="stable")[:s]
    out = np.zeros(xv.shape[0])
    out[keep] = xv[keep]
    norm = math.sqrt(float(out.dot(out)))
    if norm <= 1e-12:
        raise ZeroVector("nothing left after sparse truncation")
    return out / norm


def project(p: Projector, x) -> NDArray[np.float64]:
    """Project `x` onto the feasible set of prior `p`.

    Exact for sphere, sparse, and subspace priors; approximate (best of the
    configured restarts) for the range prior.
    """
    # ravel copies a strided view, so the dot below sums in the same order
    # as np.linalg.norm does
    xv = np.asarray(x, dtype=np.float64).ravel()
    if isinstance(p, SphereProjector):
        norm = math.sqrt(float(xv.dot(xv)))
        if norm <= 1e-12:
            raise ZeroVector("cannot normalize a (near-)zero vector")
        return xv / norm
    if isinstance(p, SparseProjector):
        return sparse_truncate(xv, p.s)
    if isinstance(p, SubspaceProjector):
        return subspace_project(p._decoder, xv)
    if isinstance(p, RangeProjector):
        return project_to_range(p.model, xv, p.config).point
    raise TypeError(f"unknown projector type {type(p).__name__}")


def projector_from_spec(spec: dict, *, truth=None, seed: int = 0) -> Projector:
    """Build a projector from its JSON description.

    Keys: "prior" in PRIOR_NAMES; "s" for the sparse level; for the
    subspace prior either "model_path" (a basis-form model) or "k", which
    builds a random k-dimensional subspace containing `truth` (the
    oracle-assisted prior of the synthetic protocol) seeded by `seed`;
    "model_path" for the range prior, with an optional "projection" object
    of LatentProjectionConfig overrides ("steps", "learning_rate",
    "restarts", "seed"; any other key is refused). A model path is opened
    as given, so a relative one is read from the working directory. Only a
    "k" spec reads `truth` and `seed`.
    """
    if not isinstance(spec, dict) or "prior" not in spec:
        raise ValueError("prior spec must be an object with a 'prior' key")
    kind = spec["prior"]
    if kind == "sphere":
        return SphereProjector()
    if kind == "sparse":
        if "s" not in spec:
            raise ValueError("sparse prior needs an 's' level")
        return SparseProjector(s=int(spec["s"]))
    if kind == "subspace" and "k" in spec:
        if truth is None:
            raise ValueError("a 'k' subspace prior needs the truth vector")
        gen = subspace_containing(truth, int(spec["k"]), seed=seed)
        return SubspaceProjector(basis=gen.basis)
    if kind in ("subspace", "range"):
        path = spec.get("model_path")
        if not path:
            raise ValueError(f"{kind} prior needs a 'model_path'")
        with open(path) as fh:
            model = model_from_json(json.load(fh))
        if kind == "subspace":
            if not isinstance(model, SubspaceGenerator):
                raise ValueError("subspace prior requires a basis-form model")
            return SubspaceProjector(basis=model.basis)
        try:
            cfg = LatentProjectionConfig(**spec.get("projection", {}))
        except TypeError as exc:  # an unknown key, or not an object
            raise ValueError(f"bad 'projection' object: {exc}") from exc
        return RangeProjector(model=model, config=cfg)
    raise ValueError(f"unknown prior {kind!r}")
