"""Structural priors and their (approximate) metric projections.

Each projector maps an arbitrary nonzero vector to the prior's feasible set:

* sphere: the full unit sphere (pure normalization; `linalg._unit` refuses zero);
* sparse: unit vectors with at most s nonzero entries;
* subspace: unit vectors in a `SubspaceGenerator`'s span (closed form);
* range: unit vectors output by a generative decoder (iterative, seeded).

Projections are deterministic; the range prior folds its Adam seed into the
projector so repeated calls agree bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

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
from .linalg import _number, _typed, _unit

#: Each prior's spec keys besides "prior"; a subspace spec takes one of its two.
_SPEC_KEYS = {
    "sphere": (),
    "sparse": ("s",),
    "subspace": ("k", "model_path"),
    "range": ("model_path", "projection"),
}
PRIOR_NAMES = tuple(_SPEC_KEYS)


@dataclass(frozen=True)
class SphereProjector:
    """No structural restriction beyond unit norm."""


@dataclass(frozen=True)
class SparseProjector:
    """At most `s` nonzero entries."""

    s: int

    def __post_init__(self):
        vars(self).update(_typed(s=self.s))
        if self.s < 1:
            raise ValueError("sparsity level must be >= 1")


@dataclass(frozen=True, eq=False)
class RangeProjector:
    """Range of a generative decoder, reached by seeded latent descent."""

    model: Generator
    config: LatentProjectionConfig = LatentProjectionConfig()


Projector = SphereProjector | SparseProjector | SubspaceGenerator | RangeProjector


def sparse_truncate(x, s: int) -> NDArray[np.float64]:
    """Keep the s largest-magnitude entries, zero the rest, renormalize.

    This is the exact metric projection onto the set of unit vectors with at
    most s nonzeros. Magnitude ties are broken toward the lowest index.
    Raises ZeroVector when nothing survives truncation.
    """
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if type(s) is not int:  # rifle calls this every iterate; an int needs no check
        _typed(s=s)
    if s < 1:
        raise ValueError("sparsity level must be >= 1")
    keep = (-np.abs(xv)).argsort(kind="stable")[:s]
    out = np.zeros(xv.shape[0])
    out[keep] = xv[keep]
    return _unit(out, ZeroVector, "nothing left after sparse truncation")


def project(p: Projector, x, *, _run=None) -> NDArray[np.float64]:
    """Project `x` onto the feasible set of prior `p`.

    Exact for sphere, sparse and subspace (`SubspaceGenerator`) priors;
    approximate (best of the configured restarts) for the range prior.

    The private `_run` is a solver run's own dict, empty when the run
    starts, which the run creates and alone holds. A range projection
    descends from the configured seeded starts while it holds no latent,
    else from that latent alone, and stores the latent it returns: so each
    projection of a run after the first warm-starts from the one before it.
    A call without `_run` takes the seeded starts and stores nothing, so the
    shared RangeProjector holds no state and two such calls agree bit for bit.
    """
    xv = np.asarray(x, dtype=np.float64).ravel()  # BLAS sums a strided view in another order
    if isinstance(p, SphereProjector):
        return _unit(xv, ZeroVector, "cannot normalize a (near-)zero vector")
    if isinstance(p, SparseProjector):
        return sparse_truncate(xv, p.s)
    if isinstance(p, SubspaceGenerator):
        return subspace_project(p, xv)
    if isinstance(p, RangeProjector):
        run = {} if _run is None else _run
        found = project_to_range(p.model, xv, p.config, _start=run.get("latent"))
        run["latent"] = found.latent
        return found.point
    raise TypeError(f"unknown projector type {type(p).__name__}")


def projector_from_spec(spec: dict, *, truth=None, seed: int = 0) -> Projector:
    """Build a projector from its JSON description.

    Keys: "prior" in PRIOR_NAMES; "s" for the sparse level; the subspace
    prior is the `SubspaceGenerator` of "model_path" (a basis-form model)
    or of "k", a random k-dimensional subspace containing `truth` (the
    oracle-assisted prior of the synthetic protocol) seeded by `seed`;
    "model_path" for the range prior, with an optional "projection" object
    of LatentProjectionConfig overrides ("steps", "learning_rate",
    "restarts", "seed"; any other key is refused), each checked by the
    config itself. "s" and "k" are JSON integers. A model path is opened
    as given, so a relative one is read from the working directory. Only a
    "k" spec reads `truth` and `seed`. A key the named prior does not read,
    or a subspace spec with both "k" and "model_path", is refused.
    """
    if not isinstance(spec, dict) or "prior" not in spec:
        raise ValueError("prior spec must be an object with a 'prior' key")
    kind = spec["prior"]
    if kind not in PRIOR_NAMES:
        raise ValueError(f"unknown prior {kind!r}")
    for key in spec:
        if key != "prior" and key not in _SPEC_KEYS[kind]:
            raise ValueError(f"{kind} prior does not read {key!r}")
    if kind == "subspace" and "k" in spec and "model_path" in spec:
        raise ValueError("subspace prior takes 'k' or 'model_path', not both")
    if kind == "sphere":
        return SphereProjector()
    if kind == "sparse":
        return SparseProjector(s=_number(spec, "s", int, "sparse prior"))
    if kind == "subspace" and "k" in spec:
        if truth is None:
            raise ValueError("a 'k' subspace prior needs the truth vector")
        return subspace_containing(truth, _number(spec, "k", int, "subspace prior"), seed=seed)
    path = spec.get("model_path")
    if not path:
        raise ValueError(f"{kind} prior needs a 'model_path'")
    with open(path) as fh:
        model = model_from_json(json.load(fh))
    if kind == "subspace":
        if not isinstance(model, SubspaceGenerator):
            raise ValueError("subspace prior requires a basis-form model")
        return model
    proj = spec.get("projection", {})
    names = {f.name for f in fields(LatentProjectionConfig)}
    if not isinstance(proj, dict) or not proj.keys() <= names:
        raise ValueError(f"bad 'projection' object: {proj!r}")
    return RangeProjector(model=model, config=LatentProjectionConfig(**proj))
