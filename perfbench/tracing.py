"""Per-layer tracing of gepflow from outside the package.

Spans are recorded by wrapping the package's functions at run time: every
reference to a hooked function in a loaded ``gepflow`` module (module
attributes and module-level dicts such as a generator table) is replaced by
a wrapper, and put back by :meth:`Hooks.restore`. No file of the package is
edited. A hook whose target attribute no longer exists is reported as
absent; the metrics that depend on it are left out instead of failing.

Spans live in memory as parallel arrays (name id, start, end, parent) and
are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.failed = Counter()
        self.counts = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()
        if failed:
            self.failed[self.names[self.name_ids[idx]]] += 1

    def save(self, path, stamp: dict) -> None:
        """Write the spans as a compressed npz with the run's stamp."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            stamp=np.array(json.dumps(stamp, sort_keys=True)),
        )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may nest or overlap each other; their intervals are clipped to
    the parent and merged, so covered time is never counted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        spans = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids if ends[k] > lo and starts[k] < hi
        )
        covered = 0.0
        cur_s = cur_e = None
        for s, e in spans:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def root_seconds(tracer: Tracer, names) -> float:
    """Seconds spent in root spans (spans without a parent) named in
    `names`; on one thread they never overlap."""
    ids = {tracer._ids[n] for n in names if n in tracer._ids}
    return sum(
        e - s
        for nid, s, e, p in zip(tracer.name_ids, tracer.starts, tracer.ends, tracer.parents)
        if p < 0 and nid in ids
    )


def summarize(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per span name: (total seconds, call count); per layer: self seconds.

    A layer is the span name's prefix before the first dot.
    """
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    layer_self: dict[str, float] = {}
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for i, nid in enumerate(tracer.name_ids):
        name = tracer.names[nid]
        totals[name] = totals.get(name, 0.0) + (tracer.ends[i] - tracer.starts[i])
        calls[name] += 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
    return totals, calls, layer_self


# ---------------------------------------------------------------------------
# hooks


@dataclass(frozen=True)
class Hook:
    """Wrap `module`.`attr` (``attr`` may be ``Class.method``).

    `name` is the span (or counter) name; several hooks may share one.
    With span=False the call is only counted. `after(tracer, args, kwargs,
    result)` runs after a successful call.
    """

    name: str
    module: str
    attr: str
    span: bool = True
    after: Callable | None = None


def _count_drawn(tracer, args, kwargs, result):
    tracer.counts["rng.normals_drawn"] += len(result)


def _restart_stats(tracer, args, kwargs, result):
    trace = result[1]
    cfg = next(
        (a for a in (*args, *kwargs.values()) if hasattr(a, "max_iters")), None
    )
    tracer.counts["solvers.iterations"] += trace.iterations_run
    if cfg is not None and trace.iterations_run >= cfg.max_iters:
        tracer.counts["solvers.capped_runs"] += 1


#: The layers are the package's modules. Priors are hooked where the solvers
#: look them up by name; a generator is hooked wherever it is referenced,
#: including the harness's generator table.
HOOKS = (
    Hook("rng.normals", "gepflow.rng", "NormalStream.normals", after=_count_drawn),
    Hook("problems.gen", "gepflow.problems", "gen_spiked"),
    Hook("problems.gen", "gepflow.problems", "gen_diag_b"),
    Hook("problems.gen", "gepflow.problems", "gen_phase_retrieval"),
    Hook("linalg.generalized_eig", "gepflow.linalg", "generalized_eig"),
    Hook("priors.project", "gepflow.solvers", "project"),
    Hook("priors.sparse_truncate", "gepflow.solvers", "sparse_truncate"),
    Hook("generative.project_to_range", "gepflow.generative", "project_to_range"),
    Hook("generative.subspace_containing", "gepflow.generative", "subspace_containing"),
    Hook("generative.fwd_bwd", "gepflow.generative", "forward", span=False),
    Hook("generative.fwd_bwd", "gepflow.generative", "backward", span=False),
    Hook("solvers.solve", "gepflow.solvers", "run_with_restarts"),
    Hook("solvers.restart", "gepflow.solvers", "prfm", after=_restart_stats),
    Hook("solvers.restart", "gepflow.solvers", "rifle", after=_restart_stats),
    Hook("solvers.restart", "gepflow.solvers", "ppower", after=_restart_stats),
    Hook("theory.check", "gepflow.theory", "check_lemma_sandwich"),
    Hook("theory.check", "gepflow.theory", "check_lemma_inner"),
    Hook("theory.check", "gepflow.theory", "check_lemma_coefficient"),
    Hook("theory.suites", "gepflow.theory", "run_lemma_suites"),
    Hook("harness.sweep", "gepflow.harness", "run_sweep"),
)


def _wrap(tracer: Tracer, hook: Hook, fn):
    if not hook.span:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[hook.name] += 1
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(hook.name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        tracer.close(idx)
        if hook.after is not None:
            hook.after(tracer, args, kwargs, result)
        return result

    return traced


@dataclass
class Hooks:
    """Installed wrappers and what they replaced; restore() undoes them."""

    present: set = field(default_factory=set)
    absent: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gepflow" or name.startswith("gepflow."))
    ]


def install(tracer: Tracer, hooks=HOOKS) -> Hooks:
    """Wrap every hook target that exists; record the ones that do not."""
    state = Hooks()
    try:
        for hook in hooks:
            owner = sys.modules.get(hook.module)
            *path, leaf = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                state.absent.append(f"{hook.module}.{hook.attr}")
                continue
            state.present.add(hook.name)
            wrapper = _wrap(tracer, hook, original)
            if path:  # a method: only its class refers to it
                state._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        state._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                state._undo.append((value, k, original))
                                value[k] = wrapper
    except BaseException:
        state.restore()
        raise
    return state


# ---------------------------------------------------------------------------
# per-layer metrics

#: metric name -> (unit, span or counter names it needs). A metric is left
#: out when one of the hooks it needs is absent.
LAYER_METRICS = {
    "rng.normals_s": ("s", ("rng.normals",)),
    "rng.normals_drawn": ("count", ("rng.normals",)),
    "problems.gen_s": ("s", ("problems.gen",)),
    "problems.gen_calls": ("count", ("problems.gen",)),
    "problems.self_s": ("s", ("problems.gen", "rng.normals", "linalg.generalized_eig")),
    "linalg.generalized_eig_s": ("s", ("linalg.generalized_eig",)),
    "linalg.generalized_eig_calls": ("count", ("linalg.generalized_eig",)),
    "priors.project_s": ("s", ("priors.project",)),
    "priors.project_calls": ("count", ("priors.project",)),
    "priors.sparse_truncate_s": ("s", ("priors.sparse_truncate",)),
    "priors.sparse_truncate_calls": ("count", ("priors.sparse_truncate",)),
    "generative.project_to_range_s": ("s", ("generative.project_to_range",)),
    "generative.fwd_bwd_calls": ("count", ("generative.fwd_bwd",)),
    "generative.subspace_containing_s": ("s", ("generative.subspace_containing",)),
    "solvers.solve_s": ("s", ("solvers.solve",)),
    "solvers.self_s": (
        "s",
        ("solvers.solve", "solvers.restart", "priors.project", "priors.sparse_truncate"),
    ),
    "solvers.restarts_run": ("count", ("solvers.restart",)),
    "solvers.restarts_failed": ("count", ("solvers.restart",)),
    "solvers.iterations": ("count", ("solvers.restart",)),
    "solvers.capped_runs": ("count", ("solvers.restart",)),
    "theory.check_s": ("s", ("theory.check",)),
    "theory.checks": ("count", ("theory.check",)),
    "harness.sweep_s": ("s", ("harness.sweep",)),
    "harness.self_s": (
        "s",
        ("harness.sweep", "problems.gen", "generative.subspace_containing", "solvers.solve"),
    ),
}


def layer_metrics(tracer: Tracer, present: set, passes: int) -> tuple[dict, list, dict]:
    """Per-pass layer metrics as {name: (value, unit)}, the names left out
    as absent, and the per-pass self seconds of every layer."""
    totals, calls, layer_self = summarize(tracer)
    counts = tracer.counts
    raw = {
        "rng.normals_s": totals.get("rng.normals", 0.0),
        "rng.normals_drawn": counts["rng.normals_drawn"],
        "problems.gen_s": totals.get("problems.gen", 0.0),
        "problems.gen_calls": calls["problems.gen"],
        "problems.self_s": layer_self.get("problems", 0.0),
        "linalg.generalized_eig_s": totals.get("linalg.generalized_eig", 0.0),
        "linalg.generalized_eig_calls": calls["linalg.generalized_eig"],
        "priors.project_s": totals.get("priors.project", 0.0),
        "priors.project_calls": calls["priors.project"],
        "priors.sparse_truncate_s": totals.get("priors.sparse_truncate", 0.0),
        "priors.sparse_truncate_calls": calls["priors.sparse_truncate"],
        "generative.project_to_range_s": totals.get("generative.project_to_range", 0.0),
        "generative.fwd_bwd_calls": counts["generative.fwd_bwd"],
        "generative.subspace_containing_s": totals.get("generative.subspace_containing", 0.0),
        "solvers.solve_s": totals.get("solvers.solve", 0.0),
        "solvers.self_s": layer_self.get("solvers", 0.0),
        "solvers.restarts_run": calls["solvers.restart"],
        "solvers.restarts_failed": tracer.failed["solvers.restart"],
        "solvers.iterations": counts["solvers.iterations"],
        "solvers.capped_runs": counts["solvers.capped_runs"],
        "theory.check_s": totals.get("theory.check", 0.0),
        "theory.checks": calls["theory.check"],
        "harness.sweep_s": totals.get("harness.sweep", 0.0),
        "harness.self_s": layer_self.get("harness", 0.0),
    }
    metrics, absent = {}, []
    for name, (unit, needs) in LAYER_METRICS.items():
        if all(n in present for n in needs):
            metrics[name] = (raw[name] / passes, unit)
        else:
            absent.append(name)
    return metrics, absent, {k: v / passes for k, v in layer_self.items()}
