"""Tests of the benchmark's own arithmetic and of the tracer's transparency.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

import gepflow
import percentiles
import tracing
from workloads import PassResult


def test_tail_percentile_needs_ten_samples_beyond():
    assert not percentiles.has_p90(20)
    assert not percentiles.has_p90(99)
    assert percentiles.has_p90(100)
    assert percentiles.has_p90(180)
    assert percentiles.has_p90(10_000)


def test_latency_summary_omits_p90_at_twenty_samples():
    values = [float(v) for v in range(20, 0, -1)]
    assert percentiles.latency_summary(values) == {"p50": 10.5}
    hundred = [float(v) for v in range(1, 101)]
    assert percentiles.latency_summary(hundred) == {"p50": 50.5, "p90": 90.0}
    assert percentiles.latency_summary([]) == {}


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = (2.75, 5.5, 8.25)
    assert percentiles.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_self_time_of_nested_spans():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 4.0, 3.0]
    parents = [-1, 0, 1]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 5] and [3, 7] overlap; [9, 12] sticks out past the parent
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = tracing.self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1:] == pytest.approx([4.0, 4.0, 3.0])


def test_layer_self_times_sum_within_root_spans():
    tracer = tracing.Tracer()
    for name, start, end, parent in (
        ("harness.sweep", 0.0, 10.0, -1),
        ("problems.gen", 1.0, 3.0, 0),
        ("rng.normals", 1.5, 2.5, 1),
        ("solvers.solve", 4.0, 9.0, 0),
        ("solvers.restart", 4.5, 8.5, 3),
        ("priors.project", 5.0, 6.0, 4),
    ):
        idx = tracer.open(name)
        tracer.close(idx)
        tracer.starts[idx], tracer.ends[idx], tracer.parents[idx] = start, end, parent
    totals, calls, layer_self = tracing.summarize(tracer)
    assert layer_self == pytest.approx(
        {"harness": 3.0, "problems": 1.0, "rng": 1.0, "solvers": 4.0, "priors": 1.0}
    )
    assert sum(layer_self.values()) == pytest.approx(10.0)
    assert tracing.root_seconds(tracer, ["harness.sweep"]) == pytest.approx(10.0)
    assert tracing.root_seconds(tracer, ["solvers.solve", "rng.normals"]) == 0.0
    assert totals["solvers.solve"] == pytest.approx(5.0)


def _package_refs():
    refs = {}
    for name, mod in list(sys.modules.items()):
        if name == "gepflow" or name.startswith("gepflow."):
            for key, value in vars(mod).items():
                refs[(name, key)] = value
                if isinstance(value, dict):
                    for k, v in value.items():
                        refs[(name, key, k)] = v
    refs["NormalStream.normals"] = gepflow.NormalStream.__dict__["normals"]
    return refs


def _traced(fn):
    before = _package_refs()
    tracer = tracing.Tracer()
    hooks = tracing.install(tracer)
    try:
        result = fn()
    finally:
        hooks.restore()
    after = _package_refs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapped attribute was not restored"
    return result, tracer, hooks


def _sweep_rows():
    spec = gepflow.SweepSpec(
        kind="diag_b", m_values=(60, 120, 240), n=12, solvers=("prfm", "ppower", "rifle"),
        trials=2, prior={"prior": "subspace", "k": 3}, s=4, restarts=3, max_iters=40,
    )
    rows = gepflow.run_sweep(spec)
    return [dataclasses.astuple(dataclasses.replace(r, wall_ms=0.0)) for r in rows]


def test_traced_sweep_rows_equal_untraced_rows():
    plain = _sweep_rows()
    traced, tracer, hooks = _traced(_sweep_rows)
    assert repr(traced) == repr(plain)
    assert not hooks.absent
    _, calls, _ = tracing.summarize(tracer)
    assert calls["harness.sweep"] == 1
    assert calls["problems.gen"] == 6
    assert calls["linalg.generalized_eig"] == 6
    assert calls["solvers.solve"] == 18
    assert calls["solvers.restart"] == 54
    assert calls["priors.sparse_truncate"] > 0 and calls["priors.project"] > 0
    metrics, absent, layer_self = tracing.layer_metrics(tracer, hooks.present, passes=1)
    assert not absent
    assert metrics["solvers.iterations"][0] >= calls["solvers.restart"]
    assert sum(layer_self.values()) <= metrics["harness.sweep_s"][0] + 1e-9


def test_traced_lemma_results_equal_untraced_results():
    def suites():
        return gepflow.run_lemma_suites(draws=200, seed=3)

    plain = suites()
    traced, tracer, hooks = _traced(suites)
    assert repr(traced) == repr(plain)
    metrics, _, _ = tracing.layer_metrics(tracer, hooks.present, passes=1)
    assert metrics["theory.checks"][0] == sum(r.draws for r in plain)
    assert metrics["linalg.generalized_eig_calls"][0] == 10


def test_traced_range_prior_estimate_equals_untraced_estimate():
    model = gepflow.random_mlp(16, 2, hidden=(8,), seed=5)
    v = gepflow.generative.forward(model, np.array([0.5, -0.25]))
    projector = gepflow.RangeProjector(
        model=model, config=gepflow.LatentProjectionConfig(steps=4, restarts=1, seed=7)
    )
    cfg = gepflow.SolverConfig(step_size=7.0 / 32.0, max_iters=5)

    def solve():
        inst = gepflow.gen_spiked(v, 200, seed=11)
        res = gepflow.run_with_restarts("prfm", inst.a_hat, inst.b_hat, cfg, 2, 13, p=projector)
        return res.estimate.tolist()

    plain = solve()
    traced, tracer, hooks = _traced(solve)
    assert traced == plain
    metrics, _, _ = tracing.layer_metrics(tracer, hooks.present, passes=1)
    projections = metrics["priors.project_calls"][0]
    assert projections == metrics["solvers.iterations"][0]
    # each projection: 1 start + 4 Adam steps, each a forward and a backward
    assert metrics["generative.fwd_bwd_calls"][0] == projections * 5 * 2


def test_missing_hook_target_is_reported_absent():
    extra = tracing.Hook("priors.sparse_truncate", "gepflow.solvers", "no_such_function")
    hooks_table = tuple(h for h in tracing.HOOKS if h.name != "priors.sparse_truncate")
    tracer = tracing.Tracer()
    hooks = tracing.install(tracer, (*hooks_table, extra))
    hooks.restore()
    assert hooks.absent == ["gepflow.solvers.no_such_function"]
    metrics, absent, _ = tracing.layer_metrics(tracer, hooks.present, passes=1)
    assert {"priors.sparse_truncate_s", "priors.sparse_truncate_calls", "solvers.self_s"} == set(
        absent
    )
    assert "priors.project_s" in metrics


def test_failed_gate_counts_every_item_of_the_pass():
    assert PassResult(items=100, failed=0, gates={"slope": True}).failed == 0
    assert PassResult(items=100, failed=2, gates={"slope": True}).failed == 2
    assert PassResult(items=100, failed=0, gates={"slope": False}).failed == 100


def test_benchmark_manifest_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    names = [m["name"] for m in manifest["per_layer"]]
    assert names == [*tracing.LAYER_METRICS, "trace.overhead_frac", "trace.hooks_absent"]
