"""Sweep orchestration and metric tests.

The metric identity sqrt(2 - 2|cos|) is the independent oracle for
signed_distance (which computes the min of two norms directly); sweep
determinism is checked bytes-against-bytes across parallelism degrees.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gepflow.harness as harness
from gepflow.errors import AllRunsFailed, DegenerateFit, ZeroVector
from gepflow.harness import (
    CSV_HEADER,
    ResultRow,
    SummaryCell,
    SweepSpec,
    cosine_similarity,
    fit_loglog_slope,
    plateau_index,
    rows_to_csv,
    run_sweep,
    signed_distance,
    summarize,
    summary_to_json,
    summary_to_text,
)
from gepflow.rng import NormalStream


class TestMetrics:
    def test_aligned_antialigned_orthogonal(self):
        v = NormalStream(1, stream=0).unit_vector(9)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)
        w = NormalStream(2, stream=0).unit_vector(9)
        w = w - (w @ v) * v
        w /= np.linalg.norm(w)
        assert abs(cosine_similarity(v, w)) < 1e-12

    def test_defensive_renormalization(self):
        v = np.zeros(4)
        v[0] = 1.0
        u = v * (1.0 + 5e-9)  # inside the 1e-8 gate
        assert cosine_similarity(v, u) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit_and_zero(self):
        v = np.zeros(4)
        v[0] = 1.0
        with pytest.raises(ValueError):
            cosine_similarity(v, 2.0 * v)
        with pytest.raises(ZeroVector):
            cosine_similarity(v, np.zeros(4))
        with pytest.raises(ValueError):
            signed_distance(2.0 * v, v)

    def test_signed_distance_examples(self):
        v = np.zeros(5)
        v[0] = 1.0
        w = np.zeros(5)
        w[1] = 1.0
        assert signed_distance(v, v) == pytest.approx(0.0, abs=1e-12)
        assert signed_distance(-v, v) == pytest.approx(0.0, abs=1e-12)
        assert signed_distance(w, v) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matches_cosine_closed_form(self):
        # 10^4 random unit pairs: min-of-norms equals sqrt(2 - 2|cos|).
        stream = NormalStream(3, stream=0)
        for _ in range(10_000):
            u = stream.unit_vector(6)
            v = stream.unit_vector(6)
            direct = signed_distance(u, v)
            closed = math.sqrt(max(2.0 - 2.0 * abs(cosine_similarity(v, u)), 0.0))
            assert abs(direct - closed) <= 1e-10

    def test_plateau_index(self):
        assert plateau_index([1.0, 0.5, 0.25, 0.25, 0.3]) == 2
        assert plateau_index([1.0, 0.5, 0.2]) == 2  # never stalls -> last
        assert plateau_index([1.0]) == 0
        assert plateau_index([1.0, 1.0 - 5e-8]) == 0  # within slack


class TestSweepSpec:
    def _base(self, **kw):
        base = dict(
            kind="spiked", m_values=(50, 100), n=8,
            solvers=("prfm",), trials=2,
        )
        base.update(kw)
        return SweepSpec(**base)

    def test_defaults(self):
        spec = self._base()
        assert spec.restarts == 10
        assert spec.eta == pytest.approx(7.0 / 32.0)
        assert spec.eta_prime == pytest.approx(35.0 / 32.0)
        assert spec.stop_tol == 1e-9

    def test_m_values_normalized_to_tuple(self):
        spec = self._base(m_values=[50, 100])
        assert spec.m_values == (50, 100)

    @pytest.mark.parametrize("m", [12.9, 50.0, True, "50"])
    def test_non_integer_m_refused(self, m):
        # int() used to read 12.9 as 12 and True as 1
        with pytest.raises(ValueError, match="m_values must be an integer"):
            self._base(m_values=(m, 100))

    def test_validation(self):
        with pytest.raises(ValueError):
            self._base(kind="unknown")
        with pytest.raises(ValueError):
            self._base(m_values=())
        with pytest.raises(ValueError):
            self._base(m_values=(100, 50))
        with pytest.raises(ValueError):
            self._base(m_values=(50, 50))
        with pytest.raises(ValueError):
            self._base(solvers=("gradient",))
        with pytest.raises(ValueError):
            self._base(solvers=("rifle",))  # rifle without s
        with pytest.raises(ValueError):
            self._base(trials=0)
        with pytest.raises(ValueError):
            self._base(prior={"prior": "mystery"})
        with pytest.raises(ValueError):
            self._base(base_seed=-1)

    @pytest.mark.parametrize("stop_tol", [math.nan, -1.0, math.inf])
    def test_bad_stop_tol_rejected(self, stop_tol):
        with pytest.raises(ValueError, match="stop_tol"):
            self._base(stop_tol=stop_tol)

    def test_prior_that_is_not_a_dict_is_a_value_error(self):
        # It used to raise AttributeError from str.get.
        with pytest.raises(ValueError, match="prior spec"):
            self._base(prior="sparse")


class TestRunSweep:
    def test_single_cell_single_row(self):
        spec = SweepSpec(
            kind="spiked", m_values=(400,), n=16, solvers=("prfm",),
            trials=1, restarts=2, max_iters=80, base_seed=5,
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        assert row.solver == "prfm" and row.m == 400 and row.trial == 0
        assert row.status == "ok"
        assert -1.0 <= row.cos_sim <= 1.0
        assert row.abs_cos_sim == abs(row.cos_sim)
        assert row.signed_dist_min >= 0.0
        assert row.signed_dist_min <= row.dist + 1e-12
        assert row.iterations >= 1
        assert row.abs_cos_sim > 0.8  # m/n = 25 is an easy regime

    def test_rows_sorted_and_all_cells_present(self):
        spec = SweepSpec(
            kind="spiked", m_values=(60, 120), n=8,
            solvers=("prfm", "ppower"), trials=3, restarts=1, max_iters=40,
        )
        rows = run_sweep(spec)
        assert len(rows) == 2 * 2 * 3
        keys = [(r.solver, r.m, r.trial) for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_deterministic_across_jobs(self):
        spec = SweepSpec(
            kind="diag_b", m_values=(80, 160), n=12,
            solvers=("prfm", "ppower"), trials=3, restarts=2, max_iters=60,
            base_seed=7,
        )
        serial = run_sweep(spec, jobs=1, timing="zero")
        parallel = run_sweep(spec, jobs=4, timing="zero")
        assert serial == parallel
        assert rows_to_csv(serial) == rows_to_csv(parallel)

    def test_cell_roles_never_share_a_seed(self):
        # A cell's key leaves room for its four roles (instance, truth,
        # prior, restarts), so no seed serves two roles or two cells.
        spec = SweepSpec(
            kind="spiked", m_values=(60, 120, 240), n=8, solvers=("prfm",), trials=5,
            base_seed=3,
        )
        seeds = [
            harness._cell_key(spec, mi, trial) + role
            for mi in range(len(spec.m_values))
            for trial in range(spec.trials)
            for role in range(4)
        ]
        assert len(set(seeds)) == len(seeds)

    def test_solvers_share_cell_instance(self):
        # Identical truth per cell: with enough samples both solvers land on
        # the same planted vector, so their estimates nearly agree.
        spec = SweepSpec(
            kind="spiked", m_values=(2000,), n=12,
            solvers=("ppower", "prfm"), trials=1, restarts=2, max_iters=120,
        )
        rows = run_sweep(spec)
        by_solver = {r.solver: r for r in rows}
        assert by_solver["prfm"].abs_cos_sim > 0.95
        assert by_solver["ppower"].abs_cos_sim > 0.95

    def test_timing_zero_blanks_wall_clock(self):
        spec = SweepSpec(
            kind="spiked", m_values=(50,), n=8, solvers=("prfm",),
            trials=1, restarts=1, max_iters=20,
        )
        rows = run_sweep(spec, timing="zero")
        assert rows[0].wall_ms == 0.0
        real = run_sweep(spec, timing="real")
        assert real[0].wall_ms > 0.0

    def test_failed_solver_yields_status_row(self, monkeypatch):
        import gepflow.solvers as solvers_mod

        real = solvers_mod.run_with_restarts

        def flaky(solver, *args, **kwargs):
            if solver == "ppower":
                raise AllRunsFailed("forced failure for the error path")
            return real(solver, *args, **kwargs)

        monkeypatch.setattr(harness, "run_with_restarts", flaky)
        spec = SweepSpec(
            kind="spiked", m_values=(50,), n=8, solvers=("prfm", "ppower"),
            trials=2, restarts=1, max_iters=20,
        )
        rows = run_sweep(spec)
        assert len(rows) == 4
        for row in rows:
            if row.solver == "ppower":
                assert row.status == "AllRunsFailed"
                assert math.isnan(row.cos_sim) and math.isnan(row.signed_dist_min)
                assert row.iterations == 0
            else:
                assert row.status == "ok"

    def test_sweep_solves_without_trace_rows(self, monkeypatch):
        import gepflow.solvers as solvers_mod

        real = solvers_mod.run_with_restarts
        calls = []

        def spy(solver, a_hat, b_hat, cfg, *args, **kwargs):
            result = real(solver, a_hat, b_hat, cfg, *args, **kwargs)
            calls.append((solver, cfg.record_trace, result.trace))
            return result

        monkeypatch.setattr(harness, "run_with_restarts", spy)
        spec = SweepSpec(
            kind="diag_b", m_values=(60, 120), n=8, solvers=("prfm", "ppower", "rifle"),
            trials=2, restarts=3, max_iters=40, s=3,
        )
        rows = run_sweep(spec)
        assert len(calls) == len(rows) == 12
        assert all(record is False for _, record, _ in calls)
        for solver in spec.solvers:
            traces = [trace for name, _, trace in calls if name == solver]
            solver_rows = sorted(
                (r for r in rows if r.solver == solver), key=lambda r: (r.m, r.trial)
            )
            assert [r.iterations for r in solver_rows] == [t.iterations_run for t in traces]
            assert all(t.rows == () for t in traces)

    def test_cells_share_the_spec_solver_config(self, monkeypatch):
        import gepflow.solvers as solvers_mod

        real = solvers_mod.run_with_restarts
        seen = []

        def spy(solver, a_hat, b_hat, cfg, *args, **kwargs):
            seen.append(cfg)
            return real(solver, a_hat, b_hat, cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "run_with_restarts", spy)
        spec = SweepSpec(
            kind="spiked", m_values=(40, 80), n=6, solvers=("prfm", "ppower"),
            trials=2, restarts=2, max_iters=15,
        )
        for jobs in (1, 2):
            run_sweep(spec, jobs=jobs)
        assert len(seen) == 16
        assert all(cfg is spec.solver_config for cfg in seen)
        assert spec.solver_config.record_trace is False

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_model_read_once_per_sweep(self, tmp_path, monkeypatch, jobs):
        import json

        import gepflow.priors as priors_mod
        from gepflow.generative import model_to_json, random_mlp

        path = tmp_path / "mlp.json"
        path.write_text(json.dumps(model_to_json(random_mlp(8, 2, hidden=(4,), seed=1))))
        real = priors_mod.model_from_json
        calls = []

        def counted(obj):
            calls.append(1)
            return real(obj)

        monkeypatch.setattr(priors_mod, "model_from_json", counted)
        spec = SweepSpec(
            kind="spiked", m_values=(40, 80), n=8, solvers=("prfm",), trials=2,
            restarts=1, max_iters=5,
            prior={"prior": "range", "model_path": str(path), "projection": {"steps": 3}},
        )
        rows = run_sweep(spec, jobs=jobs, timing="zero")
        assert len(rows) == 4 and all(r.status == "ok" for r in rows)
        assert len(calls) == 1
        # Cells share the one projector; results still match a serial run.
        assert rows == run_sweep(spec, jobs=1, timing="zero")

    def test_more_samples_reduce_median_error(self):
        spec = SweepSpec(
            kind="spiked", m_values=(150, 2400), n=48,
            solvers=("prfm",), prior={"prior": "subspace", "k": 6},
            trials=20, restarts=2, max_iters=200, base_seed=11,
        )
        rows = run_sweep(spec)
        cells = {c.m: c for c in summarize(rows)}
        assert cells[150].count == 20 and cells[2400].count == 20
        assert cells[2400].median_signed_dist <= cells[150].median_signed_dist

    def test_validation(self):
        spec = SweepSpec(
            kind="spiked", m_values=(50,), n=8, solvers=("prfm",), trials=1
        )
        with pytest.raises(ValueError):
            run_sweep(spec, jobs=0)
        with pytest.raises(ValueError):
            run_sweep(spec, timing="fast")


class TestSlopeFit:
    def test_inverse_sqrt_recovers_half(self):
        pairs = [(m, 3.0 / math.sqrt(m)) for m in (100, 400, 1600, 6400)]
        slope, intercept, r2 = fit_loglog_slope(pairs)
        assert abs(slope - (-0.5)) <= 1e-10
        assert abs(intercept - math.log(3.0)) <= 1e-10
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_flat(self):
        slope, _, r2 = fit_loglog_slope([(10, 0.3), (100, 0.3), (1000, 0.3)])
        assert slope == pytest.approx(0.0, abs=1e-14)
        assert r2 == 1.0  # zero residual by convention

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            fit_loglog_slope([(10, 0.5), (20, 0.4)])
        with pytest.raises(DegenerateFit):
            fit_loglog_slope([(10, 0.5), (10, 0.4), (10, 0.3)])
        with pytest.raises(DegenerateFit):
            fit_loglog_slope([(10, 0.5), (20, 0.0), (40, 0.3)])
        with pytest.raises(DegenerateFit):
            fit_loglog_slope([(10, 0.5), (20, -0.1), (40, 0.3)])

    def test_known_two_line_blend(self):
        # Symmetric design: slope is the average of segment slopes.
        pairs = [(math.e, math.e**2.0), (math.e**2, math.e**3.0), (math.e**3, math.e**5.0)]
        slope, _, _ = fit_loglog_slope(pairs)
        assert slope == pytest.approx(1.5, abs=1e-12)


def _row(solver="prfm", m=100, trial=0, cos=0.9, dist=0.2, status="ok"):
    return ResultRow(
        solver=solver, m=m, trial=trial, cos_sim=cos, abs_cos_sim=abs(cos),
        dist=dist, signed_dist_min=dist, iterations=5, stop_reason="converged",
        wall_ms=1.0, status=status,
    )


class TestSummarize:
    def test_two_point_arithmetic(self):
        rows = [
            _row(trial=0, cos=0.7, dist=0.7),
            _row(trial=1, cos=0.9, dist=0.9),
        ]
        (cell,) = summarize(rows)
        assert cell.count == 2
        assert_allclose(cell.mean_abs_cos, 0.8, atol=1e-15)
        assert_allclose(cell.std_abs_cos, math.sqrt(0.02), atol=1e-15)
        assert_allclose(cell.mean_signed_dist, 0.8, atol=1e-15)
        assert_allclose(cell.std_signed_dist, math.sqrt(0.02), atol=1e-15)
        assert_allclose(cell.median_signed_dist, 0.8, atol=1e-15)

    def test_single_row_zero_std(self):
        (cell,) = summarize([_row(cos=0.75, dist=0.3)])
        assert cell.count == 1
        assert cell.std_abs_cos == 0.0 and cell.std_signed_dist == 0.0

    def test_failed_rows_never_contaminate(self):
        good = [_row(trial=0, cos=0.7, dist=0.7), _row(trial=1, cos=0.9, dist=0.9)]
        bad = [
            _row(trial=2, cos=math.nan, dist=math.nan, status="AllRunsFailed"),
        ]
        assert summarize(good + bad) == summarize(good)

    def test_all_failed_cell_visible_with_nans(self):
        rows = [_row(cos=math.nan, dist=math.nan, status="AllRunsFailed")]
        (cell,) = summarize(rows)
        assert cell.count == 0
        assert math.isnan(cell.mean_abs_cos)
        assert math.isnan(cell.median_signed_dist)

    def test_grouping_sorted(self):
        rows = [
            _row(solver="rifle", m=200),
            _row(solver="prfm", m=200),
            _row(solver="prfm", m=100),
        ]
        cells = summarize(rows)
        assert [(c.solver, c.m) for c in cells] == [
            ("prfm", 100), ("prfm", 200), ("rifle", 200),
        ]


class TestOutputs:
    def test_csv_shape(self):
        rows = [_row()]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "prfm"
        assert int(fields[1]) == 100
        assert float(fields[3]) == 0.9
        assert fields[-1] == "ok"

    def test_csv_header_is_the_row_fields(self):
        names = [f.name for f in dataclasses.fields(ResultRow)]
        assert CSV_HEADER == ",".join(names)
        assert CSV_HEADER == (
            "solver,m,trial,cos_sim,abs_cos_sim,dist,signed_dist_min,"
            "iterations,stop_reason,wall_ms,status"
        )

    def test_csv_golden_bytes(self):
        ok = ResultRow(
            solver="prfm", m=250, trial=3, cos_sim=-0.1, abs_cos_sim=0.1,
            dist=1 / 3, signed_dist_min=2 / 3, iterations=17, stop_reason="cycled",
            wall_ms=12.3456, status="ok",
        )
        failed = ResultRow(
            solver="ppower", m=250, trial=0, cos_sim=math.nan, abs_cos_sim=math.nan,
            dist=math.nan, signed_dist_min=math.nan, iterations=0, stop_reason="",
            wall_ms=0.0, status="AllRunsFailed",
        )
        assert rows_to_csv([ok, failed]) == (
            "solver,m,trial,cos_sim,abs_cos_sim,dist,signed_dist_min,iterations,"
            "stop_reason,wall_ms,status\n"
            "prfm,250,3,-0.1,0.1,0.3333333333333333,0.6666666666666666,17,cycled,12.346,ok\n"
            "ppower,250,0,nan,nan,nan,nan,0,,0.000,AllRunsFailed\n"
        )

    def test_csv_nan_rendering(self):
        text = rows_to_csv([_row(cos=math.nan, dist=math.nan, status="AllRunsFailed")])
        assert "nan" in text.splitlines()[1]

    def test_summary_text_aligned(self):
        cells = summarize([_row(cos=0.7, dist=0.7), _row(trial=1, cos=0.9, dist=0.9)])
        text = summary_to_text(cells)
        assert "solver" in text and "median_dist" in text
        assert "0.8000" in text

    def test_summary_json_null_for_nan(self):
        import json

        cells = summarize([_row(cos=math.nan, dist=math.nan, status="boom")])
        payload = summary_to_json(cells)
        assert list(payload[0]) == [f.name for f in dataclasses.fields(SummaryCell)]
        assert payload[0]["mean_abs_cos"] is None
        json.dumps(payload)  # strict-JSON serializable


_SPEC = dict(kind="spiked", m_values=(20,), n=4, solvers=("prfm",), trials=1)

#: Every input refusal of the module that no other test reaches: (call,
#: error class, the whole message).
REFUSALS = [
    pytest.param(lambda: SweepSpec(**{**_SPEC, "n": 1}), ValueError, "n must be >= 2",
                 id="n-below-two"),
    pytest.param(lambda: SweepSpec(**{**_SPEC, "restarts": 0}), ValueError,
                 "restarts must be >= 1", id="restarts-zero"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
