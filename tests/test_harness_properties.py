"""Property tests for the sweep statistics, each against a second route.

`fit_loglog_slope` takes its line from Python's `statistics` module; the
oracle `reference_loglog_fit` keeps the plain centered-sum formula it
replaced. `summarize` takes its means and standard deviations from the
same module; numpy's `mean` and `std(ddof=1)` are the second route there.
`SweepSpec` leaves its step, iteration cap and stop tolerance to the
`SolverConfig` it builds, so it refuses exactly the values that
`SolverConfig` refuses, with the same error.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gepflow.harness import ResultRow, SweepSpec, fit_loglog_slope, summarize
from gepflow.solvers import SolverConfig
from oracles import reference_loglog_fit

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def rate_points(draw):
    """3-8 distinct m on a doubling grid from 10 to 81,920, with errors
    following m**slope (slope in [-1.5, -0.3]) times a factor within
    e**0.1, so the errors span up to five decades and the fitted slope
    stays away from zero."""
    exponents = draw(st.lists(st.integers(0, 13), min_size=3, max_size=8, unique=True))
    slope = draw(st.floats(-1.5, -0.3))
    level = draw(st.floats(-5.0, 5.0))
    pairs = []
    for j in exponents:
        m = 10 * 2**j
        noise = draw(st.floats(-0.1, 0.1))
        pairs.append((m, math.exp(level + slope * math.log(m) + noise)))
    return pairs


@PROPERTY_SETTINGS
@given(rate_points())
def test_fit_matches_reference_formula(pairs):
    slope, intercept, r_squared = fit_loglog_slope(pairs)
    ref_slope, ref_intercept, ref_r_squared = reference_loglog_fit(pairs)
    assert math.isclose(slope, ref_slope, rel_tol=1e-12)
    assert math.isclose(r_squared, ref_r_squared, rel_tol=1e-12)
    # The intercept can land near zero, where only an absolute bound means much.
    assert math.isclose(intercept, ref_intercept, rel_tol=1e-12, abs_tol=1e-12)


def _row(solver, m, trial, cos, dist, ok):
    return ResultRow(
        solver=solver, m=m, trial=trial, cos_sim=cos, abs_cos_sim=cos,
        dist=dist, signed_dist_min=dist, iterations=5, stop_reason="converged",
        wall_ms=0.0, status="ok" if ok else "AllRunsFailed",
    )


@st.composite
def sweep_rows(draw):
    """Up to 24 rows over two solvers and two m, each ok or failed."""
    rows = []
    for trial in range(draw(st.integers(1, 24))):
        rows.append(_row(
            draw(st.sampled_from(("prfm", "rifle"))),
            draw(st.sampled_from((100, 400))),
            trial,
            draw(st.floats(0.0, 1.0)),
            draw(st.floats(0.0, math.sqrt(2.0))),
            draw(st.booleans()),
        ))
    return rows


@PROPERTY_SETTINGS
@given(sweep_rows())
def test_summary_statistics_match_numpy(rows):
    for cell in summarize(rows):
        ok = [r for r in rows if (r.solver, r.m) == (cell.solver, cell.m) and r.status == "ok"]
        assert cell.count == len(ok)
        for mean, std, values in (
            (cell.mean_abs_cos, cell.std_abs_cos, [r.abs_cos_sim for r in ok]),
            (cell.mean_signed_dist, cell.std_signed_dist, [r.signed_dist_min for r in ok]),
        ):
            if not values:
                assert math.isnan(mean) and math.isnan(std)
                continue
            assert abs(mean - np.mean(values)) <= 1e-15
            want_std = np.std(values, ddof=1) if len(values) > 1 else 0.0
            assert abs(std - want_std) <= 1e-15


MIXED = (math.nan, math.inf, -math.inf, -1, 0, 0.1, 2.5, True, "3", None)
#: SweepSpec field -> the SolverConfig field it becomes
SOLVER_FIELDS = {"eta": "step_size", "max_iters": "max_iters", "stop_tol": "stop_tol"}


def _refusal(build, **values):
    try:
        build(**values)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@PROPERTY_SETTINGS
@given(st.dictionaries(st.sampled_from(tuple(SOLVER_FIELDS)), st.sampled_from(MIXED)))
def test_sweep_spec_refuses_solver_values_as_solver_config_does(values):
    spec_refusal = _refusal(
        SweepSpec, kind="spiked", m_values=(20,), n=4, solvers=("prfm",), trials=1, **values
    )
    config = {"step_size": 0.1, "max_iters": 5}
    config.update({SOLVER_FIELDS[name]: value for name, value in values.items()})
    assert spec_refusal == _refusal(SolverConfig, **config)
