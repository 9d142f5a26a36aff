"""Random-stream contract: determinism, prefix stability, distribution sanity.

The property tests pin every draw, byte for byte, to `oracles.reference_draws`,
which restates the module docstring's Philox/Box-Muller formulas in one
unchunked pass, including request sizes on both sides of a chunk boundary.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gepflow.rng import _CHUNK_PAIRS, NormalStream

from oracles import reference_draws, reference_normals

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

_CHUNK = 2 * _CHUNK_PAIRS  # normals per full chunk
counts = st.one_of(
    st.sampled_from((1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)),
    st.integers(0, 100).map(lambda c: 2 * c + 1),
    st.integers(0, 300),
)
seeds = st.integers(-(2**65), 2**65)


def test_determinism():
    a = NormalStream(123, stream=4).normals(100)
    b = NormalStream(123, stream=4).normals(100)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = NormalStream(123, stream=0).normals(50)
    b = NormalStream(123, stream=1).normals(50)
    c = NormalStream(124, stream=0).normals(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prefix_stability():
    # The first k draws never depend on how many more are requested.
    whole = NormalStream(9, stream=2).normals(40)
    s = NormalStream(9, stream=2)
    first, second = s.normals(10), s.normals(30)
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_odd_request_consumes_full_pair():
    # normals(3) consumes 4 words; the next draw starts at word 4.
    s1 = NormalStream(77)
    s1.normals(3)
    tail1 = s1.normals(2)
    s2 = NormalStream(77)
    s2.normals(4)
    tail2 = s2.normals(2)
    assert np.array_equal(tail1, tail2)


def test_moments():
    z = NormalStream(2024).normals(200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.std(z)) - 1.0) < 0.01
    # Box-Muller must not produce pathological tails or NaNs.
    assert np.all(np.isfinite(z))
    assert float(np.max(np.abs(z))) < 7.0


def test_uniforms_range_and_mean():
    u = NormalStream(5).uniforms(100_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(float(np.mean(u)) - 0.5) < 0.005


def test_unit_vector_is_unit():
    s = NormalStream(1)
    for n in (1, 2, 7, 64):
        assert abs(np.linalg.norm(s.unit_vector(n)) - 1.0) < 1e-12


def test_ball_point_inside_radius():
    s = NormalStream(6)
    radii = [np.linalg.norm(s.ball_point(8, 2.5)) for _ in range(500)]
    assert max(radii) <= 2.5 + 1e-12
    # Radii follow r * U^(1/k): the median should sit near 2.5 * 0.5^(1/8).
    assert abs(np.median(radii) - 2.5 * 0.5 ** (1 / 8)) < 0.1


@pytest.mark.parametrize("n", [0, -3])
def test_unit_vector_refuses_empty_dimension(n):
    # An empty draw has norm 0, so the retry loop used to spin forever.
    with pytest.raises(ValueError, match="dimension"):
        NormalStream(1).unit_vector(n)


def test_ball_point_refuses_empty_dimension():
    with pytest.raises(ValueError, match="dimension"):
        NormalStream(1).ball_point(0, 1.0)


def test_matrix_row_major_order():
    m = NormalStream(3).matrix(4, 5)
    flat = NormalStream(3).normals(20)
    assert np.array_equal(m.reshape(-1), flat)


@PROPERTY_SETTINGS
@given(seed=seeds, stream=seeds, count=counts)
def test_normals_match_contract(seed, stream, count):
    s = NormalStream(seed, stream=stream)
    assert s.normals(count).tobytes() == reference_normals(seed, stream, count).tobytes()
    # The same words were consumed: the next draw is the oracle's next draw.
    expected = reference_draws(seed, stream, [("normals", count), ("uniforms", 3)])[1]
    assert s.uniforms(3).tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    stream=seeds,
    calls=st.lists(st.tuples(st.sampled_from(("normals", "uniforms")), counts), max_size=6),
)
def test_interleaved_draws_match_contract(seed, stream, calls):
    s = NormalStream(seed, stream=stream)
    got = [getattr(s, kind)(count) for kind, count in calls]
    got.append(s.uniforms(2))
    expected = reference_draws(seed, stream, [*calls, ("uniforms", 2)])
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


def test_normals_peak_memory_near_output_size():
    # Chunked evaluation keeps only cache-sized temporaries alive next to the
    # output; whole-request temporaries would peak at several output sizes.
    count = 2_000_000
    stream = NormalStream(11)
    tracemalloc.start()
    try:
        stream.normals(count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= count * 8 + 4 * 2**20
