import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from meandimlab.dynsys import (
    GOLDEN_THETA,
    ConfigurationError,
    SystemSpec,
    WindowExhaustionError,
    bowen_dist,
    bowen_dmat,
    circle_block,
    dist,
    make_point,
    sample_points,
    sup_dmat,
)

SPEC = SystemSpec(D=1, window_radius=64)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SystemSpec(D=-1)
    with pytest.raises(ConfigurationError):
        SystemSpec(theta=Fraction(1, 3))  # denominator too small
    with pytest.raises(ConfigurationError):
        SystemSpec(decay=1.0)
    SystemSpec(D=0)  # rotation-only degenerate system is allowed


def test_golden_theta_value():
    assert GOLDEN_THETA == Fraction(618033988749, 10**12)


def test_circle_block_matches_python_ints():
    ks = [-3, 0, 5, 123456]
    for k0 in ks:
        block = circle_block(SPEC, 777, k0, 4)
        for j in range(4):
            expect = (777 + (k0 + j) * SPEC.p) % SPEC.q
            assert int(block[j]) == expect


def test_circle_block_chunking_large_shift():
    # anchor re-basing must keep values exact for shifts beyond the naive
    # int64 product limit
    k0 = 10**13
    block = circle_block(SPEC, 0, k0, 2)
    assert int(block[0]) == (k0 * SPEC.p) % SPEC.q
    assert int(block[1]) == ((k0 + 1) * SPEC.p) % SPEC.q


def test_shift_identity_and_circle():
    x = make_point(SPEC, cube=0.25, circle=Fraction(1, 8))
    assert x.shifted(0) == x
    y = x.shifted(1)
    assert y.circle_numerator() == (x.circle_numerator() + SPEC.p) % SPEC.q


def test_shift_round_trip_cube():
    x = sample_points(SPEC, 1, seed=5)[0]
    y = x.shifted(3).shifted(-3)
    assert y.offset == 0
    np.testing.assert_array_equal(y.cube, x.cube)
    for k in (-4, 0, 7):
        np.testing.assert_array_equal(y.cube_at(k), x.cube_at(k))


@given(a=st.integers(-30, 30), b=st.integers(-30, 30))
@settings(max_examples=40, deadline=None)
def test_shift_composition(a, b):
    x = make_point(SPEC, cube=0.5, circle=Fraction(3, 10))
    xa = x.shifted(a).shifted(b)
    xb = x.shifted(a + b)
    assert xa.offset == xb.offset
    assert xa.circle_numerator() == xb.circle_numerator()


def test_dist_zero_and_coordinate_difference():
    x = make_point(SPEC, cube=0.5, circle=0.0)
    assert dist(x, x) == 0.0
    arr = np.full((129, 1), 0.5)
    arr[64, 0] = 0.9  # symbol 0 differs by 0.4
    y = make_point(SPEC, cube=arr, circle=0.0)
    assert dist(x, y) == pytest.approx(0.4, abs=1e-15)


def test_dist_circle_only():
    x = make_point(SPEC, cube=0.5, circle=Fraction(0))
    y = make_point(SPEC, cube=0.5, circle=Fraction(3, 10))
    assert dist(x, y) == pytest.approx(0.3, abs=1e-12)


def test_bowen_monotone_and_n1():
    xs = sample_points(SPEC, 2, seed=11)
    x, y = xs
    d1 = bowen_dist(x, y, 1)
    assert d1 == dist(x, y)
    d3 = bowen_dist(x, y, 3)
    d5 = bowen_dist(x, y, 5)
    assert d1 <= d3 <= d5


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_metric_symmetry_and_triangle(seed):
    xs = sample_points(SPEC, 3, seed=seed)
    a, b, c = xs
    assert dist(a, b) == pytest.approx(dist(b, a), abs=0)
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_window_exhaustion_guard():
    x = make_point(SPEC, cube=0.5, circle=0.0, radius=8)
    y = make_point(SPEC, cube=0.4, circle=0.0, radius=8)
    with pytest.raises(WindowExhaustionError):
        bowen_dist(x, y, 1)  # stored radius 8 < truncation margin
    # but explicit opt-out evaluates fine (extension is part of the point)
    assert bowen_dist(x, y, 1, check_margin=False) == pytest.approx(0.1, abs=1e-12)


def test_bowen_shift_weights():
    # a defect at symbol 3 enters the horizon-4 window at full weight
    arr = np.full((129, 1), 0.5)
    x = make_point(SPEC, cube=arr.copy(), circle=0.0)
    arr2 = arr.copy()
    arr2[64 + 3, 0] = 1.0
    y = make_point(SPEC, cube=arr2, circle=0.0)
    assert bowen_dist(x, y, 1) == pytest.approx(0.5 * SPEC.decay**3, abs=1e-12)
    assert bowen_dist(x, y, 4) == pytest.approx(0.5, abs=1e-12)


def _bowen_pair_loop(points, n):
    return np.array([[bowen_dist(a, b, n) for b in points] for a in points])


@pytest.mark.parametrize("D", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_bowen_dmat_equals_bowen_dist(D, n):
    pool = sample_points(SystemSpec(D=D), 6, seed=10 * D + n)
    pool += [pool[0].shifted(4), pool[3].shifted(-7), pool[1]]
    assert np.array_equal(bowen_dmat(pool, n), _bowen_pair_loop(pool, n))


def test_bowen_dmat_raises_like_bowen_dist():
    pts = sample_points(SPEC, 2, seed=1)
    short = pts[0].shifted(40)  # stored data ends at symbol 24
    other = sample_points(SystemSpec(D=2), 1, seed=1)[0]
    cases = [
        ([pts[1], short], 1, WindowExhaustionError),
        ([pts[0], other], 1, ConfigurationError),
        (pts, 0, ConfigurationError),
    ]
    for points, n, err in cases:
        with pytest.raises(err) as ref:
            bowen_dist(*points, n)
        with pytest.raises(err) as got:
            bowen_dmat(points, n)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("weighted", [False, True])
def test_sup_dmat_matches_pair_loop(weighted):
    rng = np.random.default_rng(3)
    rows = rng.random((7, 11))
    w = rng.random(11) if weighted else np.ones(11)
    ref = np.array([[np.max(np.abs(a - b) * w) for b in rows] for a in rows])
    assert np.array_equal(sup_dmat(rows, w if weighted else None), ref)
    assert np.array_equal(sup_dmat(np.zeros((3, 0))), np.zeros((3, 3)))


def test_sampling_determinism_and_stats():
    a = sample_points(SPEC, 5, seed=42)
    b = sample_points(SPEC, 5, seed=42)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u.cube, v.cube)
        assert u.circle_num == v.circle_num
    with pytest.raises(ConfigurationError):
        sample_points(SPEC, 0, seed=1)
    big = sample_points(SystemSpec(D=1, window_radius=4), 10**4, seed=7)
    mean = np.mean([p.cube.mean() for p in big])
    assert abs(mean - 0.5) < 0.02
