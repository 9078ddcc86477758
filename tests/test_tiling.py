"""Sliced Voronoi tilings: frozen geometry examples and lemma checks."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandimlab.checks import CheckResult
from meandimlab.dynsys import (
    ConfigurationError,
    SystemSpec,
    WindowExhaustionError,
    sample_points,
)
from meandimlab.marker import (
    MarkerSequence,
    MarkerSpec,
    make_marker_spec,
    marker_sequence,
    support_window_for,
)
from meandimlab.tiling import (
    IntervalTiling,
    TilingError,
    TilingParams,
    boundary_density,
    boundary_set,
    check_central_tile,
    check_coverage,
    check_edge_density,
    check_equivariance,
    check_interior_mass,
    check_survivor_level,
    check_tile_locality,
    good_tile,
    pair_boundary,
    slice_tiling,
    tiling_pair,
)

SYS = SystemSpec()

# A hand-built marker scale small enough for synthetic site grids while the
# params stay admissible (the knob bound forces M > 90 whenever R = 9).
SYNTH_SPEC = MarkerSpec(
    system=SYS,
    arc_center=Fraction(0),
    arc_radius=Fraction(1, 400),
    inner_radius=Fraction(1, 800),
    M=91,
    M1=105,
)
SYNTH_PARAMS = TilingParams(r=1.0, delta=0.5, c=1.5, M=91, M1=105)
W2 = SYNTH_SPEC.outer_num2 - SYNTH_SPEC.inner_num2  # ramp width, half-grid units


def synth_seq(support, t2, window, spec=SYNTH_SPEC):
    support = np.asarray(support, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    values = (spec.outer_num2 - t2) / float(spec.outer_num2 - spec.inner_num2)
    return MarkerSequence(
        spec=spec, window=window, support=support, values=values, support_t2=t2
    )


def ones_grid(step, offset=0, span=3000, spec=SYNTH_SPEC):
    support = np.arange(-span + offset, span + 1, step, dtype=np.int64)
    t2 = np.full(len(support), spec.inner_num2, dtype=np.int64)
    return synth_seq(support, t2, (-span, span), spec)


# ---------------------------------------------------------------------------
# params


def test_params_validation():
    good = TilingParams(r=1.0, delta=0.5, c=1.5, M=91, M1=105)
    assert good.R == 9.0
    assert good.H == 106 * 106
    assert good.cH == pytest.approx(1.5 * 106 * 106)
    assert good.margin == 3 * 106
    assert TilingParams(r=12.0, delta=0.5, c=1.5, M=241, M1=300).R == 12.0

    with pytest.raises(ConfigurationError):
        TilingParams(r=0.0, delta=0.5, c=1.5, M=91, M1=105)
    with pytest.raises(ConfigurationError):
        TilingParams(r=1.0, delta=0.0, c=1.5, M=91, M1=105)
    with pytest.raises(ConfigurationError):
        TilingParams(r=1.0, delta=1.0, c=1.5, M=91, M1=105)
    with pytest.raises(ConfigurationError):
        TilingParams(r=1.0, delta=0.5, c=1.0, M=91, M1=105)
    with pytest.raises(ConfigurationError):
        # c must stay strictly below 1/(1-delta) = 2
        TilingParams(r=1.0, delta=0.5, c=2.0, M=91, M1=105)
    with pytest.raises(ConfigurationError):
        # bound is 2R(c+1)/(c-1) = 90, strict
        TilingParams(r=1.0, delta=0.5, c=1.5, M=90, M1=105)
    with pytest.raises(ConfigurationError):
        TilingParams(r=1.0, delta=0.5, c=1.5, M=91, M1=91)


def test_pair_boundary_formula():
    # two sites at heights 1 and 2, slice depth 100: u = 5 + (102^2-101^2)/20
    assert pair_boundary(0, 1.0, 10, 2.0, 100.0) == pytest.approx(15.15, abs=1e-12)
    # equal heights: plain midpoint at any depth
    assert pair_boundary(0, 1.0, 10, 1.0, 7.0) == 5.0
    assert pair_boundary(-30, 1.0, 50, 1.0, 11236.0) == 10.0
    with pytest.raises(ConfigurationError):
        pair_boundary(10, 1.0, 0, 2.0, 100.0)


# ---------------------------------------------------------------------------
# synthetic grids: exact midpoints, dominated sites, ramp heights


def test_periodic_ones_midpoint_tiles():
    seq = ones_grid(step=100)
    t = slice_tiling(seq, SYNTH_PARAMS, SYNTH_PARAMS.H, (-500, 500))
    assert t.tile(0) == (-50.0, 50.0)
    assert t.tile(100) == (50.0, 150.0)
    assert t.tile(500) == (450.0, 500.0)  # clipped at the window edge
    assert t.tile(50) is None  # not a site
    with pytest.raises(KeyError):
        t.tile(2000)
    # adjacent tiles share endpoints bitwise
    assert np.all(t.hi[:-1] == t.lo[1:])
    cov = check_coverage(t)
    assert cov.passed, cov.detail
    assert check_tile_locality(t).passed
    assert check_survivor_level(t).passed


def test_good_tile_on_grids():
    seq = ones_grid(step=100)
    tH, tcH = tiling_pair(seq, SYNTH_PARAMS, (-500, 500))
    n, tile = good_tile(tH, tcH, SYNTH_PARAMS)
    assert n == 0
    assert tile == (-50.0, 50.0)
    assert check_central_tile(tH, tcH, SYNTH_PARAMS).passed

    # off-grid sites: the label nearest 0 owns it
    seq = ones_grid(step=100, offset=30)
    tH, tcH = tiling_pair(seq, SYNTH_PARAMS, (-500, 500))
    n, tile = good_tile(tH, tcH, SYNTH_PARAMS)
    assert n == 30
    assert tile == (-20.0, 80.0)
    assert abs(n) <= SYNTH_PARAMS.M1 + 1


def test_half_level_site_is_dominated():
    # ones every 200, one extra site at 100 with phi exactly 1/2
    support = np.arange(-3000, 3001, 200, dtype=np.int64)
    support = np.sort(np.append(support, 100))
    t2 = np.full(len(support), SYNTH_SPEC.inner_num2, dtype=np.int64)
    t2[support == 100] = SYNTH_SPEC.outer_num2 - W2 // 2
    seq = synth_seq(support, t2, (-3000, 3000))
    t = slice_tiling(seq, SYNTH_PARAMS, SYNTH_PARAMS.H, (-500, 500))
    assert t.tile(100) is None
    assert 100 in t.site_labels
    assert t.tile(0) == (-100.0, 100.0)
    assert t.tile(200) == (100.0, 300.0)
    assert check_survivor_level(t).passed
    assert check_coverage(t).passed
    assert check_tile_locality(t).passed


def test_ramp_site_matches_closed_form():
    # same grid but the middle site keeps phi = 0.9 (h = 10/9): it survives
    support = np.arange(-3000, 3001, 200, dtype=np.int64)
    support = np.sort(np.append(support, 100))
    t2 = np.full(len(support), SYNTH_SPEC.inner_num2, dtype=np.int64)
    t2[support == 100] = SYNTH_SPEC.outer_num2 - (9 * W2) // 10
    seq = synth_seq(support, t2, (-3000, 3000))
    level = SYNTH_PARAMS.H
    t = slice_tiling(seq, SYNTH_PARAMS, level, (-500, 500))
    tile = t.tile(100)
    assert tile is not None
    h = W2 / (9 * W2 / 10)
    assert tile[0] == pytest.approx(pair_boundary(0, 1.0, 100, h, level), abs=1e-9)
    assert tile[1] == pytest.approx(pair_boundary(100, h, 200, 1.0, level), abs=1e-9)
    # shared endpoints stay bitwise equal
    assert t.tile(0)[1] == tile[0]
    assert t.tile(200)[0] == tile[1]
    surv = check_survivor_level(t)
    assert surv.passed
    assert check_coverage(t).passed


def test_window_and_input_guards():
    seq = ones_grid(step=100)
    with pytest.raises(WindowExhaustionError):
        slice_tiling(seq, SYNTH_PARAMS, SYNTH_PARAMS.H, (-2800, 2800))
    with pytest.raises(ConfigurationError):
        slice_tiling(seq, SYNTH_PARAMS, 0.0, (-500, 500))
    with pytest.raises(ConfigurationError):
        slice_tiling(seq, SYNTH_PARAMS, SYNTH_PARAMS.H, (500, -500))
    mismatched = TilingParams(r=1.0, delta=0.5, c=1.5, M=91, M1=106)
    with pytest.raises(ConfigurationError):
        slice_tiling(seq, mismatched, mismatched.H, (-500, 500))
    # support times closer than M
    bad = synth_seq(
        [0, 50],
        [SYNTH_SPEC.inner_num2, SYNTH_SPEC.inner_num2],
        (-3000, 3000),
    )
    from meandimlab.marker import MarkerConstructionError

    with pytest.raises(MarkerConstructionError):
        slice_tiling(bad, SYNTH_PARAMS, SYNTH_PARAMS.H, (-500, 500))


# ---------------------------------------------------------------------------
# boundary sets and densities (hand-built tilings)


def make_tiling(labels, lo, hi, valid, params=SYNTH_PARAMS, level=None):
    labels = np.asarray(labels, dtype=np.int64)
    return IntervalTiling(
        params=params,
        level=params.H if level is None else level,
        valid_window=valid,
        labels=labels,
        lo=np.asarray(lo, dtype=np.float64),
        hi=np.asarray(hi, dtype=np.float64),
        site_labels=labels,
        site_phi=np.ones(len(labels)),
        label_range=(int(labels[0]) - 106, int(labels[-1]) + 106),
    )


def periodic_tiling():
    ks = np.arange(-10, 11)
    return make_tiling(10 * ks, 10 * ks - 5.0, 10 * ks + 5.0, (-107.0, 107.0))


def test_boundary_set_examples():
    t = periodic_tiling()
    segs = boundary_set(t, 1.0)
    expected = np.array([[10 * k + 4, 10 * k + 6] for k in range(-11, 11)], float)
    assert segs.shape == expected.shape
    assert np.allclose(segs, expected)

    single = make_tiling([0], [0.0], [10.0], (-4.0, 14.0))
    segs = boundary_set(single, 2.0)
    assert np.allclose(segs, [[-2.0, 2.0], [8.0, 12.0]])

    with pytest.raises(ConfigurationError):
        boundary_set(t, 0.0)


def test_boundary_density_examples():
    t = periodic_tiling()
    assert boundary_density(t, 1.0, 90.0) == 0.2
    assert boundary_density(t, 0.0, 90.0) == 0.0
    with pytest.raises(ConfigurationError):
        boundary_density(t, 1.0, 107.0)  # exceeds the certified window
    with pytest.raises(ConfigurationError):
        boundary_density(t, 1.0, 0.0)


def test_boundary_measure_shrinks_with_rho():
    t = periodic_tiling()
    prev = np.inf
    for rho in (2.0, 1.0, 0.5, 0.25, 0.125):
        segs = boundary_set(t, rho)
        measure = float(np.sum(segs[:, 1] - segs[:, 0]))
        assert measure < prev
        prev = measure
    assert prev <= 22 * 0.25  # 2*rho per endpoint at most


# ---------------------------------------------------------------------------
# marker-driven instances


@pytest.fixture(scope="module")
def suite():
    mspec = make_marker_spec(SYS, arc_radius=Fraction(1, 400))
    params = TilingParams(r=1.0, delta=0.5, c=1.5, M=mspec.M, M1=mspec.M1)
    return mspec, params


def real_instance(suite, seed, half=1200):
    mspec, params = suite
    x = sample_points(SYS, 1, seed=seed)[0]
    s_lo, s_hi = support_window_for(mspec, -half, half)
    seq = marker_sequence(mspec, x, s_lo, s_hi)
    return x, seq, (-half, half)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_lemma_checks_on_instances(suite, seed):
    mspec, params = suite
    x, seq, window = real_instance(suite, seed)
    tH, tcH = tiling_pair(seq, params, window)
    for t in (tH, tcH):
        for res in (
            check_tile_locality(t),
            check_survivor_level(t),
            check_coverage(t),
        ):
            assert res.passed, res.line()
    res = check_interior_mass(tH, tcH)
    assert res.passed, res.line()
    res = check_central_tile(tH, tcH, params)
    assert res.passed, res.line()
    res = check_edge_density(tH)
    assert res.passed, res.line()


def test_equivariance_real_shift(suite):
    mspec, params = suite
    x, seq, window = real_instance(suite, 11)
    s_lo, s_hi = seq.window
    shifted = marker_sequence(mspec, x.shifted(7), s_lo - 7, s_hi - 7)
    res = check_equivariance(seq, params, 7, window=window, shifted_seq=shifted)
    assert res.passed, res.detail
    # relabeling path, negative shift
    res = check_equivariance(seq, params, -13, window=window)
    assert res.passed, res.detail
    assert check_equivariance(seq, params, 0, window=window).passed


def test_equivariance_detects_corruption(suite):
    mspec, params = suite
    x, seq, window = real_instance(suite, 11)
    s_lo, s_hi = seq.window
    shifted = marker_sequence(mspec, x.shifted(7), s_lo - 7, s_hi - 7)
    i = int(np.argmin(np.abs(shifted.support)))
    t2 = shifted.support_t2.copy()
    wid = mspec.outer_num2 - mspec.inner_num2
    if shifted.values[i] == 1.0:
        t2[i] = mspec.inner_num2 + (2 * wid) // 5  # phi drops to 0.6
    else:
        t2[i] = mspec.inner_num2  # phi jumps to 1
    values = shifted.values.copy()
    values[i] = (mspec.outer_num2 - t2[i]) / float(wid)
    corrupt = dataclasses.replace(shifted, support_t2=t2, values=values)
    res = check_equivariance(seq, params, 7, window=window, shifted_seq=corrupt)
    assert not res.passed


def test_tile_at_and_boundary_distance(suite):
    mspec, params = suite
    _, seq, window = real_instance(suite, 3)
    t = slice_tiling(seq, params, params.H, window)
    for u in np.linspace(window[0], window[1], 41):
        n = t.tile_at(float(u))
        a, b = t.tile(n)
        assert a - 1e-9 <= u <= b + 1e-9
    assert t.dist_to_boundary(float(t.lo[1])) == 0.0
    mids = (t.lo + t.hi) / 2.0
    d = np.array([t.dist_to_boundary(float(u)) for u in mids])
    assert np.allclose(d, (t.hi - t.lo) / 2.0)
    with pytest.raises(ConfigurationError):
        t.tile_at(window[1] + 1.0)


@pytest.fixture(scope="module")
def shared_tiling(suite):
    mspec, params = suite
    _, seq, window = real_instance(suite, 123)
    return slice_tiling(seq, params, params.H, window)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_endpoints_are_pair_boundaries(shared_tiling, data):
    t = shared_tiling
    i = data.draw(st.integers(min_value=0, max_value=len(t.labels) - 2))
    assert t.hi[i] == t.lo[i + 1]
    idx = np.searchsorted(t.site_labels, t.labels[[i, i + 1]])
    h = 1.0 / t.site_phi[idx]
    naive = pair_boundary(
        float(t.labels[i]), h[0], float(t.labels[i + 1]), h[1], t.level
    )
    assert t.hi[i] == pytest.approx(naive, abs=1e-6)


def test_check_result_lines(suite):
    _, seq, window = real_instance(suite, 3)
    mspec, params = suite
    t = slice_tiling(seq, params, params.H, window)
    line = check_coverage(t).line()
    assert line.startswith("[PASS] coverage:")
