"""Signal layer: gamma/alpha shapes, h and phi windows, g and I_g windows."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandimlab.config import default_config, resolve
from meandimlab.dynsys import ConfigurationError, SystemSpec, make_point, sample_points
from meandimlab.marker import make_marker_spec, marker_sequence, support_window_for
from meandimlab.pipeline import StarMap
from meandimlab.signal import (
    FactorContext,
    FactorImage,
    GAMMA_REACH,
    GammaVariant,
    SparsePhi,
    SignalError,
    SignalParams,
    admissible_recovery_starts,
    alpha_band,
    alpha_deep,
    check_band_recovery,
    check_band_sparsity,
    check_band_support,
    check_plateau_budget,
    check_profile_cap,
    factor_context,
    factor_image,
    g_value,
    gamma,
    h_value,
    oracle_blocks,
    phi_map,
    pi_map,
    plateau_report,
    separation_report,
    signal_pad,
    sparse_phi,
)
from meandimlab.tiling import COVER_TOL, IntervalTiling, TilingParams, slice_tiling

SYS = SystemSpec()
GAMMA1 = 2.0 / (1.0 + math.e)

SYNTH_PARAMS = TilingParams(r=1.0, delta=0.5, c=1.5, M=91, M1=105)
SP9 = SignalParams(R=9.0, m=3)


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


def oracle_for(m):
    """Deterministic block oracle keyed on the circle coordinate."""

    def F(ow):
        seed = ow.circle_numerator(0) % (2**32)
        rng = np.random.default_rng([seed, m])
        return rng.random(m - 1)

    return F


def owners_reference(tiling, ks):
    """Reference owner lookup: one binary search over tile starts per coordinate."""
    pos = ks.astype(np.float64)
    idx = np.searchsorted(tiling.lo, pos, side="right") - 1
    assert idx.min() >= 0 and not np.any(pos > tiling.hi[idx] + COVER_TOL)
    return tiling.labels[idx]


def dist_reference(tiling, u):
    """Reference boundary distance: one binary search over endpoints per query."""
    e = tiling.endpoints()
    idx = np.searchsorted(e, u)
    left = np.abs(u - e[np.maximum(idx - 1, 0)])
    right = np.abs(e[np.minimum(idx, len(e) - 1)] - u)
    return np.minimum(left, right)


# ---------------------------------------------------------------------------
# gamma and the two alpha ramps


def test_gamma_values():
    assert gamma(0) == 1.0
    assert gamma(0, GammaVariant.MIN_AT_ZERO) == 1.0
    assert gamma(1) == pytest.approx(GAMMA1, abs=1e-15)
    assert gamma(-1) == gamma(1)
    assert gamma(1, GammaVariant.MIN_AT_ZERO) == pytest.approx(
        2.0 / (1.0 + math.exp(-1.0)), abs=1e-15
    )
    # the diagnostic variant rises above 1 away from 0, the working one decays
    assert gamma(5, GammaVariant.MIN_AT_ZERO) > 1.0 > gamma(5)
    # overflow-safe far out
    assert gamma(10_000.0) == 0.0
    assert gamma(10_000.0, GammaVariant.MIN_AT_ZERO) == 2.0
    arr = gamma(np.array([0, 1, -1]))
    assert arr.shape == (3,) and arr[1] == arr[2]


@given(st.floats(min_value=-60, max_value=60, allow_nan=False))
def test_gamma_even_and_bounded(t):
    assert gamma(t) == gamma(-t)
    assert 0.0 < gamma(t) <= 1.0


def test_alpha_deep_anchors():
    assert alpha_deep(0.0, 9.0) == 0.0
    assert alpha_deep(2.0, 9.0) == 0.0
    assert alpha_deep(2.5, 9.0) == 0.5  # midpoint of the ramp [2, R/3]
    assert alpha_deep(3.0, 9.0) == 1.0
    assert alpha_deep(100.0, 9.0) == 1.0
    assert alpha_deep((2.0 + 13.0) / 2.0, 39.0) == 0.5
    with pytest.raises(ConfigurationError):
        alpha_deep(1.0, 6.0)
    with pytest.raises(ConfigurationError):
        alpha_deep(-0.5, 9.0)


def gamma_reference(t, variant=GammaVariant.MAX_AT_ZERO):
    """Reference label weight, one temporary per operation."""
    at = np.abs(np.asarray(t, dtype=np.float64))
    e = np.exp(-at)
    return 2.0 * e / (1.0 + e) if variant is GammaVariant.MAX_AT_ZERO else 2.0 / (1.0 + e)


def alpha_deep_reference(t, R):
    """Reference depth gate: the two branches chosen explicitly."""
    tt = np.asarray(t, dtype=np.float64)
    third = R / 3.0
    return np.where(tt <= 2.0, 0.0, np.where(tt >= third, 1.0, (tt - 2.0) / (third - 2.0)))


def test_in_place_gates_match_reference():
    rng = np.random.default_rng(5)
    ts = [np.arange(-800, 801, dtype=np.int64), rng.uniform(-60.0, 60.0, 5000)]
    for t in ts:
        for variant in GammaVariant:
            assert gamma(t, variant).tobytes() == gamma_reference(t, variant).tobytes()
    for R in (9.0, 10.5, 27.3, 39.0):
        third = R / 3.0
        edges = [2.0, third, np.nextafter(2.0, 3.0), np.nextafter(third, 0.0), np.nextafter(third, R)]
        d = np.concatenate([np.linspace(0.0, 2.0 * R, 20001), rng.uniform(0.0, R, 5000), edges])
        kept = d.copy()
        assert alpha_deep(d, R).tobytes() == alpha_deep_reference(d, R).tobytes()
        assert d.tobytes() == kept.tobytes()  # the input is not overwritten


def test_alpha_band_anchors():
    assert alpha_band(0.0, 3) == 0.0
    assert alpha_band(0.25, 3) == 0.25
    assert alpha_band(1.0, 3) == 1.0
    assert alpha_band(6.0, 3) == 1.0  # 2m
    assert alpha_band(7.5, 3) == 0.5  # 2.5m
    assert alpha_band(9.0, 3) == 0.0  # 3m
    assert alpha_band(20.0, 3) == 0.0
    assert alpha_band(2.5, 1) == 0.5
    with pytest.raises(ConfigurationError):
        alpha_band(1.0, 0)
    with pytest.raises(ConfigurationError):
        alpha_band(-1.0, 3)


@given(st.floats(min_value=0, max_value=200, allow_nan=False))
@settings(max_examples=60)
def test_alpha_ramps_stay_in_unit_interval(t):
    assert 0.0 <= alpha_deep(t, 9.0) <= 1.0
    assert 0.0 <= alpha_band(t, 3) <= 1.0


def test_alpha_deep_monotone():
    ts = np.linspace(0.0, 12.0, 200)
    vals = alpha_deep(ts, 9.0)
    assert np.all(np.diff(vals) >= 0.0)


def test_signal_params_validation():
    with pytest.raises(ConfigurationError):
        SignalParams(R=9.0, m=1)
    with pytest.raises(ConfigurationError):
        SignalParams(R=6.0, m=3)
    sp = SignalParams.from_tiling(SYNTH_PARAMS, m=4)
    assert sp.R == SYNTH_PARAMS.R and sp.m == 4
    assert signal_pad(SP9) == 10  # max(R/3, 3m) + 1


# ---------------------------------------------------------------------------
# h on synthetic tilings


def test_h_value_deep_interior():
    t = make_tiling([-30, 0, 30], [-45, -15, 15], [-15, 15, 45], (-45.0, 45.0))
    assert h_value(t, SP9) == 2.0  # 1 + gamma(0), exact


def test_h_value_boundary_hit():
    t = make_tiling([-7, 7], [-15.0, 0.0], [0.0, 15.0], (-15.0, 15.0))
    assert h_value(t, SP9) == 0.0


def test_h_value_shallow():
    # 0 sits half a unit from the left edge: the depth gate is closed
    t = make_tiling([-20, 15], [-40.0, -0.5], [-0.5, 29.5], (-40.0, 29.5))
    assert h_value(t, SP9) == 0.5


def test_h_value_mid_ramp():
    t = make_tiling([-20, 10], [-40.0, -2.5], [-2.5, 27.5], (-40.0, 27.5))
    expected = 1.0 + 0.5 * gamma(10)
    assert h_value(t, SP9) == pytest.approx(expected, abs=1e-15)


def test_h_value_needs_certified_window():
    t = make_tiling([0], [-8.0], [8.0], (-8.0, 8.0))
    with pytest.raises(ConfigurationError):
        h_value(t, SP9)


# ---------------------------------------------------------------------------
# real instances


@pytest.fixture(scope="module")
def suite():
    mspec = make_marker_spec(SYS, arc_radius=Fraction(1, 400))
    tparams = TilingParams(r=1.0, delta=0.5, c=1.5, M=mspec.M, M1=mspec.M1)
    sparams = SignalParams.from_tiling(tparams, m=3)
    return mspec, tparams, sparams


@pytest.fixture(scope="module")
def instance(suite):
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=42)[0]
    window = (-300, 300)
    ctx = factor_context(x, mspec, tparams, sparams, window)
    fimg = pi_map(x, mspec, tparams, sparams, oracle_for(sparams.m), window)
    return x, ctx, fimg


def test_phi_window_bounds_and_cap(suite, instance):
    mspec, tparams, sparams = suite
    x, ctx, fimg = instance
    assert fimg.window == (-300, 300)
    assert fimg.phi_seq.min() >= 0.0
    assert fimg.phi_seq.max() <= 2.0
    res = check_profile_cap(fimg, ctx, sparams)
    assert res.passed, res.line()
    assert "equality" in res.detail


def test_phi_shift_covariance(suite):
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=7)[0]
    moved = phi_map(x.shifted(1), mspec, tparams, sparams, (0, 150))
    base = phi_map(x, mspec, tparams, sparams, (1, 151))
    assert np.allclose(moved.phi_seq, base.phi_seq, atol=1e-9)


def test_separation_pair(suite):
    mspec, tparams, sparams = suite
    report, res = separation_report(mspec, tparams, sparams)
    assert report["phi_z0"] == 2.0
    assert report["phi_zprime0"] <= 1.0 + GAMMA1 + 1e-12
    assert report["separated"] is True
    assert res.passed, res.line()


# ---------------------------------------------------------------------------
# plateau structure


def test_plateau_all_rigid():
    t = make_tiling([0], [-100.0], [100.0], (-100.0, 100.0))
    ks = np.arange(50)
    ctx = FactorContext.over(None, None, t, (0, 49), SP9)
    fimg = FactorImage(window=(0, 49), phi_seq=1.0 + gamma(ks))
    free, blocks = plateau_report(ctx, fimg, SP9)
    assert free == 0.0
    assert blocks == [(0, 49, 0)]


def test_plateau_short_tiles_have_none():
    # tiles of length 5 < 2R/3: distance never reaches R/3
    ks = np.arange(-8, 9)
    t = make_tiling(5 * ks, 5 * ks - 2.5, 5 * ks + 2.5, (-42.5, 42.5))
    kk = np.arange(20, dtype=np.int64)
    d = dist_reference(t, kk.astype(np.float64))
    owners = np.array([t.tile_at(float(k)) for k in kk])
    phi = np.minimum(d, 1.0) + alpha_deep(d, 9.0) * gamma(owners - kk)
    ctx = FactorContext.over(None, None, t, (0, 19), SP9)
    assert np.array_equal(ctx.owners, owners)
    free, blocks = plateau_report(ctx, FactorImage((0, 19), phi), SP9)
    assert free == 1.0
    assert blocks == []


def test_plateau_real_instance(suite):
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=3)[0]
    N = 3000
    ctx = factor_context(x, mspec, tparams, sparams, (0, N - 1))
    fimg = factor_image(ctx, sparams)
    assert np.array_equal(fimg.phi_seq, phi_map(x, mspec, tparams, sparams, (0, N - 1)).phi_seq)
    free, blocks = plateau_report(ctx, fimg, sparams)
    assert blocks, "expected rigid blocks on a marker-driven window"
    assert free == 1.0 - sum(b - a + 1 for a, b, _ in blocks) / N
    assert 0.0 < free < tparams.delta
    res = check_plateau_budget(free, tparams.delta)
    assert res.passed, res.line()
    assert not check_plateau_budget(1.0, tparams.delta).passed


def test_plateau_rejects_nudged_rigid_coordinate(suite):
    """Negative control: phi off the cap at one R/3-deep coordinate."""
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=3)[0]
    ctx = factor_context(x, mspec, tparams, sparams, (0, 999))
    fimg = factor_image(ctx, sparams)
    plateau_report(ctx, fimg, sparams)
    phi = fimg.phi_seq.copy()
    phi[int(np.argmax(ctx.dist >= sparams.R / 3.0))] += 1e-9
    with pytest.raises(SignalError, match="rigid coordinates disagree"):
        plateau_report(ctx, FactorImage(fimg.window, phi), sparams)


def assert_sweep_matches_reference(tiling, window, sparams=SP9):
    ctx = FactorContext.over(None, None, tiling, window, sparams)
    owners = owners_reference(tiling, ctx.ks)
    want = {
        "owners": owners,
        "dist": dist_reference(tiling, ctx.ks.astype(np.float64)),
        "gam": gamma(owners - ctx.ks, sparams.gamma_variant),
    }
    for name, ref in want.items():
        got = getattr(ctx, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, window)


INTEGER_TILING = make_tiling(
    [-12, 0, 9, 20], [-20.0, -5.0, 6.0, 14.0], [-5.0, 6.0, 14.0, 30.0], (-20.0, 30.0)
)
FRACTIONAL_TILING = make_tiling(
    [-9, 2, 13], [-18.3, -2.5, 9.75], [-2.5, 9.75, 25.1], (-18.3, 25.1)
)
SINGLE_TILING = make_tiling([4], [-100.0], [100.0], (-100.0, 100.0))
# a tile shorter than one step: coordinate 5 is nearer its left endpoint
SHORT_TILING = make_tiling([-6, 5, 12], [-10.0, 4.9, 5.8], [4.9, 5.8, 20.0], (-10.0, 20.0))


@pytest.mark.parametrize(
    "tiling, window",
    [
        (INTEGER_TILING, (-20, 30)),  # every endpoint is a coordinate
        (INTEGER_TILING, (-5, 14)),  # window edges on endpoints
        (INTEGER_TILING, (-13, 17)),  # starts and ends mid-tile
        (INTEGER_TILING, (7, 7)),
        (FRACTIONAL_TILING, (-18, 25)),
        (FRACTIONAL_TILING, (-1, 3)),  # inside one tile, away from its ends
        (SINGLE_TILING, (-100, 100)),
        (SINGLE_TILING, (-40, 61)),
        (SHORT_TILING, (-10, 20)),
    ],
)
def test_owner_dist_sweep_matches_reference(tiling, window):
    assert_sweep_matches_reference(tiling, window)
    assert_sweep_matches_reference(
        tiling, window, SignalParams(R=9.0, m=3, gamma_variant=GammaVariant.MIN_AT_ZERO)
    )


def test_owner_dist_sweep_matches_reference_on_real_tiling(suite):
    mspec, tparams, sparams = suite
    for seed in (3, 8):
        x = sample_points(SYS, 1, seed=seed)[0]
        ctx = factor_context(x, mspec, tparams, sparams, (-5000, 5000))
        assert_sweep_matches_reference(ctx.tiling, ctx.window, sparams)
        assert_sweep_matches_reference(ctx.tiling, (-4999, -4000), sparams)


def test_owner_lookup_rejects_uncovered_gap():
    """Negative control: coordinate 0 falls between two tiles."""
    t = make_tiling([-10, 10], [-20.0, 1.0], [-1.0, 20.0], (-20.0, 20.0))
    FactorContext.over(None, None, t, (-19, -1), SP9)
    with pytest.raises(SignalError, match="uncovered gap"):
        FactorContext.over(None, None, t, (-3, 3), SP9)


# ---------------------------------------------------------------------------
# tile-sparse phi against the dense path


def dense_plateau_report(ctx, phi, sparams):
    """Reference: the plateau report over every coordinate of the window."""
    deep = ctx.dist >= sparams.R / 3.0
    if np.any(np.abs(phi - (1.0 + ctx.gam))[deep] > 1e-12):
        raise SignalError("rigid coordinates disagree with the label profile")
    edges = np.diff(np.concatenate(([False], deep, [False])).astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    stops = np.nonzero(edges == -1)[0] - 1
    blocks = list(zip(ctx.ks[starts].tolist(), ctx.ks[stops].tolist(), ctx.owners[starts].tolist()))
    return 1.0 - int(np.count_nonzero(deep)) / len(ctx.ks), blocks


def dense_profile_cap(phi, ctx, sparams, tol=1e-12):
    """Reference: the profile-cap check over every coordinate of the
    window, as (passed, witness, detail)."""
    over = phi - (1.0 + ctx.gam)
    i = int(np.argmax(over))
    if over[i] > tol:
        k = int(ctx.ks[i])
        return False, k, f"phi exceeds cap by {float(over[i]):.3g} at k={k}"
    deep = ctx.dist >= sparams.R / 3.0
    eq = np.abs(over) <= tol
    truegap = (1.0 - alpha_deep(ctx.dist, sparams.R)) * ctx.gam
    for bad, what in (
        (deep & ~eq, "deep point off the cap"),
        (~deep & eq & (truegap > 2 * tol), "shallow point on the cap"),
    ):
        if np.any(bad):
            k = int(ctx.ks[int(np.argmax(bad))])
            return False, k, f"{what} at k={k}"
    deep_count = int(np.count_nonzero(deep))
    return True, None, f"cap respected on {len(phi)} coordinates, {deep_count} at equality"


def cap_outcome(res):
    return res.passed, res.witness, res.detail


def assert_sparse_matches_dense(ctx, sparams, segments=8, seed=0):
    """sparse_phi, its segments, the plateau report and the profile cap
    are bitwise those of the dense path; returns (sparse, dense phi)."""
    img = sparse_phi(ctx, sparams)
    dense = factor_image(ctx, sparams).phi_seq
    lo, hi = ctx.window
    whole = img.segment(lo, hi)
    assert whole.tobytes() == dense.tobytes()
    # the exact coordinates where phi is 1.0, and all others are active
    assert np.array_equal(np.flatnonzero(whole == 1.0), np.flatnonzero(dense == 1.0))
    assert np.isin(np.flatnonzero(dense != 1.0) + lo, img.ks).all()
    rng = np.random.default_rng([seed, hi - lo])
    for a in rng.integers(lo, hi + 1, size=segments):
        b = min(hi, int(a) + int(rng.integers(0, 60)))
        assert img.segment(int(a), b).tobytes() == dense[a - lo : b - lo + 1].tobytes()
    want = dense_plateau_report(ctx, dense, sparams)
    assert plateau_report(ctx, img, sparams) == want
    assert plateau_report(ctx, FactorImage(ctx.window, dense), sparams) == want
    want = dense_profile_cap(dense, ctx, sparams)
    assert cap_outcome(check_profile_cap(img, ctx, sparams)) == want
    assert cap_outcome(check_profile_cap(FactorImage(ctx.window, dense), ctx, sparams)) == want
    return img, dense


def bulk_stack():
    mspec = make_marker_spec(SystemSpec(D=1), 0, Fraction(1, 400))
    tparams = TilingParams(r=1.0, delta=0.5, c=1.5, M=mspec.M, M1=mspec.M1)
    return mspec, tparams, SignalParams.from_tiling(tparams, 3)


def default_stack():
    res = resolve(default_config())
    return res.mspec, res.tparams, res.sparams


def c5_stack():
    mspec = make_marker_spec(SYS, 0, Fraction(11, 50000))
    tparams = TilingParams(r=18.0, delta=0.22, c=1.25, M=mspec.M, M1=mspec.M1)
    return mspec, tparams, SignalParams.from_tiling(tparams, 6)


@pytest.fixture(scope="module", params=["bulk", "default", "c5"])
def real_stack(request):
    return request.param, {"bulk": bulk_stack, "default": default_stack, "c5": c5_stack}[
        request.param
    ]()


def test_gamma_reach():
    assert 1.0 + gamma(GAMMA_REACH - 1) != 1.0
    far = np.arange(GAMMA_REACH, 10**6)
    assert np.all(1.0 + gamma(far) == 1.0) and np.all(1.0 + gamma(-far) == 1.0)


def test_sparse_phi_matches_dense_on_real_stacks(real_stack):
    name, (mspec, tparams, sparams) = real_stack
    N = 1000 * mspec.M1 if name == "bulk" else 4 * mspec.M1
    for i, x in enumerate(sample_points(mspec.system, 3, seed=31)):
        shift = (0, 10**9 + 7, -4321)[i]
        ctx = factor_context(x, mspec, tparams, sparams, (shift, shift + N - 1))
        img, dense = assert_sparse_matches_dense(ctx, sparams, seed=i)
        assert len(img.ks) < len(dense)  # the sparse path skips the plateau
    free, blocks = plateau_report(ctx, img, sparams)
    assert blocks and 0.0 < free < 1.0


def test_sparse_phi_matches_dense_for_the_diagnostic_variant():
    mspec, tparams, _ = bulk_stack()
    sparams = SignalParams.from_tiling(tparams, 3, GammaVariant.MIN_AT_ZERO)
    x = sample_points(mspec.system, 1, seed=8)[0]
    ctx = factor_context(x, mspec, tparams, sparams, (0, 20 * mspec.M1))
    img, _ = assert_sparse_matches_dense(ctx, sparams)
    assert len(img.ks) == 20 * mspec.M1 + 1  # gamma never rounds away


ALL_RIGID_TILING = make_tiling([0], [-100.0], [100.0], (-100.0, 100.0))


@pytest.mark.parametrize(
    "tiling, window",
    [
        (INTEGER_TILING, (-20, 30)),
        (INTEGER_TILING, (-13, 17)),
        (INTEGER_TILING, (7, 7)),
        (FRACTIONAL_TILING, (-18, 25)),
        (FRACTIONAL_TILING, (-1, 3)),
        (SINGLE_TILING, (-100, 100)),
        (SINGLE_TILING, (50, 61)),  # nothing active: every coordinate is 1.0
        (SHORT_TILING, (-10, 20)),
        (ALL_RIGID_TILING, (0, 49)),
        (ALL_RIGID_TILING, (-97, 97)),
    ],
)
def test_sparse_phi_matches_dense_on_hand_made_tilings(tiling, window):
    for sparams in (SP9, SignalParams(R=9.0, m=3, gamma_variant=GammaVariant.MIN_AT_ZERO)):
        ctx = FactorContext.over(None, None, tiling, window, sparams)
        assert_sparse_matches_dense(ctx, sparams)


def test_sparse_rigid_runs_on_a_hand_made_tiling():
    # tiles [-20, -5], [-5, 6], [6, 14], [14, 30]; R/3 = 3
    ctx = FactorContext.over(None, None, INTEGER_TILING, (-20, 30), SP9)
    img = sparse_phi(ctx, SP9)
    free, blocks = plateau_report(ctx, img, SP9)
    assert blocks == [(-17, -8, -12), (-2, 3, 0), (9, 11, 9), (17, 27, 20)]
    assert free == 1.0 - 30 / 51


@pytest.fixture(scope="module")
def bulk_context():
    mspec, tparams, sparams = bulk_stack()
    x = sample_points(mspec.system, 1, seed=12)[0]
    return factor_context(x, mspec, tparams, sparams, (0, 20 * mspec.M1)), sparams


def test_sparse_plateau_rejects_nudged_rigid_coordinate(bulk_context):
    """Negative control: phi off the cap at one R/3-deep active coordinate."""
    ctx, sparams = bulk_context
    img = sparse_phi(ctx, sparams)
    _, dist, _ = ctx.active_terms
    i = int(np.flatnonzero(dist >= sparams.R / 3.0)[5])
    phi = img.phi.copy()
    phi[i] -= 1e-9
    nudged = SparsePhi(img.window, img.ks, phi)
    with pytest.raises(SignalError, match="rigid coordinates disagree"):
        plateau_report(ctx, nudged, sparams)
    with pytest.raises(SignalError, match="rigid coordinates disagree"):
        dense_plateau_report(ctx, nudged.segment(*ctx.window), sparams)
    k = int(img.ks[i])
    res = check_profile_cap(nudged, ctx, sparams)
    assert cap_outcome(res) == (False, k, f"deep point off the cap at k={k}")
    assert cap_outcome(res) == dense_profile_cap(nudged.segment(*ctx.window), ctx, sparams)


def test_sparse_profile_cap_rejects_phi_above_the_cap(bulk_context):
    """Negative control: phi above 1 + gamma at a shallow active coordinate."""
    ctx, sparams = bulk_context
    img = sparse_phi(ctx, sparams)
    _, dist, gam = ctx.active_terms
    shallow = np.flatnonzero(dist < 1.0)
    i = int(shallow[len(shallow) // 2])
    phi = img.phi.copy()
    phi[i] = 1.0 + gam[i] + 1e-6
    over = SparsePhi(img.window, img.ks, phi)
    res = check_profile_cap(over, ctx, sparams)
    k = int(img.ks[i])
    assert not res.passed and res.witness == k and f"at k={k}" in res.detail
    assert cap_outcome(res) == dense_profile_cap(over.segment(*ctx.window), ctx, sparams)


def test_sparse_profile_cap_rejects_shallow_point_on_the_cap():
    """Negative control: phi equal to its cap 1 dist away from a boundary,
    where the gap (1 - alpha) * gamma(4) is far above the tolerance."""
    ctx = FactorContext.over(None, None, INTEGER_TILING, (-20, 30), SP9)
    img = sparse_phi(ctx, SP9)
    i = int(np.searchsorted(img.ks, -4))
    assert img.ks[i] == -4 and ctx.owners_at(img.ks[i : i + 1])[0] == 0
    phi = img.phi.copy()
    phi[i] = 1.0 + gamma(4)
    on_cap = SparsePhi(img.window, img.ks, phi)
    res = check_profile_cap(on_cap, ctx, SP9)
    assert cap_outcome(res) == (False, -4, "shallow point on the cap at k=-4")
    assert cap_outcome(res) == dense_profile_cap(on_cap.segment(-20, 30), ctx, SP9)


def test_dense_image_checks_read_inactive_coordinates(bulk_context):
    """Negative control: a dense image off 1.0 where the sparse path would
    not look still fails both checks, at the same witness as the dense path."""
    ctx, sparams = bulk_context
    dense = factor_image(ctx, sparams).phi_seq.copy()
    lo = ctx.window[0]
    quiet = np.setdiff1d(ctx.ks, ctx.active)
    k = int(quiet[np.argmax(ctx.dist[quiet - lo] >= sparams.R / 3.0)])
    assert dense[k - lo] == 1.0 and ctx.dist[k - lo] >= sparams.R / 3.0
    dense[k - lo] += 1e-9
    fimg = FactorImage(ctx.window, dense)
    res = check_profile_cap(fimg, ctx, sparams)
    assert cap_outcome(res) == dense_profile_cap(dense, ctx, sparams)
    assert not res.passed and res.witness == k
    with pytest.raises(SignalError, match="rigid coordinates disagree"):
        plateau_report(ctx, fimg, sparams)


def test_sparse_phi_rejects_foreign_coordinates(bulk_context):
    ctx, sparams = bulk_context
    img = sparse_phi(ctx, sparams)
    moved = SparsePhi(img.window, img.ks[1:], img.phi[1:])
    with pytest.raises(ConfigurationError, match="active coordinates"):
        plateau_report(ctx, moved, sparams)
    other = SignalParams(R=sparams.R, m=sparams.m, gamma_variant=GammaVariant.MIN_AT_ZERO)
    with pytest.raises(ConfigurationError, match="signal params differ"):
        check_profile_cap(img, ctx, other)


# ---------------------------------------------------------------------------
# g and I_g


def test_g_value_zero_cases():
    deep = make_tiling([0], [-100.0], [100.0], (-100.0, 100.0))
    assert g_value(deep, oracle_for(3), make_point(SYS, 0.5, Fraction(3, 1000)), SP9) == 0.0
    edge = make_tiling([-7, 7], [-15.0, 0.0], [0.0, 15.0], (-15.0, 15.0))
    assert g_value(edge, oracle_for(3), make_point(SYS, 0.5, Fraction(3, 1000)), SP9) == 0.0


def test_g_value_reads_oracle_block():
    F = oracle_for(3)
    x = make_point(SYS, 0.5, Fraction(3, 1000))
    # even owner label: block starts at 0, coordinate 0 of F(x)
    t_even = make_tiling([-40, 26], [-60.0, -4.0], [-4.0, 56.0], (-60.0, 56.0))
    assert g_value(t_even, F, x, SP9) == F(x)[0]
    # odd owner label: block starts at -1, coordinate 1 of F(T^-1 x)
    t_odd = make_tiling([-40, 25], [-60.0, -4.0], [-4.0, 56.0], (-60.0, 56.0))
    assert g_value(t_odd, F, x, SP9) == F(x.shifted(-1))[1]


def test_g_window_bounds_and_support(suite, instance):
    mspec, tparams, sparams = suite
    x, ctx, fimg = instance
    assert fimg.g_seq is not None
    assert fimg.g_seq.min() >= 0.0
    assert fimg.g_seq.max() <= 1.0
    assert np.count_nonzero(fimg.g_seq) > 0
    res = check_band_support(ctx, fimg, sparams)
    assert res.passed, res.line()


def test_g_recovery_blocks(suite, instance):
    mspec, tparams, sparams = suite
    x, ctx, fimg = instance
    starts = admissible_recovery_starts(ctx, sparams)
    assert len(starts) > 0
    res = check_band_recovery(ctx, fimg, oracle_for(sparams.m), sparams)
    assert res.passed, res.line()


def test_g_sparsity(suite, instance):
    mspec, tparams, sparams = suite
    x, ctx, fimg = instance
    res = check_band_sparsity(fimg, 0.2)
    assert res.passed, res.line()
    assert not check_band_sparsity(fimg, 0.0).passed


def test_g_matches_pointwise_evaluation(suite, instance):
    """The vectorized window agrees with one-point evaluations on shifts."""
    mspec, tparams, sparams = suite
    x, ctx, fimg = instance
    F = oracle_for(sparams.m)
    for t in (-120, -3, 0, 57, 210):
        xs = x.shifted(t)
        s_lo, s_hi = support_window_for(mspec, -20, 20)
        seq = marker_sequence(mspec, xs, s_lo, s_hi)
        tl = slice_tiling(seq, tparams, tparams.H, (-20, 20))
        assert g_value(tl, F, xs, sparams) == pytest.approx(fimg.g_at(t), abs=1e-9)


def reference_g(ctx, sparams, F_oracle):
    """The g window one collar coordinate at a time, with one oracle call
    per new block start: the reference of factor_image's vectorised g."""
    m = sparams.m
    band = alpha_band(ctx.dist, m)
    g = np.zeros(len(ctx.ks))
    cache = {}
    for i in np.nonzero(band > 0.0)[0]:
        t = int(ctx.ks[i])
        s = t - ((t - int(ctx.owners[i])) % (m - 1))
        if s not in cache:
            cache[s] = np.asarray(F_oracle(ctx.x.shifted(s)), dtype=np.float64)
        g[i] = band[i] * cache[s][t - s]
    return g


@pytest.mark.parametrize("seed", [5, 42])
def test_g_window_matches_per_coordinate_reference(suite, seed):
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=seed)[0].shifted(-40)
    ctx = factor_context(x, mspec, tparams, sparams, (-700, 700))
    for F in (oracle_for(sparams.m), StarMap(SYS, 0.125, 3, sparams.m, seed=1)):
        ref = reference_g(ctx, sparams, F)
        assert np.count_nonzero(ref) > 0
        assert factor_image(ctx, sparams, F).g_seq.tobytes() == ref.tobytes()


def test_oracle_blocks_batched_and_plain(suite, instance):
    mspec, tparams, sparams = suite
    x, ctx, _ = instance
    m = sparams.m
    starts = np.array([-5, 0, 7, 7, 400])
    plain = oracle_for(m)
    got = oracle_blocks(plain, x, starts, m)
    assert got.shape == (5, m - 1)
    assert all(np.array_equal(got[i], plain(x.shifted(int(s)))) for i, s in enumerate(starts))
    F = StarMap(SYS, 0.125, 3, m, seed=1)
    ref = np.stack([F(x.shifted(int(s))) for s in starts])
    assert oracle_blocks(F, x, starts, m).tobytes() == ref.tobytes()
    # no start, no call
    calls = []
    assert oracle_blocks(calls.append, x, [], m).shape == (0, m - 1)
    assert not calls
    # a wrong width is a configuration error for both kinds of oracle
    for wrong in (oracle_for(m + 1), StarMap(SYS, 0.125, 3, m + 1)):
        with pytest.raises(ConfigurationError):
            oracle_blocks(wrong, x, starts, m)
        with pytest.raises(ConfigurationError):
            factor_image(ctx, sparams, wrong)


def test_pi_shift_covariance(suite):
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=9)[0]
    F = oracle_for(sparams.m)
    moved = pi_map(x.shifted(1), mspec, tparams, sparams, F, (0, 150))
    base = pi_map(x, mspec, tparams, sparams, F, (1, 151))
    assert np.allclose(moved.phi_seq, base.phi_seq, atol=1e-9)
    assert np.allclose(moved.g_seq, base.g_seq, atol=1e-9)


def test_oracle_called_once_per_block(suite):
    mspec, tparams, sparams = suite
    x = sample_points(SYS, 1, seed=5)[0]
    calls = []
    inner = oracle_for(sparams.m)

    def counting(ow):
        calls.append(ow.offset)
        return inner(ow)

    fimg = pi_map(x, mspec, tparams, sparams, counting, (-300, 300))
    nz = int(np.count_nonzero(fimg.g_seq))
    assert 0 < len(calls) <= nz
    assert len(calls) == len(set(calls))  # one evaluation per block start


def test_factor_image_api(suite, instance):
    mspec, tparams, sparams = suite
    x, ctx, fimg = instance
    with pytest.raises(KeyError):
        fimg.phi_at(301)
    rows = list(fimg.rows())
    assert rows[0][0] == -300 and len(rows) == 601
    phi_only = phi_map(x, mspec, tparams, sparams, (0, 4))
    with pytest.raises(ConfigurationError):
        phi_only.g_at(0)
    assert list(phi_only.rows())[0][2] == ""
