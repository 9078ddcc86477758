import numpy as np
import pytest
from fractions import Fraction

from meandimlab import marker as marker_mod
from meandimlab.dynsys import SystemSpec, circle_block, make_point, sample_points
from meandimlab.marker import (
    MarkerConstructionError,
    check_coverage,
    check_separation,
    compute_M,
    compute_M_M1,
    gap_histogram,
    make_marker_spec,
    marker_sequence,
    max_orbit_gap,
    phi_eval,
    phi_profile,
    pick_z_zprime,
    return_times,
)

SYS = SystemSpec(D=1, window_radius=64)

# Frozen return-time constants for the golden rotation, computed by an
# independent exact integer scan before these tests were written:
#   arc radius 1/100   -> M = 34   (|34 theta| ~ 0.01316 <= 0.02)
#   arc radius 1/400   -> M = 144, and with inner radius 1/800 -> M1 = 306
M_AT_1_OVER_100 = 34
M_AT_1_OVER_400 = 144
M1_AT_1_OVER_800 = 306


def scan_M(system, arc_radius, block=1 << 16):
    """Reference: first k >= 1 with arcdist(k*theta, 0) <= 2*arc_radius, by
    an exact blockwise scan of the orbit."""
    q = system.q
    two_r4 = 2 * int(arc_radius * 2 * q)
    k0 = 1
    while True:
        d = circle_block(system, 0, k0, block)
        hits = np.nonzero(2 * np.minimum(d, q - d) <= two_r4)[0]
        if len(hits):
            return k0 + int(hits[0])
        k0 += block


def test_M_frozen_values():
    assert compute_M(SYS, Fraction(1, 100)) == M_AT_1_OVER_100
    M, M1 = compute_M_M1(SYS, Fraction(1, 400), Fraction(1, 800))
    assert M == M_AT_1_OVER_400
    assert M1 == M1_AT_1_OVER_800
    assert M1 > M


def test_huge_arc_rejected():
    # an arc covering near-half the circle returns immediately: M = 1
    with pytest.raises(MarkerConstructionError):
        compute_M_M1(SYS, Fraction(1, 5), Fraction(1, 10))


def test_spec_construction_and_defaults():
    spec = make_marker_spec(SYS, arc_radius=Fraction(1, 400))
    assert spec.inner_radius == Fraction(1, 800)
    assert spec.M == M_AT_1_OVER_400
    assert spec.M1 == M1_AT_1_OVER_800


@pytest.fixture(scope="module")
def spec():
    return make_marker_spec(SYS, arc_radius=Fraction(1, 400))


def test_phi_endpoint_exactness(spec):
    z, zp = pick_z_zprime(spec)
    assert phi_eval(spec, z) == 1.0  # exact, inner-arc branch
    assert phi_eval(spec, zp) == 0.0  # exact, outside-outer branch


def test_phi_ramp_midpoint(spec):
    # circle point exactly midway along the ramp: phi = 0.5
    sys_ = spec.system
    mid2 = (spec.inner_num2 + spec.outer_num2) // 2  # even sum here
    x = make_point(sys_, circle=Fraction(mid2, 2 * sys_.q))
    assert phi_eval(spec, x) == pytest.approx(0.5, abs=1e-12)


def test_phi_profile_matches_pointwise(spec):
    x = sample_points(SYS, 1, seed=3)[0]
    prof = phi_profile(spec, x, -10, 10)
    for k in range(-10, 11):
        assert prof[k + 10] == phi_eval(spec, x.shifted(k))


def test_phi_shift_covariance(spec):
    x = sample_points(SYS, 1, seed=9)[0]
    a = phi_profile(spec, x.shifted(1), -5, 5)
    b = phi_profile(spec, x, -4, 6)
    np.testing.assert_array_equal(a, b)


def window_formula(spec, x, lo, hi):
    """Reference: phi over the whole window in one pass of the previous
    formula (offsets from the arc center, clamped, ramped)."""
    q = spec.system.q
    d0 = (x.circle_numerator(lo) - spec.center_num) % q
    d = circle_block(spec.system, d0, 0, hi - lo + 1)
    t2 = 2 * np.minimum(d, q - d)
    inner2, outer2 = spec.inner_num2, spec.outer_num2
    out = np.zeros(len(t2))
    out[t2 <= inner2] = 1.0
    ramp = (t2 > inner2) & (t2 < outer2)
    out[ramp] = (outer2 - t2[ramp]) / float(outer2 - inner2)
    return out


def assert_profile_matches(spec, x, lo, hi):
    got = phi_profile(spec, x, lo, hi)
    want = window_formula(spec, x, lo, hi)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, hi)
    return got


def test_phi_profile_matches_scalar_oracle_on_small_windows(spec):
    for seed, (lo, hi) in enumerate([(-10, 10), (0, 0), (-3 * spec.M, 2 * spec.M), (10**9, 10**9 + 500)]):
        x = sample_points(SYS, 1, seed=seed)[0]
        prof = phi_profile(spec, x, lo, hi)
        assert prof.tolist() == [phi_eval(spec, x.shifted(k)) for k in range(lo, hi + 1)]
    assert (prof > 0).any(), "windows should reach the arc"


PRODUCT_ARCS = [
    Fraction(3718857, 125000000000),
    Fraction(7011041, 1000000000000),
    Fraction(1706689, 1000000000000),
]


@pytest.mark.parametrize("arc", PRODUCT_ARCS, ids=["M10946", "M46368", "M196418"])
def test_phi_profile_matches_window_formula_on_product_arcs(arc):
    spec = make_marker_spec(SYS, arc_radius=arc)
    rng = np.random.default_rng(spec.M)
    for seed, shift in enumerate([0, int(rng.integers(1, 10**6)), 10**9]):
        x = sample_points(SYS, 1, seed=seed)[0].shifted(shift)
        prof = assert_profile_matches(spec, x, -2 * spec.M1, 2 * spec.M1)
        assert (prof > 0).any() and (prof == 1.0).any()


def test_phi_profile_chunk_edges(spec):
    chunk = marker_mod._PROFILE_CHUNK
    x = sample_points(SYS, 1, seed=21)[0]
    for n in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 17):
        assert_profile_matches(spec, x, -n // 2, -n // 2 + n - 1)


def test_phi_profile_fine_theta():
    fine = SystemSpec(theta=Fraction(7001000003, 10**15))
    spec = make_marker_spec(fine, arc_center=Fraction(1, 8), arc_radius=Fraction(1, 400000))
    assert (spec.M, spec.M1) == (142837, 285674)
    x = sample_points(fine, 1, seed=2)[0]
    prof = assert_profile_matches(spec, x, -2 * spec.M1, 2 * spec.M1)
    assert (prof > 0).any()
    assert_profile_matches(spec, x.shifted(10**9), 0, 2 * spec.M1)


def test_phi_profile_at_the_thresholds(spec):
    q = spec.system.q
    inner2, outer2 = spec.inner_num2, spec.outer_num2
    assert inner2 % 2 == 0 and outer2 % 2 == 0  # both thresholds are grid points
    for half, want in ((inner2 // 2, 1.0), (outer2 // 2, 0.0), (inner2 // 2 + 1, None)):
        for sign in (1, -1):
            x = make_point(SYS, circle=Fraction((spec.center_num + sign * half) % q, q))
            prof = assert_profile_matches(spec, x, -3, 3)
            assert prof[3] == phi_eval(spec, x)
            if want is not None:
                assert prof[3] == want
            else:
                assert 0.0 < prof[3] < 1.0


def test_phi_profile_reads_nothing_of_the_visit_walk(spec, monkeypatch):
    def forbidden(*args):
        raise AssertionError("phi_profile must not use the visit walk")

    x = sample_points(SYS, 1, seed=6)[0]
    want = window_formula(spec, x, 0, 4 * spec.M1)
    for name in ("return_times", "_first_below", "_arc_half_width", "marker_sequence"):
        monkeypatch.setattr(marker_mod, name, forbidden)
    assert phi_profile(spec, x, 0, 4 * spec.M1).tobytes() == want.tobytes()


def test_marker_sequence_invariants(spec):
    xs = sample_points(SYS, 50, seed=202)
    L = 2 * spec.M1  # window half-length 4*M1 total
    for x in xs:
        seq = marker_sequence(spec, x, -L, L)
        ok, wit = check_separation(seq)
        assert ok, wit
        ok, wit = check_coverage(seq)
        assert ok, wit
        gaps = np.diff(seq.support)
        assert gaps.min(initial=spec.M) >= spec.M
        assert gaps.max(initial=0) <= 2 * spec.M1


def test_gap_histogram_counts(spec):
    x = sample_points(SYS, 1, seed=77)[0]
    seq = marker_sequence(spec, x, -3000, 3000)
    hist = gap_histogram(seq)
    assert sum(hist.values()) == len(seq.support) - 1
    assert min(hist) >= spec.M


def test_sequence_shift_relabels_support(spec):
    x = sample_points(SYS, 1, seed=5)[0]
    seq = marker_sequence(spec, x, -500, 500)
    shifted = seq.shifted(7)
    np.testing.assert_array_equal(shifted.support, seq.support - 7)
    direct = marker_sequence(spec, x.shifted(7), -507, 493)
    np.testing.assert_array_equal(direct.support, shifted.support)
    np.testing.assert_array_equal(direct.values, shifted.values)


def test_z_pair_distinct(spec):
    from meandimlab.dynsys import dist

    z, zp = pick_z_zprime(spec)
    assert dist(z, zp) > 0.4  # antipodal circle points


# ---------------------------------------------------------------------------
# three-distance fast paths against their O(window) references

# thetas with large partial quotients exercise the r > 1 branch of the gap
# formula, which the golden rotation (every a_k = 1) never reaches
PI_SYS = SystemSpec(theta=Fraction(314159265359, 10**12))
SKEW_SYS = SystemSpec(theta=Fraction(7001000003, 10**15))


def sorted_max_gap(system, n):
    """Reference: largest circular gap of {k*theta : 0 <= k < n} by sorting."""
    pos = np.sort(circle_block(system, 0, 0, n))
    return max(int(np.diff(pos).max(initial=0)), int(pos[0] + system.q - pos[-1]))


@pytest.mark.parametrize("system", [SYS, PI_SYS, SKEW_SYS], ids=["golden", "pi", "skew"])
def test_max_orbit_gap_matches_sorted_gaps(system):
    for n in range(1, 601):
        assert max_orbit_gap(system, n) == sorted_max_gap(system, n), n
    rng = np.random.default_rng(system.p % 1000)
    for n in rng.integers(601, 3 * 10**6, size=5):
        assert max_orbit_gap(system, int(n)) == sorted_max_gap(system, int(n)), int(n)


def test_max_orbit_gap_past_the_period():
    # once the orbit closes up every gap is one grid step
    small = SystemSpec(theta=Fraction(234567, 10**6 + 3))
    assert max_orbit_gap(small, small.q) == 1
    assert max_orbit_gap(small, 3 * small.q + 5) == 1
    assert max_orbit_gap(SKEW_SYS, 1) == SKEW_SYS.q


@pytest.mark.parametrize(
    "arc, M1",
    [
        (Fraction(1, 400), 306),  # bulk acceptance stack
        (Fraction(31503617, 250000000000), 5474),  # default config
        (Fraction(3718857, 125000000000), 23185),  # product factors 1-3
        (Fraction(7011041, 1000000000000), 98210),
        (Fraction(1706689, 1000000000000), 416021),
    ],
)
def test_compute_M1_frozen_values(arc, M1):
    assert compute_M_M1(SYS, arc, arc / 2)[1] == M1


@pytest.mark.parametrize(
    "arc, M",
    [
        (Fraction(1, 100), 34),
        (Fraction(1, 400), 144),
        (Fraction(11, 50000), 1597),  # band acceptance stack
        (Fraction(31503617, 250000000000), 2584),  # default config
        (Fraction(3718857, 125000000000), 10946),  # product factors 1-3
        (Fraction(7011041, 1000000000000), 46368),
        (Fraction(1706689, 1000000000000), 196418),
    ],
)
def test_compute_M_frozen_values(arc, M):
    assert compute_M(SYS, arc) == M


@pytest.mark.parametrize("system", [SYS, PI_SYS, SKEW_SYS], ids=["golden", "pi", "skew"])
def test_compute_M_matches_scan(system):
    radii = [Fraction(1, 8), Fraction(1, 100), Fraction(1, 400), Fraction(1, 2000),
             Fraction(11, 50000), Fraction(1, 20000)]
    for arc in radii:
        assert compute_M(system, arc) == scan_M(system, arc), arc


@pytest.mark.parametrize("theta", [Fraction(4142135, 10**7), Fraction(10**7 + 3, 3 * 10**7)])
def test_compute_M_matches_scan_on_coarse_thetas(theta):
    system = SystemSpec(theta=theta)
    for arc in (Fraction(1, 8), Fraction(1, 100), Fraction(1, 400), Fraction(1, 2000),
                Fraction(1, 20000), Fraction(1, 200000)):
        assert compute_M(system, arc) == scan_M(system, arc), arc


@pytest.mark.parametrize("system", [SYS, PI_SYS], ids=["golden", "pi"])
def test_compute_M_at_the_threshold(system):
    """An arc whose radius is exactly the first return's distance: the
    return counts (<=), one grid step less and it does not."""
    q, p = system.q, system.p
    for k in (34, 144, 2584):
        if system is PI_SYS:
            k = scan_M(system, Fraction(1, 10 * k))
        d = min(k * p % q, q - k * p % q)
        assert compute_M(system, Fraction(d, 2 * q)) == k == scan_M(system, Fraction(d, 2 * q))
        assert compute_M(system, Fraction(d - 1, 2 * q)) > k


def test_compute_M_beyond_the_search_horizon_raises(monkeypatch):
    monkeypatch.setattr(marker_mod, "_M_SEARCH_CAP", 100)
    assert compute_M(SYS, Fraction(1, 100)) == 34
    with pytest.raises(MarkerConstructionError, match="no arc return within the search horizon"):
        compute_M(SYS, Fraction(1, 400))


def window_reference(spec, x, lo, hi):
    """Support, values and clamped arc distances from the O(window) path."""
    vals = phi_profile(spec, x, lo, hi)
    d = (x.circle_nums(lo, hi) - spec.center_num) % spec.system.q
    t2 = np.maximum(2 * np.minimum(d, spec.system.q - d), spec.inner_num2)
    sup = np.nonzero(vals > 0.0)[0]
    return (sup + lo).astype(np.int64), vals[sup], t2[sup].astype(np.int64)


def assert_walk_matches_window(spec, x, lo, hi):
    seq = marker_sequence(spec, x, lo, hi)
    sup, vals, t2 = window_reference(spec, x, lo, hi)
    for got, want in ((seq.support, sup), (seq.values, vals), (seq.support_t2, t2)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, hi)
    return seq


MARKER_STACKS = {  # system, arc center, arc radius
    "M144": (SYS, Fraction(0), Fraction(1, 400)),
    "M2584": (SYS, Fraction(0), Fraction(31503617, 250000000000)),
    "M10946": (SYS, Fraction(0), Fraction(3718857, 125000000000)),
    "pi": (PI_SYS, Fraction(3, 8), Fraction(1, 400)),
}


@pytest.fixture(scope="module", params=sorted(MARKER_STACKS))
def stack_spec(request):
    return make_marker_spec(*MARKER_STACKS[request.param])


def test_return_times_match_scan(stack_spec):
    r1, r2, r12 = return_times(stack_spec)
    q, p = stack_spec.system.q, stack_spec.system.p
    w = 2 * ((stack_spec.outer_num2 - 1) // 2) + 1
    steps = circle_block(stack_spec.system, 0, 1, 4 * r12)
    fwd = int(np.argmax(steps < w)) + 1
    back = int(np.argmax(q - steps < w)) + 1
    assert (r1, r2) == tuple(sorted((fwd, back))) and r12 == r1 + r2
    # every observed return time is one of the three
    x = sample_points(stack_spec.system, 1, seed=11)[0]
    seq = marker_sequence(stack_spec, x, 0, 60 * r12)
    assert set(np.diff(seq.support).tolist()) <= {r1, r2, r12}


def test_visit_walk_matches_window(stack_spec):
    r1, _, r12 = return_times(stack_spec)
    M1 = stack_spec.M1
    for x in sample_points(stack_spec.system, 3, seed=17):
        seq = assert_walk_matches_window(stack_spec, x, -4 * M1, 4 * M1)
        assert len(seq.support) > 2
        v = int(seq.support[1])
        assert_walk_matches_window(stack_spec, x, v, v + 3 * r12)  # lo on a visit
        assert_walk_matches_window(stack_spec, x, v + 1, v + r1 - 1)  # no visit
        assert_walk_matches_window(stack_spec, x, v - 1, v + 1)  # shorter than r1
        assert_walk_matches_window(stack_spec, x, -7 * M1 - 3, -5 * M1)  # negative lo
        assert_walk_matches_window(stack_spec, x.shifted(10**9), -M1, M1)


def test_visit_walk_without_longest_return_raises(spec, monkeypatch):
    """Negative control: a return set missing r1 + r2 stops the walk with a
    witness instead of stepping over the visit it cannot reach."""
    r1, r2, r12 = return_times(spec)
    x = sample_points(SYS, 1, seed=4)[0]
    seq = marker_sequence(spec, x, 0, 400 * r12)
    long_gap = np.nonzero(np.diff(seq.support) == r12)[0]
    assert len(long_gap), "window holds no r1 + r2 return"
    v = int(seq.support[long_gap[0]])
    monkeypatch.setattr(marker_mod, "return_times", lambda s: (r1, r2))
    with pytest.raises(MarkerConstructionError, match=f"from the visit at time {v}$"):
        marker_sequence(spec, x, int(seq.support[0]), 400 * r12)
