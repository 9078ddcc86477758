"""Tests for the fiber-width machinery.

Calibration complexes are small spaces whose cover nerves are known by
hand (edge, path, running bond, 2x2 box complex, triangle); on each the
searched construction must meet dim(nerve)/m and the verifier must agree.
"""

from fractions import Fraction

import numpy as np
import pytest

from meandimlab.checks import (
    FIBER_CONTAINMENT,
    FIBER_WIDTH,
    PAIR_SEPARATION,
)
from meandimlab.config import default_config, resolve
from meandimlab.dynsys import (
    ConfigurationError,
    OrbitWindow,
    SystemSpec,
    bowen_dist,
    bowen_dmat,
    sample_points,
    sup_dmat,
)
from meandimlab.fibre import (
    ChainProbe,
    FiberError,
    FiberReport,
    FMap,
    FMapConstruction,
    _certify_lookback,
    _close_pairs,
    _dmat_widim_upper,
    _pair_separation_check,
    _pairwise_atom_dmat,
    build_fmap,
    check_fiber_bound,
    check_nerve_transfer,
    delta_transfer_of,
    fiber_widim_upper,
    fiber_width_chain,
    verify_fiber_bound,
)
from meandimlab.marker import make_marker_spec
from meandimlab.pipeline import _counts, _star_map
from meandimlab.signal import (
    SignalParams,
    admissible_recovery_starts,
    alpha_band,
    factor_context,
    factor_image,
)
from meandimlab.tiling import TilingParams
from meandimlab.widim import CellSpace, min_multiplicity, nerve_and_projection

SYS = SystemSpec()
LINEAR = FMapConstruction.LINEAR_ON_NERVE
SEARCHED = FMapConstruction.SEARCHED_PL


def triangle_space():
    dmat = np.full((3, 3), 0.1)
    np.fill_diagonal(dmat, 0.0)
    return CellSpace.from_samples(dmat, max_diam=0.05, adj_tol=0.11)


# ---------------------------------------------------------------------------
# construction basics


def test_build_fmap_linear_on_path():
    s = CellSpace.cube_grid(1, 8)
    fm = build_fmap(s, 1.8, 2, seed=3)
    assert fm.construction is LINEAR and fm.flag == ""
    assert fm.nerve.dimension == 1 and fm.bound == pytest.approx(0.5)
    assert fm.m == 2 and fm.eps_half == pytest.approx(0.9)
    assert fm.vertex_images.shape == (3, 1)
    vals = fm.images()
    assert vals.shape == (8, 1)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    # partition cover: atom rows are indicators, so images repeat per element
    assert len(np.unique(np.round(vals, 12))) == 3
    assert np.allclose(fm.images([0, 1, 2]), vals[0])


def test_build_fmap_argument_checks():
    s = CellSpace.cube_grid(1, 8)
    with pytest.raises(ConfigurationError):
        build_fmap(s, 1.8, 1)
    with pytest.raises(ConfigurationError):
        build_fmap(s, 0.0, 2)


def test_fmap_validation():
    s = CellSpace.cube_grid(1, 8)
    cover = min_multiplicity(s, 0.9).cover
    nerve, W = nerve_and_projection(cover)
    good = dict(
        construction=LINEAR,
        nerve=nerve,
        projection=W,
        cover=cover,
        eps_half=0.9,
        horizon=1,
        m=2,
        delta_transfer=1.0,
    )
    FMap(vertex_images=np.full((3, 1), 0.5), **good)
    with pytest.raises(ConfigurationError):
        FMap(vertex_images=np.full((2, 1), 0.5), **good)  # wrong vertex count
    with pytest.raises(ConfigurationError):
        FMap(vertex_images=np.full((3, 1), 1.5), **good)  # escapes [0,1]
    with pytest.raises(ConfigurationError):
        FMap(vertex_images=np.full((3, 1), 0.5), **{**good, "projection": 2 * W})


def test_fmap_determinism_and_json():
    s = CellSpace.cube_grid(2, 6)
    a = build_fmap(s, 1.8, 3, seed=7)
    b = build_fmap(s, 1.8, 3, seed=7)
    c = build_fmap(s, 1.8, 3, seed=8)
    assert np.array_equal(a.vertex_images, b.vertex_images)
    assert a.to_json() == b.to_json()
    assert not np.array_equal(a.vertex_images, c.vertex_images)
    j = a.to_json()
    assert j["construction"] == "linear-on-nerve" and j["m"] == 3
    assert j["n_vertices"] == 10 and len(j["vertex_images"]) == 10
    s2 = build_fmap(s, 1.8, 2, construction=SEARCHED, seed=9)
    s3 = build_fmap(s, 1.8, 2, construction=SEARCHED, seed=9)
    assert s2.to_json() == s3.to_json()


def test_delta_transfer_values():
    s = CellSpace.cube_grid(1, 8)
    _, W = nerve_and_projection(min_multiplicity(s, 0.9).cover)
    # indicator rows: any pair of far elements differs by a full unit
    assert delta_transfer_of(s, W, 1.5) == pytest.approx(1.0)
    # no pair of atom centers is 1.8 apart on this grid
    assert delta_transfer_of(s, W, 1.8) == np.inf


def test_delta_transfer_matches_pair_loop():
    s = CellSpace.cube_grid(2, 5)
    P = np.random.default_rng(4).random((s.n_atoms, 4))
    D = _pairwise_atom_dmat(s)
    gaps = [
        np.abs(P[i] - P[j]).max()
        for i in range(s.n_atoms)
        for j in range(s.n_atoms)
        if D[i, j] >= 1.0
    ]
    assert gaps and delta_transfer_of(s, P, 1.0) == min(gaps)


def test_check_nerve_transfer():
    s = CellSpace.cube_grid(1, 8)
    fm = build_fmap(s, 1.8, 2, seed=3)
    res = check_nerve_transfer(fm)
    assert res.passed and "vacuous" in res.detail
    broken = FMap(
        construction=fm.construction,
        nerve=fm.nerve,
        vertex_images=fm.vertex_images,
        projection=fm.projection,
        cover=fm.cover,
        eps_half=fm.eps_half,
        horizon=fm.horizon,
        m=fm.m,
        delta_transfer=0.0,
    )
    assert not check_nerve_transfer(broken).passed


# ---------------------------------------------------------------------------
# fiber widths


def test_fiber_widim_upper_cases():
    s = CellSpace.cube_grid(2, 6)
    assert fiber_widim_upper(s, range(36), 1.8) == 2  # the whole square
    assert fiber_widim_upper(s, [14], 1.8) == 0
    assert fiber_widim_upper(s, [14, 15, 20, 21], 1.8) == 0  # small cluster
    with pytest.raises(ConfigurationError):
        fiber_widim_upper(s, [], 1.8)


# ---------------------------------------------------------------------------
# verification


@pytest.mark.parametrize(
    "name,space,eps",
    [
        ("edge", CellSpace.cube_grid(1, 6), 2.2),
        ("path", CellSpace.cube_grid(1, 8), 1.8),
        ("bond", CellSpace.cube_grid(2, 6), 1.8),
        ("boxes", CellSpace.cube_grid(2, 2), 2.6),
        ("triangle", triangle_space(), 0.15),
    ],
)
@pytest.mark.parametrize("m", [2, 3])
def test_calibration_complexes_pass(name, space, eps, m):
    fm = build_fmap(space, eps, m, construction=SEARCHED, budget=64, seed=3)
    assert fm.flag == ""
    report = verify_fiber_bound(fm, space, eps, probe_count=40, seed=1)
    res = check_fiber_bound(report)
    assert res.passed, f"{name}: {res.detail}"
    assert not report.vacuous
    assert report.max_ratio <= 1.0 + 1e-12


def test_calibration_nerve_dimensions():
    dims = {
        (1, 6, 2.2): 1,   # edge: two bricks sharing one vertex
        (1, 8, 1.8): 1,   # path
        (2, 6, 1.8): 2,   # running bond
        (2, 2, 2.6): 3,   # 2x2 box complex: all four share the center
    }
    for (d, n, eps), want in dims.items():
        fm = build_fmap(CellSpace.cube_grid(d, n), eps, 2, seed=0)
        assert fm.nerve.dimension == want


def test_constant_map_violates_on_square():
    s = CellSpace.cube_grid(2, 6)
    cover = min_multiplicity(s, 0.9).cover
    nerve, W = nerve_and_projection(cover)
    const = FMap(
        construction=LINEAR,
        nerve=nerve,
        vertex_images=np.full((nerve.n_vertices, 1), 0.5),
        projection=W,
        cover=cover,
        eps_half=0.9,
        horizon=1,
        m=2,
        delta_transfer=delta_transfer_of(s, W, 1.8),
    )
    report = verify_fiber_bound(const, s, 1.8, probe_count=20, seed=0)
    res = check_fiber_bound(report)
    assert not res.passed
    assert report.max_ratio == pytest.approx(2.0)  # widim 2 vs bound 1


def test_verify_argument_checks():
    s = CellSpace.cube_grid(1, 8)
    fm = build_fmap(s, 1.8, 2, seed=3)
    with pytest.raises(ConfigurationError):
        verify_fiber_bound(fm, s, 1.0)  # below twice the cover resolution
    with pytest.raises(ConfigurationError):
        verify_fiber_bound(fm, s, 1.8, probe_count=1)
    with pytest.raises(ConfigurationError):
        verify_fiber_bound(fm, CellSpace.cube_grid(1, 6), 1.8)


def test_vacuous_report_is_not_success():
    rep = FiberReport(
        eps=1.0, fiber_tol=0.1, bound=0.5, probes=(), max_ratio=0.0, vacuous=True
    )
    res = check_fiber_bound(rep)
    assert not res.passed and "vacuous" in res.detail


def test_report_rows_shape():
    s = CellSpace.cube_grid(1, 8)
    fm = build_fmap(s, 1.8, 2, construction=SEARCHED, seed=3)
    report = verify_fiber_bound(fm, s, 1.8, probe_count=10, seed=4)
    rows = list(report.rows())
    assert len(rows) == 10
    probe, size, wid, bound, ok = rows[0]
    assert isinstance(probe, str) and isinstance(size, int)
    assert bound == pytest.approx(0.5) and isinstance(ok, bool)


# ---------------------------------------------------------------------------
# the factor-side chain


@pytest.fixture(scope="module")
def suite():
    mspec = make_marker_spec(SYS, arc_radius=Fraction(1, 400))
    tparams = TilingParams(r=1.0, delta=0.5, c=1.5, M=mspec.M, M1=mspec.M1)
    sparams = SignalParams(R=tparams.R, m=3)
    return mspec, tparams, sparams


def hash_oracle(ow):
    rng = np.random.default_rng([ow.circle_numerator(0) % 2**32, 3])
    return rng.random(2)


@pytest.fixture(scope="module")
def chain_report(suite):
    mspec, tparams, sparams = suite
    pool = sample_points(SYS, 6, seed=11)
    report = fiber_width_chain(
        pool, mspec, tparams, sparams, hash_oracle,
        eps=0.25, horizon=3, delta=0.5, probe_count=4, seed=7,
    )
    return report


def test_chain_passes(chain_report):
    assert chain_report.K == 614  # 2*M1 + 2 at M1 = 306
    assert chain_report.passed
    assert chain_report.max_ratio < 0.5
    ids = [c.check_id for c in chain_report.checks]
    assert ids == [FIBER_CONTAINMENT, FIBER_WIDTH, PAIR_SEPARATION]
    assert all(c.passed for c in chain_report.checks)


def test_chain_probe_records(chain_report):
    rows = list(chain_report.rows())
    assert len(rows) == 4
    for index, size, blocks, wid, ratio in rows:
        assert size >= 1          # a probe always sits in its own fiber
        assert blocks >= 1        # and matches at least one oracle block
        assert wid == 0 and ratio == 0.0


def test_chain_multi_member_fibers_match_bowen_reference(suite):
    mspec, tparams, sparams = suite
    p = sample_points(SYS, 4, seed=11)
    # images read only the circle coordinate (marker, tiling, hash oracle),
    # so repeats land in the fiber of their original, and a segment of
    # constant cubes spaced below eps/8 at p[2]'s circle point gives a fiber
    # of width 1
    segment = [
        OrbitWindow(SYS, np.full_like(p[2].cube, t), p[2].circle_num)
        for t in np.linspace(0.0, 0.6, 21)
    ]
    pool = p + p[:2] + segment
    report = fiber_width_chain(
        pool, mspec, tparams, sparams, hash_oracle,
        eps=0.25, horizon=3, delta=0.5, probe_count=len(pool), seed=7,
    )
    ref = np.array([[bowen_dist(a, b, 3) for b in pool] for a in pool])
    rows = list(report.rows())
    assert sorted(r[0] for r in rows) == list(range(len(pool)))
    for index, size, blocks, wid, ratio in rows:
        members = [j for j, y in enumerate(pool) if y.circle_num == pool[index].circle_num]
        assert size == len(members) and blocks >= size
        assert wid == _dmat_widim_upper(ref[np.ix_(members, members)], 0.25)
        assert ratio == wid / 3
    assert {(r[1], r[3]) for r in rows} == {(1, 0), (2, 0), (22, 1)}


def test_chain_deterministic(suite):
    mspec, tparams, sparams = suite
    pool = sample_points(SYS, 5, seed=3)
    kw = dict(eps=0.25, horizon=2, delta=0.5, probe_count=3, seed=1)
    a = fiber_width_chain(pool, mspec, tparams, sparams, hash_oracle, **kw)
    b = fiber_width_chain(pool, mspec, tparams, sparams, hash_oracle, **kw)
    assert list(a.rows()) == list(b.rows())
    assert [c.line() for c in a.checks] == [c.line() for c in b.checks]


def test_chain_needs_a_pool(suite):
    mspec, tparams, sparams = suite
    pool = sample_points(SYS, 1, seed=3)
    with pytest.raises(ConfigurationError):
        fiber_width_chain(
            pool, mspec, tparams, sparams, hash_oracle,
            eps=0.25, horizon=2, delta=0.5,
        )


def test_chain_builds_one_marker_sequence_per_point(suite, monkeypatch):
    """The lookback of a certified member reuses the member's context:
    one marker sequence per pool point plus the separation pair."""
    from meandimlab import fibre, marker, signal

    mspec, tparams, sparams = suite
    pool = sample_points(SYS, 5, seed=3)
    calls = []
    real = marker.marker_sequence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (fibre, marker, signal):
        if hasattr(mod, "marker_sequence"):
            monkeypatch.setattr(mod, "marker_sequence", counting)
    fiber_width_chain(
        pool, mspec, tparams, sparams, hash_oracle,
        eps=0.25, horizon=2, delta=0.5, probe_count=3, seed=1,
    )
    assert len(calls) == len(pool) + 2


def test_chain_containment_failure_raises(suite):
    mspec, tparams, sparams = suite
    pool = sample_points(SYS, 4, seed=5)

    # count the oracle calls spent while the image windows are built
    from meandimlab.signal import factor_context, factor_image

    K = 2 * tparams.M1 + 2
    window = (-K, K + sparams.m - 2)
    image_calls = {"n": 0}

    def counting(ow):
        image_calls["n"] += 1
        return hash_oracle(ow)

    for x in pool:
        factor_image(factor_context(x, mspec, tparams, sparams, window), sparams, counting)

    # an oracle that turns inconsistent once block matching starts can be
    # matched by nothing: the chain must hard-fail, not shrug
    state = {"n": 0}

    def flipping(ow):
        state["n"] += 1
        vals = hash_oracle(ow)
        if state["n"] > image_calls["n"]:
            return 1.0 - vals
        return vals

    with pytest.raises(FiberError):
        fiber_width_chain(
            pool, mspec, tparams, sparams, flipping,
            eps=0.25, horizon=2, delta=0.5, probe_count=2, seed=2,
        )


# ---------------------------------------------------------------------------
# the chain against its per-probe reference


def reference_chain(pool, mspec, tparams, sparams, F_oracle, eps, horizon, delta,
                    probe_count, seed):
    """The chain one probe draw at a time: dense sup_dmat closeness, one
    oracle call per (member, admissible start), every repeated probe
    recomputed.  Returns (probes, max_ratio, (passed, detail) per check)."""
    m, K = sparams.m, tparams.K
    tol = eps / 10.0
    window = (-K, K + m - 2)
    ctxs = [factor_context(x, mspec, tparams, sparams, window) for x in pool]
    imgs = [factor_image(ctx, sparams, F_oracle) for ctx in ctxs]
    G = np.stack([f.g_seq for f in imgs])
    PHI = np.stack([f.phi_seq for f in imgs])
    close = np.maximum(sup_dmat(G), sup_dmat(PHI)) <= tol
    bowen = bowen_dmat(pool, horizon)
    rng = np.random.default_rng([seed, len(pool), probe_count])
    chosen = rng.choice(len(pool), size=probe_count, replace=probe_count > len(pool))
    lo = window[0]
    records, members_total, blocks_total, max_ratio = [], 0, 0, 0.0
    for i in map(int, chosen):
        members = np.nonzero(close[i])[0]
        blocks = 0
        for j in map(int, members):
            _certify_lookback(ctxs[j], tparams)
            starts = admissible_recovery_starts(ctxs[j], sparams)
            matched = 0
            for a in map(int, starts[(starts >= -K) & (starts <= K)]):
                F = np.asarray(F_oracle(pool[j].shifted(a)), dtype=np.float64)
                if np.abs(G[i, a - lo : a - lo + m - 1] - F).max() <= tol:
                    matched += 1
            if matched == 0:
                raise FiberError(f"pool point {j} in the fiber of probe {i}")
            blocks += matched
        wid = _dmat_widim_upper(bowen[np.ix_(members, members)], eps)
        max_ratio = max(max_ratio, wid / horizon)
        members_total += len(members)
        blocks_total += blocks
        records.append(ChainProbe(i, len(members), blocks, wid, wid / horizon))
    sep = _pair_separation_check(mspec, tparams, sparams)
    checks = [
        (True, f"{members_total} fiber members over {len(records)} probes matched "
               f"{blocks_total} oracle blocks inside [-{K}, {K}]"),
        (max_ratio < delta,
         f"max Widim(fiber, d_{horizon})/{horizon} = {max_ratio:.4g} vs target {delta}"),
        (sep.passed, sep.detail),
    ]
    return tuple(records), max_ratio, checks


def read_symbols(ctx, sparams, F):
    """Symbols of ctx.x its factor window reads: the StarMap block
    [s - tau, s + n_h - 1 + tau] of every collar block start s.  Phi, the
    marker and the tiling read only the circle coordinate."""
    m = sparams.m
    collar = np.flatnonzero(alpha_band(ctx.dist, m) > 0.0)
    t = ctx.ks[collar]
    starts = np.unique(t - (t - ctx.owners[collar]) % (m - 1))
    reach = np.arange(-F.tau, F.n_horizon + F.tau)
    return set((starts[:, None] + reach).ravel().tolist())


@pytest.fixture(scope="module")
def default_chain_inputs():
    config = default_config(seed=0)
    res = resolve(config)
    counts = _counts(config.sample_count)
    pool = sample_points(config.system, counts["pool_size"], config.seed + 4)
    kw = dict(
        eps=config.eps,
        horizon=res.numbers.n_horizon,
        delta=res.fiber_bound,
        probe_count=counts["probe_count"],
        seed=config.seed + 4,
    )
    return res, pool, kw


def assert_chain_matches_reference(res, pool, kw):
    F = _star_map(res, 0)
    args = (pool, res.mspec, res.tparams, res.sparams)
    fast = fiber_width_chain(*args, F, **kw)
    probes, max_ratio, checks = reference_chain(*args, _star_map(res, 0), **kw)
    assert fast.probes == probes
    assert fast.max_ratio == max_ratio
    assert [(c.passed, c.detail) for c in fast.checks] == checks
    return fast


def test_chain_matches_reference_on_default_pool(default_chain_inputs):
    res, pool, kw = default_chain_inputs
    fast = assert_chain_matches_reference(res, pool, kw)
    assert len(fast.probes) == kw["probe_count"]
    assert len({p.index for p in fast.probes}) < len(fast.probes)  # repeats drawn


def test_chain_matches_reference_on_multi_member_fibres(default_chain_inputs):
    """A copy of a pool point with every unread stored cube symbol
    resampled has a bitwise-equal pi window, so the two share a fibre."""
    res, pool, kw = default_chain_inputs
    sparams, K = res.sparams, res.tparams.K
    window = (-K, K + sparams.m - 2)
    F = _star_map(res, 0)
    x = pool[0]
    ctx = factor_context(x, res.mspec, res.tparams, sparams, window)
    read = read_symbols(ctx, sparams, F)
    r = x.radius
    unread = [k for k in range(-r, r + 1) if k not in read]
    assert len(unread) > r  # most stored symbols are never read
    cube = x.cube.copy()
    rng = np.random.default_rng(99)
    cube[np.array(unread) + r] = rng.random((len(unread), x.spec.D))
    y = OrbitWindow(x.spec, cube, x.circle_num)
    assert not np.array_equal(y.cube, x.cube)
    a = factor_image(ctx, sparams, F)
    b = factor_image(factor_context(y, res.mspec, res.tparams, sparams, window), sparams, F)
    assert a.g_seq.tobytes() == b.g_seq.tobytes()
    assert a.phi_seq.tobytes() == b.phi_seq.tobytes()

    fast = assert_chain_matches_reference(res, pool + [y], kw)
    assert any(p.fiber_size > 1 for p in fast.probes)


@pytest.mark.parametrize("chunk", [1, 3, 7, 256])
def test_close_pairs_matches_sup_dmat(chunk):
    rng = np.random.default_rng(chunk)
    A = np.round(rng.random((9, 20)) * 4) / 8  # ties and exact-tol gaps
    B = np.round(rng.random((9, 20)) * 4) / 8
    A[3] = A[5]
    B[3] = B[5]  # one pair close in both arrays
    A[6] = A[2] + 0.125
    B[6] = B[2]  # one pair exactly tol apart
    A[7, 19] = np.nan  # a NaN is close to nothing
    for tol in (0.0, 0.125, 0.2, 0.5):
        ref = np.maximum(sup_dmat(A), sup_dmat(B)) <= tol
        assert np.array_equal(_close_pairs((A, B), tol, chunk=chunk), ref)
        assert np.array_equal(_close_pairs((B, A), tol, chunk=chunk), ref)
    assert _close_pairs((A, B), 0.125, chunk=chunk)[2, 6]
