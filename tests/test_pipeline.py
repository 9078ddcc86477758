"""End-to-end runs: the block oracle, the suite runners, and the reports."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandimlab.checks import BAND_RECOVERY
from meandimlab.config import default_config, resolve
from meandimlab.dynsys import ConfigurationError, SystemSpec, make_point, sample_points
from meandimlab.marker import make_marker_spec
from meandimlab.pipeline import (
    PipelineError,
    StarMap,
    _clustered_space,
    _star_transfer,
    band_suite,
    hurewicz_report,
    phi_suite,
    run_pipeline,
    run_products,
    tiling_suite,
    write_report,
)
from meandimlab.signal import (
    GammaVariant,
    SignalParams,
    admissible_recovery_starts,
    check_band_recovery,
    factor_context,
    factor_image,
)
from meandimlab.tiling import TilingParams

SYS = SystemSpec()


@pytest.fixture(scope="module")
def small():
    """Marker/tiling/signal stack small enough for per-test windows."""
    mspec = make_marker_spec(SYS, Fraction(0), Fraction(1, 400), Fraction(1, 800))
    tparams = TilingParams(r=1.0, delta=0.5, c=1.5, M=mspec.M, M1=mspec.M1)
    sparams = SignalParams.from_tiling(tparams, 3, GammaVariant.MAX_AT_ZERO)
    return mspec, tparams, sparams


@pytest.fixture(scope="module")
def default_report():
    return run_pipeline(default_config())


# ---------------------------------------------------------------------------
# simplex carrier and the block oracle


def _freudenthal_carrier(p: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Vertices and barycentric weights of the standard-triangulation simplex
    containing p (unit lattice, Kuhn subdivision): the per-point reference
    of ``StarMap.batch``.

    Walk from floor(p) by unit steps in coordinates ordered by descending
    fractional part; the weights are the consecutive differences of the
    sorted fractional parts, padded with 1 - max and min.  Sum is 1 and the
    weighted vertex sum reproduces p exactly.
    """
    base = np.floor(p).astype(np.int64)
    f = p - base
    order = np.argsort(-f, kind="stable")
    verts = [base]
    v = base
    for i in order:
        v = v.copy()
        v[i] += 1
        verts.append(v)
    fs = f[order]
    w = np.empty(len(p) + 1)
    w[0] = 1.0 - fs[0]
    w[1:-1] = fs[:-1] - fs[1:]
    w[-1] = fs[-1]
    return verts, w


def _reference_carrier(F: StarMap, x):
    """The point of F(x) on the scaled lattice and its Kuhn carrier, one
    point at a time: cube block over [-tau, n_h - 1 + tau], then the
    circle coordinate on its own lattice of circle_cells steps."""
    block = x.cube_block(-F.tau, F.n_horizon - 1 + F.tau).ravel()
    L = F.circle_cells
    p = np.concatenate([block / F.step, [x.circle_point(0) * L]])
    return _freudenthal_carrier(p)


def _reference_star_value(F: StarMap, x) -> np.ndarray:
    """F(x) by the per-point carrier loop: each positive-weight vertex adds
    weight * its draw, in carrier order."""
    verts, weights = _reference_carrier(F, x)
    L = F.circle_cells
    out = np.zeros(F.m - 1)
    for v, w in zip(verts, weights):
        if w > 0.0:
            key = (*(int(c) for c in v[:-1]), int(v[-1]) % L)
            out += w * F._vertex_image(key)
    return out


def test_carrier_interval():
    verts, w = _freudenthal_carrier(np.array([0.3]))
    assert [v.tolist() for v in verts] == [[0], [1]]
    assert w == pytest.approx([0.7, 0.3])


def test_carrier_square():
    verts, w = _freudenthal_carrier(np.array([0.5, 0.2]))
    assert [v.tolist() for v in verts] == [[0, 0], [1, 0], [1, 1]]
    assert w == pytest.approx([0.5, 0.3, 0.2])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32),
        min_size=1,
        max_size=5,
    )
)
def test_carrier_is_barycentric(coords):
    p = np.array(coords, dtype=np.float64)
    verts, w = _freudenthal_carrier(p)
    assert len(verts) == len(p) + 1
    assert w.sum() == pytest.approx(1.0)
    assert (w >= -1e-12).all()
    rec = sum(wi * v for wi, v in zip(w, verts))
    assert rec == pytest.approx(p, abs=1e-9)


def test_star_map_deterministic_and_bounded():
    F = StarMap(system=SYS, eps_half=0.125, n_horizon=5, m=13, seed=0)
    x = make_point(SYS, cube=0.37, circle=123456789)
    a = F(x)
    assert a.shape == (12,)
    assert np.array_equal(a, F(x))
    assert 0.0 <= a.min() and a.max() <= 1.0
    assert F.tau == 3 and F.circle_cells == 32
    assert F.bound == pytest.approx(12 / 13)
    # a different seed decorrelates the images
    G = StarMap(system=SYS, eps_half=0.125, n_horizon=5, m=13, seed=1)
    assert not np.array_equal(a, G(x))


def test_star_map_vertex_memo_is_transparent():
    # the second pass over the points reads every vertex draw from the memo
    xs = list(sample_points(SYS, 12, seed=7))
    F = StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=5, seed=2)
    reused = [F(x) for x in xs + xs]
    fresh = [
        StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=5, seed=2)(x)
        for x in xs + xs
    ]
    assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))
    assert F._images
    assert F == StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=5, seed=2)


@pytest.mark.parametrize("seed", [0, 9, 2**32 - 1, 2**32 + 5])
def test_star_map_vertex_draw_is_the_list_seeded_stream(seed):
    """Each vertex draws default_rng([seed, m, *key]) bitwise: entries in
    [0, 2^32) as one uint32 word each, and larger ones (seed 2^32 + 5, a
    key entry of 2^32 or more) through the list, which splits them."""
    m = 13
    F = StarMap(system=SYS, eps_half=0.125, n_horizon=5, m=m, seed=seed)
    rng = np.random.default_rng(seed % 97)
    keys = [tuple(rng.integers(0, 40, size=int(rng.integers(1, 9))).tolist()) for _ in range(25)]
    keys += [(0,), (0, 0, 0), (2**32 - 1,), (3, 2**32 - 1, 0), (2**32,), (5, 2**40 + 3)]
    for key in keys:
        want = np.random.default_rng([seed, m, *key]).random(m - 1)
        assert F._vertex_image(key).tobytes() == want.tobytes(), key
        assert F._images[key] is F._vertex_image(key)  # memoised
    # a negative entry is still rejected, as the list seed rejects it
    with pytest.raises(ValueError):
        F._vertex_image((1, -1, 0))
    with pytest.raises(ValueError):
        StarMap(system=SYS, eps_half=0.125, n_horizon=5, m=m, seed=-1)._vertex_image((1, 2))


@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("eps_half, n_horizon, m", [(0.125, 5, 13), (0.125, 3, 3), (0.3, 2, 5)])
def test_star_map_batch_matches_reference(D, eps_half, n_horizon, m):
    """One batched call equals the per-point carrier loop bit for bit, at
    block starts inside, across and outside the stored window, and draws
    exactly the vertices the loop draws (none of zero weight)."""
    spec = SystemSpec(D=D)
    # a lattice point (every fractional part 0: one vertex of weight 1) and
    # sampled points, shifted so the stored window is off-centre
    xs = [make_point(spec, cube=0.25, circle=0)] + sample_points(spec, 3, seed=D)
    r = spec.window_radius
    starts = np.array(
        [*range(-r - 14, -r + 10), *range(-20, 20), *range(r - 10, r + 14), -(10**6), 10**6]
    )
    fast = StarMap(spec, eps_half, n_horizon, m, seed=4)
    slow = StarMap(spec, eps_half, n_horizon, m, seed=4)
    for x in (y.shifted(5) for y in xs):
        got = fast.batch(x, starts)
        ref = np.stack([_reference_star_value(slow, x.shifted(int(s))) for s in starts])
        assert got.shape == (len(starts), m - 1)
        assert got.tobytes() == ref.tobytes()
        assert fast(x).tobytes() == _reference_star_value(slow, x).tobytes()
    assert fast._images.keys() == slow._images.keys()
    drawn = len(fast._images)
    assert fast.batch(xs[1], []).shape == (0, m - 1)
    assert fast.batch(xs[1], np.empty(0, dtype=np.int64)).shape == (0, m - 1)
    assert len(fast._images) == drawn


def test_star_map_validation():
    with pytest.raises(ConfigurationError):
        StarMap(system=SYS, eps_half=0.125, n_horizon=5, m=1)
    with pytest.raises(ConfigurationError):
        StarMap(system=SYS, eps_half=1.0, n_horizon=5, m=13)
    with pytest.raises(ConfigurationError):
        StarMap(system=SYS, eps_half=0.125, n_horizon=0, m=13)


def test_star_transfer_vacuous_on_single_point():
    F = StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=3, seed=0)
    res = _star_transfer(sample_points(SYS, 1, seed=0), F, 0.25, 3)
    assert res.passed and "vacuous" in res.detail


def test_star_transfer_fails_on_constant_map():
    pool = sample_points(SYS, 6, seed=2)
    res = _star_transfer(pool, lambda x: np.zeros(2), 0.25, 3)
    assert not res.passed


# ---------------------------------------------------------------------------
# suite runners on the small stack


def test_tiling_suite_small(small):
    mspec, tparams, _ = small
    suites, first = tiling_suite(mspec, tparams, 3, seed=1)
    assert len(suites) == 7
    for cid, suite in suites.items():
        assert suite.passed, cid
        assert suite.instances == 3
    assert first.lo[0] < first.hi[-1]


def test_phi_suite_small(small):
    mspec, tparams, sparams = small
    suites, sep, est = phi_suite(
        mspec, tparams, sparams, 2, 400, eps=0.25, seed=3
    )
    assert all(s.passed for s in suites.values())
    assert sep.passed
    assert est["separation"]["phi_z0"] == 2.0
    assert 0.0 <= est["free_fraction_max"] < 0.5
    assert est["z_width"]["value"] >= 0.0
    assert len(est["z_width"]["per_n"]) == 6


def test_phi_suite_window_guard(small):
    mspec, tparams, sparams = small
    with pytest.raises(ConfigurationError):
        phi_suite(mspec, tparams, sparams, 1, 20, eps=0.25)


def test_band_suite_small(small):
    mspec, tparams, sparams = small
    F = StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=3, seed=5)
    suites, first = band_suite(mspec, tparams, sparams, F, 2, 400, seed=4)
    assert all(s.passed for s in suites.values())
    assert first.g_seq is not None and len(first.g_seq) >= 400
    rows = list(first.rows())
    assert rows[0][0] == 0


def test_band_recovery_fails_on_a_corrupted_vertex(small):
    """Negative control: an oracle that differs from the one that built
    the g window in one vertex draw, read with positive weight by the
    first admissible block, fails band-recovery at that block."""
    mspec, tparams, sparams = small
    F = StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=3, seed=5)
    x = sample_points(SYS, 1, seed=4)[0]
    ctx = factor_context(x, mspec, tparams, sparams, (0, 399))
    fimg = factor_image(ctx, sparams, F)
    starts = admissible_recovery_starts(ctx, sparams)
    assert len(starts) >= 1
    assert check_band_recovery(ctx, fimg, F, sparams).passed

    a = int(starts[0])
    verts, w = _reference_carrier(F, x.shifted(a))
    v = verts[int(np.argmax(w))]
    key = (*v[:-1].tolist(), int(v[-1]) % F.circle_cells)
    corrupted = StarMap(system=SYS, eps_half=0.125, n_horizon=3, m=3, seed=5)
    corrupted._images[key] = 1.0 - F._vertex_image(key)
    res = check_band_recovery(ctx, fimg, corrupted, sparams)
    assert res.check_id == BAND_RECOVERY
    assert not res.passed
    assert res.witness == a

    # one coordinate of one block off is enough, for a plain oracle too
    def last_off(ow):
        out = F(ow).copy()
        if ow.offset == x.offset + a:
            out[-1] = 1.0 - out[-1]
        return out

    res = check_band_recovery(ctx, fimg, last_off, sparams)
    assert not res.passed and res.witness == a


def test_clustered_space_has_clusters():
    space = _clustered_space(SYS, 6, 3, 0.25, seed=9)
    assert space.n_atoms >= 6
    assert space.diameter() > 0.25


# ---------------------------------------------------------------------------
# the full chain


def test_pipeline_passes(default_report):
    rep = default_report
    assert rep.passed
    names = [s.name for s in rep.stages]
    assert names == [
        "parameters",
        "marker",
        "tiling",
        "phi",
        "fmap",
        "band",
        "fiber",
    ]
    assert rep.params["M"] == 2584
    assert rep.comparison["verdict"] == "violated"
    assert rep.estimates["fiber_max_ratio"] < rep.estimates["fiber_target"]
    lines = rep.lines()
    assert lines[-1].endswith("PASS")
    assert any("fiber-containment" in ln for ln in lines)


def test_pipeline_deterministic(default_report):
    again = run_pipeline(default_config())
    a = default_report.to_json()
    b = again.to_json()
    ta, tb = a.pop("generated_at"), b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert ta and tb


def test_pipeline_report_files(default_report, tmp_path):
    written = write_report(default_report, tmp_path)
    assert set(written) == {
        "report.json",
        "checks.csv",
        "tiling.csv",
        "phi_trace.csv",
        "fibers.csv",
    }
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    n_checks = sum(len(s["checks"]) for s in doc["stages"])
    lines = (tmp_path / "checks.csv").read_text().strip().splitlines()
    assert len(lines) == n_checks + 1
    trace = (tmp_path / "phi_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "k,phi,g" and len(trace) == 1001


# Golden digests: SHA-256 of report.json without its generated_at line for
# default_config(seed=s), and of run_products(default_config(seed=0), 2)
# as sorted-key JSON without generated_at.  A refactor leaves them as they
# are; a change that alters results on purpose re-pins them and says so.
REPORT_SHA256 = {
    0: "202d0f8ffaa2244659ba8769004036791ecb607f34b1b4a1f6a44f35774cc76d",
    1: "f8316eecd5f12ea448d5401a5a7cf9300dda0ea02a7d5d9423eab3a69c49fcc9",
    2: "654aed01a011d39638dc939e1351c48967ddb6fa0bb9f1acafbff6171f2fbdf1",
}
PRODUCTS_SHA256 = "3f212d2fc01f7051437fc6b4c82bc2c0aa1153b1a75fd655aa842091aed9fa17"


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_report_golden_digest(seed, default_report, tmp_path):
    report = default_report if seed == 0 else run_pipeline(default_config(seed=seed))
    write_report(report, tmp_path)
    raw = (tmp_path / "report.json").read_bytes().splitlines(keepends=True)
    body = b"".join(ln for ln in raw if b'"generated_at"' not in ln)
    assert hashlib.sha256(body).hexdigest() == REPORT_SHA256[seed]


def test_products_golden_digest():
    doc = run_products(default_config(seed=0), 2).to_json()
    doc.pop("generated_at")
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PRODUCTS_SHA256


def test_pipeline_rejects_undersized_marker():
    cfg = default_config(
        arc_radius=Fraction(1, 400), inner_radius=Fraction(1, 800)
    )
    with pytest.raises(ConfigurationError) as err:
        run_pipeline(cfg)
    assert str(err.value).startswith("tiling:")


def test_pipeline_error_carries_stage():
    err = PipelineError("fiber", "no block admits the probe", witness=(3, 4))
    assert err.stage == "fiber" and err.witness == (3, 4)
    assert str(err) == "fiber: no block admits the probe"


# ---------------------------------------------------------------------------
# products


def test_products_two_factors():
    rep = run_products(default_config(), 2)
    assert rep.passed and rep.count == 2
    ks = [(f.k, f.eps, f.delta) for f in rep.factors]
    assert ks == [(1, 0.25, 0.1), (2, 0.125, 0.05)]
    assert [f.params["M"] for f in rep.factors] == [10946, 46368]
    assert [f.params["m"] for f in rep.factors] == [26, 56]
    assert [f.n_window for f in rep.factors] == [3490, 15205]
    assert rep.sum_bound == pytest.approx(0.134324107)
    assert rep.sum_bound < 0.2
    assert rep.sum_delta == pytest.approx(0.15)
    for f in rep.factors:
        assert f.separation["separated"] is True
        assert f.bound_term < f.delta
    doc = rep.to_json()
    assert json.dumps(doc, sort_keys=True)
    assert doc["checks"][-1]["id"] == "product-budget"
    assert rep.lines()[-1].endswith("PASS")


def test_products_single_factor_uses_half_budget():
    rep = run_products(default_config(), 1)
    assert rep.passed
    assert rep.factors[0].delta == pytest.approx(0.1)
    assert rep.factors[0].eps == 0.25
    assert rep.sum_delta == pytest.approx(0.1)


def test_products_count_validation():
    with pytest.raises(ConfigurationError):
        run_products(default_config(), 0)
    with pytest.raises(ConfigurationError):
        run_products(default_config(), 5)


# ---------------------------------------------------------------------------
# the dimension comparison


def test_hurewicz_default_violated(default_report):
    comp = default_report.comparison
    assert comp["mdim_lower"] == 1.0
    assert comp["mdim_upper"] == pytest.approx(17 / 12)
    assert comp["factor_side"] == pytest.approx(0.29042307692307695)
    assert comp["fiber_side"] == pytest.approx(12 / 65)
    assert comp["right_side"] < 0.48
    assert comp["verdict"] == "violated"
    assert comp["certificate"] == {
        "grid_dim": 2,
        "cells": 6,
        "eps": 0.9,
        "certified_lower": 2,
        "n_horizon": 2,
        "flag": "",
    }


def test_hurewicz_zero_dimensional_cube():
    res = resolve(default_config(system=SystemSpec(D=0)))
    comp = hurewicz_report(res)
    assert comp["verdict"] == "trivially satisfied"
    assert comp["mdim_lower"] == 0.0 and comp["certificate"] is None


def test_hurewicz_inconclusive_when_fiber_budget_dominates():
    # pinning m = 2 blows the fiber-side budget past the certified lower
    res = resolve(default_config(m=2))
    comp = hurewicz_report(res)
    assert comp["fiber_side"] > 1.0
    assert comp["verdict"] == "inconclusive"
