"""Interval tilings sliced from a planar Voronoi diagram of marker sites.

Each marker support time n contributes a site (n, 1/phi(T^n x)) in the
upper half plane.  Cutting the Voronoi diagram of these sites along a
horizontal line y = -level produces closed intervals, one per surviving
site, whose interiors are disjoint and whose union covers the line.  All
pairwise comparisons are affine in the slice coordinate, so each cell is
an interval and the whole construction reduces to min/max over pairwise
boundary points.

Heights are carried as exact integer arc distances (half-grid units) so
that near-tied boundary points between two shallow sites are computed
without catastrophic cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import (
    CENTRAL_TILE,
    COVERAGE,
    EDGE_DENSITY,
    EQUIVARIANCE,
    INTERIOR_MASS,
    SURVIVOR_LEVEL,
    TILE_LOCALITY,
    CheckResult,
)
from .dynsys import ConfigurationError, WindowExhaustionError
from .marker import MarkerConstructionError, MarkerSequence

COVER_TOL = 1e-9


class TilingError(RuntimeError):
    """A structural guarantee of the tiling failed to materialize."""


def scale_floor(r: float, delta: float, c: float) -> float:
    """Smallest admissible marker scale for probe radius r, density budget
    delta, and slice ratio c; TilingParams requires M strictly above it."""
    R = max(float(r), 9.0)
    cap = 1.0 / (1.0 - delta)
    return max(2.0 * R * (c + 1.0) / (c - 1.0), 2.0 / (cap - c))


@dataclass(frozen=True)
class TilingParams:
    """Geometry knobs for the sliced tiling.

    r is the probe radius, delta the boundary-density budget, c the ratio
    between the two slice depths, and M < M1 the marker scales the knobs
    must dominate.  Derived quantities: R = max(r, 9) is the inflation
    radius used in density estimates, H = (M1+1)^2 the base slice depth.
    """

    r: float
    delta: float
    c: float
    M: int
    M1: int

    def __post_init__(self):
        if not self.r > 0:
            raise ConfigurationError("probe radius r must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        cap = 1.0 / (1.0 - self.delta)
        if not 1.0 < self.c < cap:
            raise ConfigurationError(
                f"c={self.c} must lie strictly between 1 and {cap}"
            )
        if self.M < 1 or self.M1 <= self.M:
            raise ConfigurationError("need integers 1 <= M < M1")
        bound = self.m_lower_bound()
        if not self.M > bound:
            raise ConfigurationError(
                f"M={self.M} too small for (r, delta, c); needs M > {bound:.6g}"
            )

    def m_lower_bound(self) -> float:
        """Smallest admissible separation scale for these knobs."""
        return scale_floor(self.r, self.delta, self.c)

    @property
    def R(self) -> float:
        return max(float(self.r), 9.0)

    @property
    def H(self) -> float:
        return float((self.M1 + 1) ** 2)

    @property
    def cH(self) -> float:
        return self.c * self.H

    @property
    def K(self) -> int:
        """Lookback radius 2*M1 + 2: the farthest marker site that can shape
        a kept tile, and the certified reach of the central tile."""
        return 2 * self.M1 + 2

    @property
    def margin(self) -> int:
        """Marker-window slack needed on each side of a tiling window.

        One tile-locality radius for labels reaching into the window, plus
        one constraint reach for the sites that shape those tiles.
        """
        return 3 * (self.M1 + 1)


def pair_boundary(n: float, h_n: float, m: float, h_m: float, level: float) -> float:
    """Slice point equidistant from sites (n, h_n) and (m, h_m) with n < m.

    Closed form: u = (m+n)/2 + ((level+h_m)^2 - (level+h_n)^2) / (2(m-n)).
    Reference implementation; the construction itself uses an integer-exact
    rearrangement of the same expression.
    """
    if not m > n:
        raise ConfigurationError("pair_boundary expects n < m")
    num = (level + h_m) ** 2 - (level + h_n) ** 2
    return (m + n) / 2.0 + num / (2.0 * (m - n))


@dataclass(frozen=True)
class IntervalTiling:
    """Closed tiles indexed by site label, certified exact on valid_window.

    Labels absent from `labels` but inside `label_range` carry the EMPTY
    tile: either no marker site sits there, or the site is dominated on
    this slice (or its tile misses the window).
    """

    params: TilingParams
    level: float
    valid_window: tuple[float, float]
    labels: np.ndarray  # int64 labels of nonempty tiles, ascending
    lo: np.ndarray  # float64 left endpoints (clipped to the window)
    hi: np.ndarray  # float64 right endpoints
    site_labels: np.ndarray  # int64, every marker site in label_range
    site_phi: np.ndarray  # float64, phi at those sites
    label_range: tuple[int, int]

    def tile(self, n: int):
        a, b = self.label_range
        if not a <= n <= b:
            raise KeyError(f"label {n} outside certified range [{a}, {b}]")
        i = int(np.searchsorted(self.labels, n))
        if i < len(self.labels) and self.labels[i] == n:
            return float(self.lo[i]), float(self.hi[i])
        return None

    def tile_at(self, u: float) -> int:
        """Label of a tile whose closed interval contains u."""
        w0, w1 = self.valid_window
        if not w0 <= u <= w1:
            raise ConfigurationError(f"query {u} outside certified window")
        i = int(np.searchsorted(self.lo, u, side="right")) - 1
        if i < 0 or u > self.hi[i] + COVER_TOL:
            raise TilingError(f"query {u} fell in an uncovered gap")
        return int(self.labels[i])

    def endpoints(self) -> np.ndarray:
        return np.unique(np.concatenate([self.lo, self.hi]))

    def dist_to_boundary(self, u: float) -> float:
        """Distance from u to the nearest tile endpoint."""
        e = self.endpoints()
        i = int(np.searchsorted(e, u))
        left = abs(u - float(e[max(i - 1, 0)]))
        right = abs(float(e[min(i, len(e) - 1)]) - u)
        return min(left, right)

    def rows(self):
        """(label, a, b, slice_level) tuples for CSV dumps."""
        for n, a, b in zip(self.labels, self.lo, self.hi):
            yield int(n), float(a), float(b), float(self.level)


def slice_tiling(
    seq: MarkerSequence,
    params: TilingParams,
    level: float,
    window: tuple[float, float],
) -> IntervalTiling:
    """Tiling of `window` by the slice at y = -level.

    The marker sequence must extend params.margin beyond the window on
    each side; tiles are clipped to the window.  Boundary points between
    sites n < m are evaluated as

        u = (n+m)/2 + d_h * (2*level + h_m + h_n) / (2(m-n)),

    with the height difference d_h = h_m - h_n expanded over the exact
    integer arc distances so that nearby shallow sites do not cancel.
    """
    if not level > 0:
        raise ConfigurationError("slice level must be positive")
    w_lo, w_hi = float(window[0]), float(window[1])
    if w_hi < w_lo:
        raise ConfigurationError("empty tiling window")
    if seq.M != params.M or seq.M1 != params.M1:
        raise ConfigurationError(
            f"marker scales ({seq.M}, {seq.M1}) do not match params "
            f"({params.M}, {params.M1})"
        )
    s_lo, s_hi = seq.window
    if w_lo < s_lo + params.margin or w_hi > s_hi - params.margin:
        raise WindowExhaustionError(
            f"tiling window [{w_lo}, {w_hi}] needs marker data on "
            f"[{w_lo - params.margin}, {w_hi + params.margin}], have "
            f"[{s_lo}, {s_hi}]"
        )

    M1 = params.M1
    lab_lo = math.ceil(w_lo - (M1 + 1))
    lab_hi = math.floor(w_hi + (M1 + 1))
    reach = params.K  # farthest site that can shape a kept tile
    i0 = int(np.searchsorted(seq.support, lab_lo - reach))
    i1 = int(np.searchsorted(seq.support, lab_hi + reach, side="right"))
    sites = seq.support[i0:i1]
    if len(sites) == 0:
        raise MarkerConstructionError("no marker sites near the requested window")
    if len(sites) > 1 and int(np.min(np.diff(sites))) < params.M:
        raise MarkerConstructionError("support times closer than M")

    spec = seq.spec
    t2 = seq.support_t2[i0:i1]
    phi = seq.values[i0:i1]
    W2 = float(spec.outer_num2 - spec.inner_num2)
    den = (spec.outer_num2 - t2).astype(np.float64)  # in (0, W2]
    h = W2 / den  # site heights, exactly 1.0 on the inner arc

    A = np.full(len(sites), -np.inf)
    B = np.full(len(sites), np.inf)
    fsites = sites.astype(np.float64)
    for j in range(1, len(sites)):
        gap = sites[j:] - sites[:-j]
        if int(gap.min()) > reach:
            break
        dh = (W2 * (t2[j:] - t2[:-j]).astype(np.float64)) / (den[:-j] * den[j:])
        S = 2.0 * level + h[j:] + h[:-j]
        u = (fsites[:-j] + fsites[j:]) / 2.0 + dh * S / (2.0 * gap)
        np.minimum(B[:-j], u, out=B[:-j])
        np.maximum(A[j:], u, out=A[j:])

    keep = (sites >= lab_lo) & (sites <= lab_hi)
    kept = sites[keep].astype(np.int64)
    a = np.maximum(A[keep], w_lo)
    b = np.minimum(B[keep], w_hi)
    nonempty = a <= b
    return IntervalTiling(
        params=params,
        level=float(level),
        valid_window=(w_lo, w_hi),
        labels=kept[nonempty],
        lo=a[nonempty],
        hi=b[nonempty],
        site_labels=kept,
        site_phi=phi[keep],
        label_range=(lab_lo, lab_hi),
    )


def tiling_pair(
    seq: MarkerSequence, params: TilingParams, window: tuple[float, float]
) -> tuple[IntervalTiling, IntervalTiling]:
    """Both working slices: depth H and depth cH over the same window."""
    return (
        slice_tiling(seq, params, params.H, window),
        slice_tiling(seq, params, params.cH, window),
    )


# ---------------------------------------------------------------------------
# boundary sets and densities


def boundary_set(tiling: IntervalTiling, rho: float) -> np.ndarray:
    """Union of [e-rho, e+rho] over all tile endpoints e, merged and sorted.

    Returned as an (k, 2) array, clipped to the certified window shrunk by
    rho (beyond that, unseen endpoints could contribute).
    """
    if not rho > 0:
        raise ConfigurationError("rho must be positive")
    w0, w1 = tiling.valid_window
    clip_lo, clip_hi = w0 + rho, w1 - rho
    if clip_hi < clip_lo or len(tiling.labels) == 0:
        return np.empty((0, 2))
    e = tiling.endpoints()
    starts = e - rho
    stops = e + rho
    brk = np.nonzero(starts[1:] > stops[:-1])[0]
    seg_a = starts[np.concatenate(([0], brk + 1))]
    seg_b = stops[np.concatenate((brk, [len(e) - 1]))]
    seg_a = np.maximum(seg_a, clip_lo)
    seg_b = np.minimum(seg_b, clip_hi)
    ok = seg_a <= seg_b
    return np.column_stack((seg_a[ok], seg_b[ok]))


def boundary_density(tiling: IntervalTiling, rho: float, R_window: float) -> float:
    """Fraction of [-R_window, R_window] within rho of a tile endpoint."""
    if not R_window > 0:
        raise ConfigurationError("R_window must be positive")
    if rho < 0:
        raise ConfigurationError("rho must be nonnegative")
    if rho == 0:
        return 0.0
    w0, w1 = tiling.valid_window
    if not (w0 + rho <= -R_window and R_window <= w1 - rho):
        raise ConfigurationError(
            f"density window {R_window} (+rho) exceeds the certified tiling window"
        )
    segs = boundary_set(tiling, rho)
    if len(segs) == 0:
        return 0.0
    a = np.maximum(segs[:, 0], -R_window)
    b = np.minimum(segs[:, 1], R_window)
    m = np.maximum(b - a, 0.0)
    return math.fsum(m.tolist()) / (2.0 * R_window)


# ---------------------------------------------------------------------------
# the designated central tile


def good_tile(
    tiling_H: IntervalTiling,
    tiling_cH: IntervalTiling,
    params: TilingParams,
) -> tuple[int, tuple[float, float]]:
    """Label whose deep-slice tile owns 0, and its base-slice tile.

    Selection: among cH-tiles whose closed interval contains 0, prefer
    positive length; ties broken by larger length, then smaller label.
    The returned H-tile is checked to admit an r-deep interior point and
    to sit inside [-2*M1-2, 2*M1+2], which certifies the lookback radius
    K = 2*M1+2 used downstream.
    """
    need = float(params.K)
    for t in (tiling_H, tiling_cH):
        w0, w1 = t.valid_window
        if not (w0 <= -need and need <= w1):
            raise ConfigurationError(
                "good_tile needs both slices certified on [-2*M1-2, 2*M1+2]"
            )
    c = tiling_cH
    cand = np.nonzero((c.lo <= 0.0) & (c.hi >= 0.0))[0]
    if len(cand) == 0:
        raise TilingError("no deep-slice tile contains 0")
    lens = c.hi[cand] - c.lo[cand]
    best = min(range(len(cand)), key=lambda i: (-lens[i], int(c.labels[cand[i]])))
    n = int(c.labels[cand[best]])
    base = tiling_H.tile(n)
    if base is None:
        raise TilingError(f"central label {n} has no base-slice tile")
    a, b = base
    if not (b - a) > 2.0 * params.r:
        raise TilingError(
            f"central tile [{a}, {b}] too short for an r-deep interior point"
        )
    if not (-need <= a and b <= need):
        raise TilingError(f"central tile [{a}, {b}] escapes [-{need}, {need}]")
    return n, base


# ---------------------------------------------------------------------------
# lemma checks


def check_tile_locality(t: IntervalTiling) -> CheckResult:
    """Every nonempty tile n sits inside [n - M1 - 1, n + M1 + 1]."""
    if len(t.labels) == 0:
        return CheckResult(TILE_LOCALITY, False, "tiling has no tiles")
    M1 = t.params.M1
    labf = t.labels.astype(np.float64)
    slack = np.minimum(t.lo - (labf - (M1 + 1)), (labf + (M1 + 1)) - t.hi)
    i = int(np.argmin(slack))
    margin = float(slack[i])
    ok = margin >= 0.0
    return CheckResult(
        TILE_LOCALITY,
        ok,
        f"min locality slack {margin:.6g} at label {int(t.labels[i])}",
        witness=None if ok else int(t.labels[i]),
    )


def check_survivor_level(t: IntervalTiling) -> CheckResult:
    """A site keeping a nonempty tile must have phi strictly above 1/2."""
    if len(t.labels) == 0:
        return CheckResult(SURVIVOR_LEVEL, False, "tiling has no tiles")
    idx = np.searchsorted(t.site_labels, t.labels)
    phi = t.site_phi[idx]
    i = int(np.argmin(phi))
    margin = float(phi[i] - 0.5)
    ok = margin > 0.0
    return CheckResult(
        SURVIVOR_LEVEL,
        ok,
        f"min surviving phi {float(phi[i]):.6g} at label {int(t.labels[i])}",
        witness=None if ok else int(t.labels[i]),
    )


def check_coverage(t: IntervalTiling, tol: float = COVER_TOL) -> CheckResult:
    """Tiles cover the window with pairwise-null overlap.

    Verified as: total length matches the window length, consecutive tiles
    neither overlap nor leave gaps, and the extreme tiles hug the window.
    """
    w0, w1 = t.valid_window
    if len(t.labels) == 0:
        return CheckResult(COVERAGE, w1 - w0 <= tol, "tiling has no tiles")
    total = math.fsum((t.hi - t.lo).tolist())
    defect = abs(total - (w1 - w0))
    if len(t.labels) > 1:
        overlap = float(np.max(t.hi[:-1] - t.lo[1:]))
        gap = float(np.max(t.lo[1:] - t.hi[:-1]))
    else:
        overlap = gap = 0.0
    edges = max(abs(float(t.lo[0]) - w0), abs(float(t.hi[-1]) - w1))
    worst = max(defect, overlap, gap, edges)
    return CheckResult(
        COVERAGE,
        worst <= tol,
        f"length defect {defect:.3g}, overlap {max(overlap, 0):.3g}, "
        f"gap {max(gap, 0):.3g}, edge slack {edges:.3g}",
    )


def check_interior_mass(
    tiling_H: IntervalTiling, tiling_cH: IntervalTiling, tol: float = COVER_TOL
) -> CheckResult:
    """Per label: base tile minus its R-collar keeps (1-delta) of the deep tile.

    |W(n)| - 2R, floored at zero, must be at least (1-delta)|W_c(n)| for
    every label in the unclipped interior of the window.
    """
    params = tiling_H.params
    if tiling_cH.params != params:
        raise ConfigurationError("slices built with different params")
    if not tiling_cH.level > tiling_H.level:
        raise ConfigurationError("expected (base, deep) slice order")
    w0, w1 = tiling_H.valid_window
    n_lo = math.ceil(w0 + params.M1 + 1)
    n_hi = math.floor(w1 - params.M1 - 1)

    def interior_lengths(t: IntervalTiling):
        m = (t.labels >= n_lo) & (t.labels <= n_hi)
        return t.labels[m], (t.hi - t.lo)[m]

    labH, lenH = interior_lengths(tiling_H)
    labC, lenC = interior_lengths(tiling_cH)
    all_labels = np.union1d(labH, labC)
    if len(all_labels) == 0:
        return CheckResult(INTERIOR_MASS, False, "no unclipped tiles to check")

    def lookup(labels, lengths):
        out = np.zeros(len(all_labels))
        idx = np.searchsorted(labels, all_labels)
        idx_ok = idx < len(labels)
        hit = np.zeros(len(all_labels), dtype=bool)
        hit[idx_ok] = labels[idx[idx_ok]] == all_labels[idx_ok]
        out[hit] = lengths[idx[hit]]
        return out

    lhs = np.maximum(lookup(labH, lenH) - 2.0 * params.R, 0.0)
    rhs = (1.0 - params.delta) * lookup(labC, lenC)
    slack = lhs - rhs
    i = int(np.argmin(slack))
    margin = float(slack[i])
    ok = margin >= -tol
    return CheckResult(
        INTERIOR_MASS,
        ok,
        f"min interior-mass slack {margin:.6g} at label {int(all_labels[i])} "
        f"({len(all_labels)} tiles)",
        witness=None if ok else int(all_labels[i]),
    )


def check_edge_density(
    tiling: IntervalTiling,
    rho: float | None = None,
    R_window: float | None = None,
) -> CheckResult:
    """Boundary density at inflation R stays below delta."""
    params = tiling.params
    if rho is None:
        rho = params.R
    w0, w1 = tiling.valid_window
    if R_window is None:
        R_window = min(-w0, w1) - rho
    dens = boundary_density(tiling, rho, R_window)
    margin = params.delta - dens
    return CheckResult(
        EDGE_DENSITY,
        margin > 0.0,
        f"density {dens:.6g} vs budget {params.delta} "
        f"(rho={rho}, R_window={R_window})",
    )


def check_central_tile(
    tiling_H: IntervalTiling, tiling_cH: IntervalTiling, params: TilingParams
) -> CheckResult:
    """good_tile succeeds and its guarantees hold."""
    try:
        n, (a, b) = good_tile(tiling_H, tiling_cH, params)
    except (TilingError, ConfigurationError) as exc:
        return CheckResult(CENTRAL_TILE, False, str(exc))
    return CheckResult(
        CENTRAL_TILE,
        True,
        f"label {n}, tile [{a:.6g}, {b:.6g}], length {b - a:.6g} > 2r = {2 * params.r}",
    )


def check_equivariance(
    seq: MarkerSequence,
    params: TilingParams,
    k: int,
    level: float | None = None,
    window: tuple[float, float] | None = None,
    shifted_seq: MarkerSequence | None = None,
    tol: float = COVER_TOL,
) -> CheckResult:
    """Shifting the sequence by k translates the tiling by -k.

    By default the shifted side is the relabeled original sequence, which
    exercises the windowing logic; callers can pass an independently
    computed sequence of the shifted point for an end-to-end check (or a
    corrupted one, which must make the comparison fail).
    """
    if level is None:
        level = params.H
    s_lo, s_hi = seq.window
    if window is None:
        window = (s_lo + params.margin, s_hi - params.margin)
    base = slice_tiling(seq, params, level, window)
    if shifted_seq is None:
        shifted_seq = seq.shifted(k)
    moved = slice_tiling(
        shifted_seq, params, level, (window[0] - k, window[1] - k)
    )
    if not np.array_equal(moved.labels + k, base.labels):
        sa = set((moved.labels + k).tolist())
        sb = set(base.labels.tolist())
        odd = min(sa.symmetric_difference(sb))
        return CheckResult(
            EQUIVARIANCE, False, f"tile label sets differ (first at {odd})", odd
        )
    if len(base.labels) == 0:
        return CheckResult(EQUIVARIANCE, True, "no tiles on either side")
    d = np.maximum(
        np.abs((moved.lo + k) - base.lo), np.abs((moved.hi + k) - base.hi)
    )
    i = int(np.argmax(d))
    worst = float(d[i])
    ok = worst <= tol
    return CheckResult(
        EQUIVARIANCE,
        ok,
        f"max endpoint mismatch {worst:.3g} (shift k={k})",
        witness=None if ok else int(base.labels[i]),
    )
