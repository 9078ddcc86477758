"""Signal maps layered on the sliced tiling.

Two scalar observables are read off the tiling around each integer time:

* h combines the clamped distance to the tile boundary with a
  depth-activated label term, giving the coordinate map of the [0,2]-valued
  factor Phi;
* g samples a block oracle F on a collar around tile boundaries, giving the
  [0,1]-valued factor I_g.  Inside a tile, integers fall into residue blocks
  of length m-1, and every time in a block reads its coordinate from the
  same oracle evaluation — which is what makes blocks recoverable from the
  output.

The pair pi = (I_g, Phi) is the factor map the verification harness probes.

Each sample window is derived once: ``factor_context`` keeps its marker
sequence, its depth-H tiling and, per tile, the integer run it owns and
the sorted tile endpoints.  That is O(tiles), and so is most of what the
checks need.  phi = min{dist, 1} + alpha_deep(dist) * gamma(n - k) is
exactly 1.0 wherever dist >= 1 and |n - k| >= GAMMA_REACH, which is most
of every long window.  So ``sparse_phi`` evaluates phi only on the
context's active coordinates (the collar of each endpoint and the label
neighbourhood of each tile); the plateau report takes its free fraction
and rigid blocks from the R/3-deep run between each pair of endpoints,
and the profile-cap check reads only the active coordinates.
g is 0 outside the 3m-collar of the endpoints, so ``factor_image`` and
the band checks read owners and distances only there.  The context's
dense owners, distances and label weights are test references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .checks import (
    BAND_RECOVERY,
    BAND_SPARSITY,
    BAND_SUPPORT,
    PLATEAU_BUDGET,
    PROFILE_CAP,
    SEPARATION,
    CheckResult,
)
from .dynsys import ConfigurationError, OrbitWindow
from .marker import MarkerSequence, MarkerSpec, marker_sequence, pick_z_zprime, support_window_for
from .tiling import COVER_TOL, IntervalTiling, TilingParams, slice_tiling


class SignalError(RuntimeError):
    """Inconsistency between computed signal values and their invariants."""


class GammaVariant(Enum):
    """Shape of the label weight gamma.

    MAX_AT_ZERO is the working variant: 2/(1+e^{|t|}), even, maximal value 1
    at t = 0, decaying to 0.  MIN_AT_ZERO is 2/(1+e^{-|t|}), which instead
    rises from 1 toward 2; it breaks the separation argument and is kept
    only for side-by-side diagnostic runs.
    """

    MAX_AT_ZERO = "max-at-zero"
    MIN_AT_ZERO = "min-at-zero"


def gamma(t, variant: GammaVariant = GammaVariant.MAX_AT_ZERO):
    """Label weight; vectorized, overflow-safe for any |t|."""
    e = np.array(t, dtype=np.float64)  # the one working copy, updated in place
    np.exp(np.negative(np.abs(e, out=e), out=e), out=e)
    if variant is GammaVariant.MAX_AT_ZERO:
        den = 1.0 + e
        out = np.divide(np.multiply(e, 2.0, out=e), den, out=e)  # 2e / (1 + e)
    else:
        out = np.divide(2.0, np.add(e, 1.0, out=e), out=e)  # 2 / (1 + e)
    return float(out) if out.ndim == 0 else out


def alpha_deep(t, R: float):
    """Depth gate: 0 within distance 2 of a boundary, 1 beyond R/3."""
    if not R > 6:
        raise ConfigurationError("alpha_deep needs R > 6")
    out = np.array(t, dtype=np.float64)  # the one working copy, updated in place
    if np.any(out < 0):
        raise ConfigurationError("distances must be nonnegative")
    # the ramp (t - 2) / (R/3 - 2) is monotone in t, so clipping it to
    # [0, 1] gives exactly 0 up to t = 2 and exactly 1 from t = R/3 on
    np.divide(np.subtract(out, 2.0, out=out), R / 3.0 - 2.0, out=out)
    np.clip(out, 0.0, 1.0, out=out)
    return float(out) if out.ndim == 0 else out


def alpha_band(t, m: int):
    """Collar gate: vanishes at 0 and beyond 3m, full on [1, 2m]."""
    if m < 1:
        raise ConfigurationError("alpha_band needs m >= 1")
    tt = np.asarray(t, dtype=np.float64)
    if np.any(tt < 0):
        raise ConfigurationError("distances must be nonnegative")
    up = np.minimum(tt, 1.0)  # ramp [0,1]
    down = (3.0 * m - tt) / float(m)  # ramp [2m, 3m]
    out = np.where(
        tt >= 3.0 * m,
        0.0,
        np.where(tt <= 2.0 * m, np.where(tt >= 1.0, 1.0, up), np.minimum(down, 1.0)),
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SignalParams:
    """Knobs of the signal layer: boundary radius R, block length m."""

    R: float
    m: int
    gamma_variant: GammaVariant = GammaVariant.MAX_AT_ZERO

    def __post_init__(self):
        if not self.R > 6:
            raise ConfigurationError("R must exceed 6")
        if self.m < 2:
            raise ConfigurationError("block parameter m must be >= 2")

    @classmethod
    def from_tiling(
        cls, tparams: TilingParams, m: int, variant: GammaVariant = GammaVariant.MAX_AT_ZERO
    ) -> "SignalParams":
        return cls(R=tparams.R, m=m, gamma_variant=variant)


@dataclass(frozen=True)
class FactorImage:
    """Windows of the factor coordinates: phi in [0,2], g in [0,1]."""

    window: tuple[int, int]  # inclusive integer range
    phi_seq: np.ndarray
    g_seq: np.ndarray | None = None

    def index(self, k: int) -> int:
        lo, hi = self.window
        if not lo <= k <= hi:
            raise KeyError(f"coordinate {k} outside window [{lo}, {hi}]")
        return k - lo

    def phi_at(self, k: int) -> float:
        return float(self.phi_seq[self.index(k)])

    def g_at(self, k: int) -> float:
        if self.g_seq is None:
            raise ConfigurationError("image carries no g window")
        return float(self.g_seq[self.index(k)])

    def rows(self):
        """(k, phi_k, g_k) tuples for CSV dumps; g blank when absent."""
        lo, hi = self.window
        for i, k in enumerate(range(lo, hi + 1)):
            g = "" if self.g_seq is None else float(self.g_seq[i])
            yield k, float(self.phi_seq[i]), g


@dataclass(frozen=True)
class SparsePhi:
    """A phi window stored on the coordinates where it can differ from 1.0;
    every other coordinate of the window is exactly 1.0."""

    window: tuple[int, int]  # inclusive integer range
    ks: np.ndarray  # sorted int64 coordinates
    phi: np.ndarray  # float64 phi at ks

    def segment(self, a: int, b: int) -> np.ndarray:
        """The dense phi window on [a, b]."""
        lo, hi = self.window
        if not lo <= a <= b <= hi:
            raise KeyError(f"segment [{a}, {b}] outside window [{lo}, {hi}]")
        out = np.ones(b - a + 1)
        i, j = np.searchsorted(self.ks, (a, b + 1))
        out[self.ks[i:j] - a] = self.phi[i:j]
        return out


# 1.0 + gamma(t) == 1.0 for every integer |t| >= GAMMA_REACH (working
# variant): gamma(38) < 2^-53, so label weights that far out vanish next to 1
GAMMA_REACH = 38


@dataclass(frozen=True)
class FactorContext:
    """One window's tiling, kept per tile: the integer run each tile owns
    and the sorted tile endpoints, O(tiles) to build.

    The checks and the factor image read the tile runs, the R/3-deep runs
    between endpoints, the ``active`` coordinates, where phi or its cap
    can differ from 1.0, and the collar ``near(r)`` of the endpoints.  The
    dense per-coordinate arrays ``ks``, ``owners``, ``dist`` and ``gam``
    are built on first read; only tests read them, as the references of
    those sparse views.
    """

    x: OrbitWindow
    seq: MarkerSequence  # marker data under the padded tiling window
    tiling: IntervalTiling  # depth-H slice over the padded window
    window: tuple[int, int]  # inclusive integer range
    sparams: SignalParams
    run_lo: np.ndarray  # int64 first coordinate owned by each owning tile
    run_len: np.ndarray  # int64 number of coordinates it owns
    run_label: np.ndarray  # int64 its label
    edges: np.ndarray  # float64 sorted tile endpoints

    @classmethod
    def over(cls, x, seq, tiling, window, sparams: SignalParams) -> "FactorContext":
        """Tile runs of window's coordinates; raises on an uncovered gap."""
        window = (int(window[0]), int(window[1]))
        runs = _owner_runs(tiling, window)
        return cls(x, seq, tiling, window, sparams, *runs, tiling.endpoints())

    # dense per-coordinate arrays: test references, built on first read

    @cached_property
    def ks(self) -> np.ndarray:
        return np.arange(self.window[0], self.window[1] + 1, dtype=np.int64)

    @cached_property
    def owners(self) -> np.ndarray:
        return self.owners_at(self.ks)

    @cached_property
    def dist(self) -> np.ndarray:
        return _boundary_dist(self.edges, self.ks)

    @cached_property
    def gam(self) -> np.ndarray:
        return gamma(self.owners - self.ks, self.sparams.gamma_variant)

    # sparse views

    def owners_at(self, ks: np.ndarray) -> np.ndarray:
        """Owning labels of the sorted window coordinates ks: tile i owns
        those from run_lo[i] on, so one search of the runs in ks and one
        repeat lay the labels out."""
        pos = np.searchsorted(ks, self.run_lo)
        return np.repeat(self.run_label, np.diff(np.append(pos, len(ks))))

    def at(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owners, boundary distances and label weights at the sorted window
        coordinates ks, bitwise equal to the dense arrays there."""
        owners = self.owners_at(ks)
        dist = _boundary_dist(self.edges, ks)
        return owners, dist, gamma(owners - ks, self.sparams.gamma_variant)

    @cached_property
    def active(self) -> np.ndarray:
        """Sorted coordinates where phi or its cap 1 + gamma(n - k) can
        differ from 1.0: the collar dist < 1 of every endpoint and, in each
        tile, the label neighbourhood |n - k| < GAMMA_REACH.  Elsewhere
        dist >= 1, alpha_deep * gamma rounds away next to 1 and both are
        exactly 1.0.  The diagnostic variant's gamma never rounds away, so
        there every coordinate is active."""
        a = self.run_lo
        b = a + self.run_len - 1
        if self.sparams.gamma_variant is GammaVariant.MAX_AT_ZERO:
            n = self.run_label
            a, b = np.maximum(a, n - (GAMMA_REACH - 1)), np.minimum(b, n + (GAMMA_REACH - 1))
        f = np.floor(self.edges).astype(np.int64)  # dist < 1 only at floor(e), floor(e) + 1
        lo, hi = self.window
        return _union_of_runs(
            np.concatenate((a, np.maximum(f, lo))), np.concatenate((b, np.minimum(f + 1, hi)))
        )

    def near(self, r: int) -> np.ndarray:
        """Sorted window coordinates k with |k - floor(e)| <= r for some
        endpoint e, in O(tiles * r).  They include every k with
        |k - e| <= r: k >= e - r >= floor(e) - r, and k <= e + r <
        floor(e) + 1 + r."""
        f = np.floor(self.edges).astype(np.int64)
        lo, hi = self.window
        return _union_of_runs(np.maximum(f - r, lo), np.minimum(f + r, hi))

    @cached_property
    def active_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``at(active)``: owners, distances and label weights there."""
        return self.at(self.active)

    @cached_property
    def rigid(self) -> np.ndarray:
        """(runs, 2) int64 inclusive runs of the R/3-deep coordinates, at
        most one per gap between consecutive endpoints.

        Between endpoints l < r the dense distance is min(k - l, r - k) in
        float64; each side is monotone in k, so the exact first and last
        deep k sit within two steps of ceil(l + R/3) and floor(r - R/3).
        Runs in neighbouring gaps are 2R/3 > 4 apart, so they are maximal.
        The gaps outside the first and last endpoint hold no coordinate
        more than COVER_TOL from the tiling.
        """
        R3 = self.sparams.R / 3.0
        left, right = self.edges[:-1], self.edges[1:]
        a = np.ceil(left + R3).astype(np.int64) - 2
        b = np.floor(right - R3).astype(np.int64) + 2
        for _ in range(4):
            a += a - left < R3
            b -= right - b < R3
        a = np.maximum(a, self.window[0])
        b = np.minimum(b, self.window[1])
        keep = a <= b
        return np.stack((a[keep], b[keep]), axis=1)


def _owner_runs(
    tiling: IntervalTiling, window: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First coordinate, length and label of the integer run each tile owns
    in window, in O(tiles).

    Integer k belongs to the last tile with lo <= k, i.e. ceil(lo) <= k, so
    each tile owns the run ceil(lo[i]) <= k < ceil(lo[i+1]).
    """
    k_lo, n = window[0], window[1] - window[0] + 1
    starts = np.clip(np.ceil(tiling.lo), k_lo, k_lo + n).astype(np.int64) - k_lo
    counts = np.diff(np.append(starts, n))
    owned = np.nonzero(counts)[0]
    last = (starts[owned] + counts[owned] - 1 + k_lo).astype(np.float64)
    if len(starts) == 0 or starts[0] > 0 or np.any(last > tiling.hi[owned] + COVER_TOL):
        raise SignalError("coordinate fell in an uncovered gap of the tiling")
    return starts[owned] + k_lo, counts[owned], tiling.labels[owned]


def _boundary_dist(e: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Distance of each of the sorted integers ks to the sorted endpoints e,
    in O(len(ks) + len(e) log len(ks)): k lies between e[j-1] < k <= e[j]
    exactly when floor(e[j-1]) < k <= floor(e[j]), so one search of the
    floors in ks and np.repeat lay both neighbours over ks."""
    seg = np.searchsorted(ks, np.floor(e).astype(np.int64), side="right")
    counts = np.diff(np.concatenate(([0], seg, [len(ks)])))
    j = np.arange(len(e) + 1)
    # in place: every window-sized temporary costs a round of page faults
    dist = np.repeat(e[np.maximum(j - 1, 0)], counts)
    np.abs(np.subtract(ks, dist, out=dist), out=dist)
    right = np.repeat(e[np.minimum(j, len(e) - 1)], counts)
    np.abs(np.subtract(right, ks, out=right), out=right)
    return np.minimum(dist, right, out=dist)


def _union_of_runs(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Sorted integers of the union of the inclusive runs [starts, stops]."""
    keep = starts <= stops
    order = np.argsort(starts[keep], kind="stable")
    starts, stops = starts[keep][order], np.maximum.accumulate(stops[keep][order])
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    first = np.flatnonzero(np.concatenate(([True], starts[1:] > stops[:-1] + 1)))
    a = starts[first]
    lengths = stops[np.append(first[1:] - 1, len(starts) - 1)] - a + 1
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(a - offsets, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def signal_pad(sparams: SignalParams) -> int:
    """Tiling slack needed so distances saturate before window edges."""
    return int(math.ceil(max(sparams.R / 3.0, 3.0 * sparams.m, 1.0))) + 1


def factor_context(
    x: OrbitWindow,
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
    window: tuple[int, int],
) -> FactorContext:
    """Marker sequence, tiling, owners, boundary distances and label weights
    for a window."""
    if sparams.R != tparams.R:
        raise ConfigurationError(
            f"signal radius R={sparams.R} disagrees with tiling R={tparams.R}"
        )
    k_lo, k_hi = int(window[0]), int(window[1])
    if k_hi < k_lo:
        raise ConfigurationError("empty signal window")
    pad = signal_pad(sparams)
    twin = (k_lo - pad, k_hi + pad)
    s_lo, s_hi = support_window_for(mspec, twin[0], twin[1])
    seq = marker_sequence(mspec, x, s_lo, s_hi)
    tiling = slice_tiling(seq, tparams, tparams.H, twin)
    return FactorContext.over(x, seq, tiling, (k_lo, k_hi), sparams)


# ---------------------------------------------------------------------------
# h and Phi


def h_value(tiling: IntervalTiling, sparams: SignalParams) -> float:
    """Signal at time 0: min{dist, 1} plus the depth-gated label weight.

    Exactly 0 when 0 sits on a tile boundary; exactly 1 + gamma(n) when 0
    sits R/3-deep inside the tile of label n.
    """
    w0, w1 = tiling.valid_window
    if not (w0 <= -sparams.R and sparams.R <= w1):
        raise ConfigurationError("tiling not certified on [-R, R]")
    d = tiling.dist_to_boundary(0.0)
    if d == 0.0:
        return 0.0
    n = tiling.tile_at(0.0)
    return float(
        min(d, 1.0) + alpha_deep(d, sparams.R) * gamma(n, sparams.gamma_variant)
    )


def phi_map(
    x: OrbitWindow,
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
    window: tuple[int, int],
) -> FactorImage:
    """Window of the [0,2]-valued factor coordinate k -> h(T^k x)."""
    return factor_image(factor_context(x, mspec, tparams, sparams, window), sparams)


# ---------------------------------------------------------------------------
# g and I_g


def g_value(tiling: IntervalTiling, F_oracle, x: OrbitWindow, sparams: SignalParams) -> float:
    """Collar-gated oracle readout at time 0.

    0 on tile boundaries and outside the 3m-collar; in between the owner
    label b selects the block offset a = -((-b) mod (m-1)) and the value is
    alpha * F(T^a x)[-a].
    """
    m = sparams.m
    d = tiling.dist_to_boundary(0.0)
    band = alpha_band(d, m)
    if band == 0.0:
        return 0.0
    b = tiling.tile_at(0.0)
    a = -((-b) % (m - 1))
    F = np.asarray(F_oracle(x.shifted(a)), dtype=np.float64)
    if F.shape != (m - 1,):
        raise ConfigurationError(f"F oracle must produce {m - 1} coordinates")
    return float(band * F[-a])


def oracle_blocks(F_oracle, x: OrbitWindow, starts, m: int) -> np.ndarray:
    """F(T^s x) for each block start s, one (m-1)-wide row per start.

    An oracle with a ``batch`` method (``StarMap``) is called once for all
    starts; a plain callable once per start.  No start, no call.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if len(starts) == 0:
        return np.zeros((0, m - 1))
    batch = getattr(F_oracle, "batch", None)
    if batch is not None:
        blocks = np.asarray(batch(x, starts), dtype=np.float64)
    else:
        rows = [np.asarray(F_oracle(x.shifted(int(s))), dtype=np.float64) for s in starts]
        if any(r.shape != (m - 1,) for r in rows):
            raise ConfigurationError(f"F oracle must produce {m - 1} coordinates")
        blocks = np.stack(rows)
    if blocks.shape != (len(starts), m - 1):
        raise ConfigurationError(f"F oracle must produce {m - 1} coordinates")
    return blocks


def factor_image(ctx: FactorContext, sparams: SignalParams, F_oracle=None) -> FactorImage:
    """The phi window of a context, plus its g window when given an oracle,
    in O(tiles + collar).

    phi is exactly 1.0 off the context's active coordinates, so
    ``sparse_phi`` is scattered onto a window of ones.  g is 0 outside the
    open 3m-collar of the endpoints, which ``near(3m)`` holds, so the band
    gate is read only there.  Inside a tile, collar times fall into
    residue blocks of length m-1 and share one evaluation F(T^s x): the
    distinct block starts take one ``oracle_blocks`` call.
    """
    lo, hi = ctx.window
    img = sparse_phi(ctx, sparams)
    phi = np.ones(hi - lo + 1)
    phi[img.ks - lo] = img.phi
    if F_oracle is None:
        return FactorImage(window=ctx.window, phi_seq=phi)
    m = sparams.m
    ks = ctx.near(3 * m)
    band = alpha_band(_boundary_dist(ctx.edges, ks), m)
    collar = np.flatnonzero(band > 0.0)
    t = ks[collar]
    s = t - (t - ctx.owners_at(t)) % (m - 1)  # block start of each collar time
    starts, row = np.unique(s, return_inverse=True)
    blocks = oracle_blocks(F_oracle, ctx.x, starts, m)
    g = np.zeros(hi - lo + 1)
    g[t - lo] = band[collar] * blocks[row, t - s]
    return FactorImage(window=ctx.window, phi_seq=phi, g_seq=g)


def pi_map(
    x: OrbitWindow,
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
    F_oracle,
    window: tuple[int, int],
) -> FactorImage:
    """Both factor windows at once: k -> (g(T^k x), h(T^k x))."""
    return factor_image(factor_context(x, mspec, tparams, sparams, window), sparams, F_oracle)


# ---------------------------------------------------------------------------
# plateau structure of phi windows


def sparse_phi(ctx: FactorContext, sparams: SignalParams) -> SparsePhi:
    """The phi window of a context on its active coordinates, in
    O(tiles + active): the formula of ``factor_image``, evaluated only where
    the result can differ from 1.0."""
    _same_params(ctx, sparams)
    _, dist, gam = ctx.active_terms
    phi = np.minimum(dist, 1.0) + alpha_deep(dist, sparams.R) * gam
    return SparsePhi(window=ctx.window, ks=ctx.active, phi=phi)


def _same_params(ctx: FactorContext, sparams: SignalParams) -> None:
    if sparams != ctx.sparams:
        raise ConfigurationError("signal params differ from the context's")


def _cap_terms(
    ctx: FactorContext, img: FactorImage | SparsePhi
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates where phi or its cap 1 + gamma(n - k) can differ from
    1.0, with phi, the boundary distance and gamma(n - k) there: the
    context's active coordinates, plus those where a dense image is off
    1.0.  On every other coordinate both are exactly 1.0, so neither the
    cap check nor the plateau check can fail there."""
    if img.window != ctx.window:
        raise ConfigurationError("phi window differs from the context window")
    if isinstance(img, SparsePhi):
        if not (img.ks is ctx.active or np.array_equal(img.ks, ctx.active)):
            raise ConfigurationError("sparse phi is not on the context's active coordinates")
        _, dist, gam = ctx.active_terms
        return img.ks, img.phi, dist, gam
    lo = ctx.window[0]
    mask = img.phi_seq != 1.0
    mask[ctx.active - lo] = True
    ks = np.flatnonzero(mask) + lo
    _, dist, gam = ctx.at(ks)
    return ks, img.phi_seq[ks - lo], dist, gam


def plateau_report(
    ctx: FactorContext,
    img: FactorImage | SparsePhi,
    sparams: SignalParams,
) -> tuple[float, list[tuple[int, int, int]]]:
    """Rigid blocks of the phi image of a context.

    A coordinate is rigid when it sits R/3-deep in its tile, where phi
    equals 1 + gamma(n - k) exactly.  Returns the fraction of free (non-
    rigid) coordinates and the maximal rigid blocks as (start, stop, label)
    with inclusive ends, read off the context's deep runs in O(tiles).
    """
    _same_params(ctx, sparams)
    _, phi, dist, gam = _cap_terms(ctx, img)
    off = 1.0 + gam  # |phi - cap|, built in place
    np.abs(np.subtract(phi, off, out=off), out=off)
    if np.any(off[dist >= sparams.R / 3.0] > 1e-12):
        raise SignalError("rigid coordinates disagree with the label profile")
    starts, stops = ctx.rigid[:, 0], ctx.rigid[:, 1]
    labels = ctx.owners_at(starts)
    blocks = list(zip(starts.tolist(), stops.tolist(), labels.tolist()))
    rigid_total = int(np.sum(stops - starts + 1))
    return 1.0 - rigid_total / (ctx.window[1] - ctx.window[0] + 1), blocks


def check_plateau_budget(free_fraction: float, budget: float) -> CheckResult:
    return CheckResult(
        PLATEAU_BUDGET,
        free_fraction < budget,
        f"free fraction {free_fraction:.6g} vs budget {budget}",
    )


# ---------------------------------------------------------------------------
# lemma checks

# The cap tolerance; it must stay above 2^-54, where 1 + gamma(n - k)
# rounds to 1.0 off the active coordinates.
CAP_TOL = 1e-12


def check_profile_cap(
    img: FactorImage | SparsePhi,
    ctx: FactorContext,
    sparams: SignalParams,
) -> CheckResult:
    """phi never exceeds 1 + gamma(n-k), with equality exactly R/3-deep.

    The equality dichotomy is only decidable where the analytic gap
    (1 - alpha) * gamma exceeds the tolerance; far from the owning label the
    weight underflows and both branches agree to machine precision.  Only
    the coordinates where phi or the cap can differ from 1.0 are read.
    """
    _same_params(ctx, sparams)
    ks, phi, dist, gam = _cap_terms(ctx, img)
    over = 1.0 + gam  # phi - cap, built in place
    np.subtract(phi, over, out=over)
    if np.any(over > CAP_TOL):
        i = int(np.argmax(over))
        return CheckResult(
            PROFILE_CAP,
            False,
            f"phi exceeds cap by {float(over[i]):.3g} at k={int(ks[i])}",
            witness=int(ks[i]),
        )
    deep = dist >= sparams.R / 3.0
    eq = np.abs(over, out=over) <= CAP_TOL
    bad_deep = deep & ~eq
    truegap = alpha_deep(dist, sparams.R)  # (1 - alpha) * gamma, in place
    np.multiply(np.subtract(1.0, truegap, out=truegap), gam, out=truegap)
    bad_shallow = ~deep & eq & (truegap > 2 * CAP_TOL)
    for bad, what in ((bad_deep, "deep point off the cap"), (bad_shallow, "shallow point on the cap")):
        if np.any(bad):
            k = int(ks[int(np.argmax(bad))])
            return CheckResult(PROFILE_CAP, False, f"{what} at k={k}", witness=k)
    rigid = ctx.rigid
    return CheckResult(
        PROFILE_CAP,
        True,
        f"cap respected on {ctx.window[1] - ctx.window[0] + 1} coordinates, "
        f"{int(np.sum(rigid[:, 1] - rigid[:, 0] + 1))} at equality",
    )


def separation_report(
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
) -> tuple[dict, CheckResult]:
    """The designated pair stays apart in the 0th phi coordinate."""
    z, zp = pick_z_zprime(mspec)
    phi_z0 = phi_map(z, mspec, tparams, sparams, (0, 0)).phi_at(0)
    phi_zp0 = phi_map(zp, mspec, tparams, sparams, (0, 0)).phi_at(0)
    gap_floor = 1.0 + gamma(1, sparams.gamma_variant)
    separated = phi_z0 == 2.0 and phi_zp0 <= gap_floor + 1e-12
    report = {
        "phi_z0": phi_z0,
        "phi_zprime0": phi_zp0,
        "separated": bool(separated),
    }
    res = CheckResult(
        SEPARATION,
        separated,
        f"phi(z)_0 = {phi_z0}, phi(z')_0 = {phi_zp0:.6g} "
        f"(must be 2 vs <= {gap_floor:.6g})",
    )
    return report, res


def check_band_support(ctx: FactorContext, fimg: FactorImage, sparams: SignalParams) -> CheckResult:
    """Nonzero g only within the open 3m-collar of the tiling boundary."""
    if fimg.g_seq is None:
        raise ConfigurationError("image carries no g window")
    if fimg.window != ctx.window:
        raise ConfigurationError("g window differs from the context window")
    ks = np.flatnonzero(fimg.g_seq) + ctx.window[0]
    if len(ks) == 0:
        return CheckResult(BAND_SUPPORT, True, "g vanishes on the window")
    d = _boundary_dist(ctx.edges, ks)
    inside = (d > 0.0) & (d < 3.0 * sparams.m)
    if np.all(inside):
        return CheckResult(
            BAND_SUPPORT, True, f"{len(ks)} nonzero entries, all in the collar"
        )
    k = int(ks[int(np.argmin(inside))])
    return CheckResult(BAND_SUPPORT, False, f"nonzero g outside the collar at k={k}", k)


def check_band_sparsity(fimg: FactorImage, budget: float, N: int | None = None) -> CheckResult:
    """Nonzero g entries over [0, N) stay within budget*N + 1."""
    if fimg.g_seq is None:
        raise ConfigurationError("image carries no g window")
    lo, hi = fimg.window
    if N is None:
        N = hi - lo + 1
        sl = slice(None)
    else:
        if lo > 0 or hi < N - 1:
            raise ConfigurationError("g window does not cover [0, N)")
        sl = slice(fimg.index(0), fimg.index(N - 1) + 1)
    count = int(np.count_nonzero(fimg.g_seq[sl]))
    allowed = budget * N + 1
    return CheckResult(
        BAND_SPARSITY,
        count <= allowed,
        f"{count} nonzero of {N} vs budget {allowed:.6g}",
    )


def admissible_recovery_starts(ctx: FactorContext, sparams: SignalParams) -> np.ndarray:
    """Window starts a where the whole block [a, a+m-2] reads the oracle raw.

    Conditions: one owner across the block, start congruent to the owner
    modulo m-1, and every block time between 1 and 2m from the boundary
    (where the collar gate is identically 1).  Such times lie within 2m of
    the floor of an endpoint, so only that collar is read; a block is m-1
    consecutive collar coordinates.
    """
    m = sparams.m
    ks = ctx.near(2 * m)
    n = len(ks)
    if n < m - 1:
        return np.empty(0, dtype=np.int64)
    dist = _boundary_dist(ctx.edges, ks)
    owners = ctx.owners_at(ks)
    ok = (dist >= 1.0) & (dist <= 2.0 * m)
    run = np.concatenate(([0], np.cumsum(ok.astype(np.int64))))
    full = run[m - 1 :] - run[: n - m + 2] == m - 1
    consecutive = ks[m - 2 :] - ks[: n - m + 2] == m - 2
    same_owner = owners[m - 2 :] == owners[: n - m + 2]
    residue = (ks[: n - m + 2] - owners[: n - m + 2]) % (m - 1) == 0
    return ks[: n - m + 2][full & consecutive & same_owner & residue]


def check_band_recovery(
    ctx: FactorContext,
    fimg: FactorImage,
    F_oracle,
    sparams: SignalParams,
) -> CheckResult:
    """On admissible blocks the g window reproduces the oracle verbatim."""
    if fimg.g_seq is None:
        raise ConfigurationError("image carries no g window")
    m = sparams.m
    starts = admissible_recovery_starts(ctx, sparams)
    blocks = oracle_blocks(F_oracle, ctx.x, starts, m)
    got = fimg.g_seq[(starts - fimg.window[0])[:, None] + np.arange(m - 1)]
    bad = np.flatnonzero(~(got == blocks).all(axis=1))
    if len(bad):
        a = int(starts[bad[0]])
        return CheckResult(
            BAND_RECOVERY,
            False,
            f"block at a={a} disagrees with the oracle",
            witness=a,
        )
    return CheckResult(
        BAND_RECOVERY, True, f"{len(starts)} admissible blocks recovered exactly"
    )
