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
sequence, its depth-H tiling and, per coordinate k, the owning label n,
the boundary distance and gamma(n - k).  ``factor_image`` turns it into
the phi and g windows; plateau report, checks and fibre lookback read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
class FactorContext:
    """One window's tiling and every per-coordinate quantity read off it;
    images, checks and the fibre lookback read these, never re-derive them."""

    x: OrbitWindow
    seq: MarkerSequence  # marker data under the padded tiling window
    tiling: IntervalTiling  # depth-H slice over the padded window
    ks: np.ndarray  # int64 coordinates of the requested window
    owners: np.ndarray  # int64 tile label owning each coordinate
    dist: np.ndarray  # float64 distance to the tiling boundary
    gam: np.ndarray  # float64 label weight gamma(owner - k)

    @property
    def window(self) -> tuple[int, int]:
        return int(self.ks[0]), int(self.ks[-1])

    @classmethod
    def over(cls, x, seq, tiling, window, sparams: SignalParams) -> "FactorContext":
        """Owners, boundary distances and label weights of window's coordinates."""
        ks = np.arange(window[0], window[1] + 1, dtype=np.int64)
        owners, dist = _owner_dist_sweep(tiling, ks)
        gam = gamma(owners - ks, sparams.gamma_variant)
        return cls(x, seq, tiling, ks, owners, dist, gam)


def _owner_dist_sweep(tiling: IntervalTiling, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owning label and boundary distance of each of the consecutive
    integers ks, in one O(len(ks) + tiles) sweep.

    Integer k belongs to the last tile with lo <= k, i.e. ceil(lo) <= k, so
    each tile owns a run of ceil(lo[i]) <= k < ceil(lo[i+1]); k lies between
    the sorted endpoints e[j-1] < k <= e[j] exactly when floor(e[j-1]) < k
    <= floor(e[j]).  np.repeat lays both runs over the window.
    """
    k_lo, n = int(ks[0]), len(ks)
    starts = np.clip(np.ceil(tiling.lo), k_lo, k_lo + n).astype(np.int64) - k_lo
    counts = np.diff(np.append(starts, n))
    owned = np.nonzero(counts)[0]
    last = (starts[owned] + counts[owned] - 1 + k_lo).astype(np.float64)
    if len(starts) == 0 or starts[0] > 0 or np.any(last > tiling.hi[owned] + COVER_TOL):
        raise SignalError("coordinate fell in an uncovered gap of the tiling")
    owners = np.repeat(tiling.labels, counts)
    e = tiling.endpoints()
    seg = np.clip(np.floor(e) + 1, k_lo, k_lo + n).astype(np.int64) - k_lo
    seg_counts = np.diff(np.concatenate(([0], seg, [n])))
    j = np.arange(len(e) + 1)
    # in place: every window-sized temporary costs a round of page faults
    dist = np.repeat(e[np.maximum(j - 1, 0)], seg_counts)
    np.abs(np.subtract(ks, dist, out=dist), out=dist)
    right = np.repeat(e[np.minimum(j, len(e) - 1)], seg_counts)
    np.abs(np.subtract(right, ks, out=right), out=right)
    return owners, np.minimum(dist, right, out=dist)


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


def factor_image(ctx: FactorContext, sparams: SignalParams, F_oracle=None) -> FactorImage:
    """The phi window of a context, plus its g window when given an oracle.

    phi = min{dist, 1} + alpha_deep(dist) * gamma(n - k).  g reads the
    oracle block of each collar time: inside a tile, times fall into
    residue blocks of length m-1 and share one evaluation F(T^s x).
    """
    phi = np.minimum(ctx.dist, 1.0) + alpha_deep(ctx.dist, sparams.R) * ctx.gam
    if F_oracle is None:
        return FactorImage(window=ctx.window, phi_seq=phi)
    m = sparams.m
    band = alpha_band(ctx.dist, m)
    g = np.zeros(len(ctx.ks))
    cache: dict[int, np.ndarray] = {}
    for i in np.nonzero(band > 0.0)[0]:
        t = int(ctx.ks[i])
        s = t - ((t - int(ctx.owners[i])) % (m - 1))  # block start of t
        F = cache.get(s)
        if F is None:
            F = np.asarray(F_oracle(ctx.x.shifted(s)), dtype=np.float64)
            if F.shape != (m - 1,):
                raise ConfigurationError(f"F oracle must produce {m - 1} coordinates")
            cache[s] = F
        g[i] = band[i] * F[t - s]
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


def plateau_report(
    ctx: FactorContext,
    fimg: FactorImage,
    sparams: SignalParams,
) -> tuple[float, list[tuple[int, int, int]]]:
    """Rigid blocks of the phi image of a context.

    A coordinate is rigid when it sits R/3-deep in its tile, where phi
    equals 1 + gamma(n - k) exactly.  Returns the fraction of free (non-
    rigid) coordinates and the maximal rigid blocks as (start, stop, label)
    with inclusive ends.
    """
    if fimg.window != ctx.window:
        raise ConfigurationError("phi window differs from the context window")
    deep = ctx.dist >= sparams.R / 3.0
    off = 1.0 + ctx.gam  # |phi - cap|, built in place
    np.abs(np.subtract(fimg.phi_seq, off, out=off), out=off)
    if np.any(off[deep] > 1e-12):
        raise SignalError("rigid coordinates disagree with the label profile")
    edges = np.diff(np.concatenate(([False], deep, [False])).astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    stops = np.nonzero(edges == -1)[0] - 1
    ks, owners = ctx.ks, ctx.owners
    blocks = list(zip(ks[starts].tolist(), ks[stops].tolist(), owners[starts].tolist()))
    rigid_total = int(np.count_nonzero(deep))
    return 1.0 - rigid_total / len(ks), blocks


def check_plateau_budget(free_fraction: float, budget: float) -> CheckResult:
    return CheckResult(
        PLATEAU_BUDGET,
        free_fraction < budget,
        f"free fraction {free_fraction:.6g} vs budget {budget}",
    )


# ---------------------------------------------------------------------------
# lemma checks


def check_profile_cap(
    fimg: FactorImage,
    ctx: FactorContext,
    sparams: SignalParams,
    tol: float = 1e-12,
) -> CheckResult:
    """phi never exceeds 1 + gamma(n-k), with equality exactly R/3-deep.

    The equality dichotomy is only decidable where the analytic gap
    (1 - alpha) * gamma exceeds the tolerance; far from the owning label the
    weight underflows and both branches agree to machine precision.
    """
    phi = fimg.phi_seq
    over = 1.0 + ctx.gam  # phi - cap, built in place
    np.subtract(phi, over, out=over)
    i = int(np.argmax(over))
    if over[i] > tol:
        return CheckResult(
            PROFILE_CAP,
            False,
            f"phi exceeds cap by {float(over[i]):.3g} at k={int(ctx.ks[i])}",
            witness=int(ctx.ks[i]),
        )
    deep = ctx.dist >= sparams.R / 3.0
    eq = np.abs(over, out=over) <= tol
    bad_deep = deep & ~eq
    truegap = alpha_deep(ctx.dist, sparams.R)  # (1 - alpha) * gamma, in place
    np.multiply(np.subtract(1.0, truegap, out=truegap), ctx.gam, out=truegap)
    bad_shallow = ~deep & eq & (truegap > 2 * tol)
    for bad, what in ((bad_deep, "deep point off the cap"), (bad_shallow, "shallow point on the cap")):
        if np.any(bad):
            k = int(ctx.ks[int(np.argmax(bad))])
            return CheckResult(PROFILE_CAP, False, f"{what} at k={k}", witness=k)
    return CheckResult(
        PROFILE_CAP,
        True,
        f"cap respected on {len(phi)} coordinates, "
        f"{int(np.count_nonzero(deep))} at equality",
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
    nz = fimg.g_seq != 0.0
    count = int(np.count_nonzero(nz))
    if count == 0:
        return CheckResult(BAND_SUPPORT, True, "g vanishes on the window")
    d = ctx.dist[nz]
    inside = (d > 0.0) & (d < 3.0 * sparams.m)
    if np.all(inside):
        return CheckResult(
            BAND_SUPPORT, True, f"{count} nonzero entries, all in the collar"
        )
    k = int(ctx.ks[nz][int(np.argmin(inside))])
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
    (where the collar gate is identically 1).
    """
    m = sparams.m
    n = len(ctx.ks)
    if n < m - 1:
        return np.empty(0, dtype=np.int64)
    ok = (ctx.dist >= 1.0) & (ctx.dist <= 2.0 * m)
    run = np.concatenate(([0], np.cumsum(ok.astype(np.int64))))
    full = run[m - 1 :] - run[: n - m + 2] == m - 1
    same_owner = ctx.owners[m - 2 :] == ctx.owners[: n - m + 2]
    residue = (ctx.ks[: n - m + 2] - ctx.owners[: n - m + 2]) % (m - 1) == 0
    return ctx.ks[: n - m + 2][full & same_owner & residue]


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
    lo = fimg.window[0]
    for a in starts:
        F = np.asarray(F_oracle(ctx.x.shifted(int(a))), dtype=np.float64)
        got = fimg.g_seq[a - lo : a - lo + m - 1]
        if not np.array_equal(got, F):
            return CheckResult(
                BAND_RECOVERY,
                False,
                f"block at a={int(a)} disagrees with the oracle",
                witness=int(a),
            )
    return CheckResult(
        BAND_RECOVERY, True, f"{len(starts)} admissible blocks recovered exactly"
    )
