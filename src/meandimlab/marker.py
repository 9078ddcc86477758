"""Marker data on the rotation factor: the arc pair, the ramp function phi,
and the return/coverage constants M and M1.

phi depends only on the circle coordinate: it equals 1 on the closed inner
arc, 0 outside the open outer arc, with a linear ramp between.  M is the
first return time of the outer arc to itself; M1-1 is the first window
half-length whose rotation orbit is dense enough that every circle point
visits the inner arc.  Both are computed by exact integer arithmetic on the
q-grid, so the reported constants are not estimates.

The three-distance theorem (Slater 1950, Sos 1958) does the heavy lifting:
the gaps of n consecutive orbit points and the return times of the rotation
to an arc each take at most three values, read off the continued fraction
of theta = p/q in O(log q) integer steps.  So the coverage test behind M1
costs O(log q) per horizon, and ``marker_sequence`` walks from visit to
visit in O(visits) instead of evaluating phi on every time of its window,
and M, the first two-sided return to the arc, is one such walk too.
``phi_profile`` keeps the O(window) evaluation as the reference, streamed
in fixed-size chunks, and ``phi_eval`` is its scalar oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynsys import (
    ConfigurationError,
    OrbitWindow,
    SystemSpec,
    WindowExhaustionError,
    circle_block,
    make_point,
)

_M_SEARCH_CAP = 10**8
_M1_SEARCH_CAP = 10**8
_SCAN_BLOCK = 1 << 16
_PROFILE_CHUNK = 1 << 15


class MarkerConstructionError(RuntimeError):
    """A marker invariant failed; carries the offending witness."""


def _frac_num2(spec: SystemSpec, value: Fraction) -> int:
    """value as an exact numerator over 2q (half-grid units)."""
    scaled = value * (2 * spec.q)
    if scaled.denominator != 1:
        raise ConfigurationError(
            "arc radii must be exact multiples of 1/(2q) for exact comparison"
        )
    return int(scaled)


@dataclass(frozen=True)
class MarkerSpec:
    system: SystemSpec
    arc_center: Fraction
    arc_radius: Fraction
    inner_radius: Fraction
    M: int
    M1: int

    def __post_init__(self):
        if not (0 < self.inner_radius < self.arc_radius < Fraction(1, 4)):
            raise ConfigurationError("need 0 < inner_radius < arc_radius < 1/4")
        if self.M < 2:
            raise ConfigurationError("arc returns to itself in one step (M < 2)")
        if self.M1 <= self.M:
            raise ConfigurationError("coverage constant M1 must exceed M")

    @property
    def center_num(self) -> int:
        c = (self.arc_center % 1) * self.system.q
        if c.denominator != 1:
            raise ConfigurationError("arc_center must have denominator dividing q")
        return int(c)

    # radii in half-grid units (numerator over 2q), exact
    @property
    def outer_num2(self) -> int:
        return _frac_num2(self.system, self.arc_radius)

    @property
    def inner_num2(self) -> int:
        return _frac_num2(self.system, self.inner_radius)


def _phi_of_t2(spec: MarkerSpec, t2: np.ndarray) -> np.ndarray:
    """phi from arc distances in half-grid units: exactly 1.0 on the inner
    arc, exactly 0.0 outside the open outer arc, a float ramp between."""
    inner2, outer2 = spec.inner_num2, spec.outer_num2
    out = np.zeros(len(t2))
    out[t2 <= inner2] = 1.0
    ramp = (t2 > inner2) & (t2 < outer2)
    if ramp.any():
        out[ramp] = (outer2 - t2[ramp]) / float(outer2 - inner2)
    return out


def phi_profile(spec: MarkerSpec, x: OrbitWindow, lo: int, hi: int) -> np.ndarray:
    """phi(T^k x) for k = lo..hi, evaluated at every time of the window.

    The O(window) reference for ``marker_sequence``'s visit walk; it reads
    nothing of the walk.  One residue table r_k = k*p mod q serves every
    _PROFILE_CHUNK-wide chunk: anchor + r_k - q, folded back into [0, q)
    by a sign-mask add, is the exact offset from the arc center, and phi is
    evaluated only where the arc distance lands inside the outer arc.
    """
    sys_ = spec.system
    q, outer2 = sys_.q, spec.outer_num2
    n = hi - lo + 1
    if n < 1:
        raise ConfigurationError("empty phi window")
    step = min(_PROFILE_CHUNK, n)
    r = circle_block(sys_, 0, 0, step)
    d = np.empty(step, dtype=np.int64)
    tmp = np.empty(step, dtype=np.int64)
    out = np.zeros(n)
    for c0 in range(0, n, step):
        m = min(step, n - c0)
        dc, tc = d[:m], tmp[:m]
        anchor = (x.circle_numerator(lo + c0) - spec.center_num) % q  # exact Python int
        np.add(r[:m], anchor - q, out=dc)  # in [-q, q)
        dc += np.bitwise_and(np.right_shift(dc, 63, out=tc), q, out=tc)
        np.minimum(dc, np.subtract(q, dc, out=tc), out=dc)
        dc *= 2  # arc distance in half-grid units
        hit = np.flatnonzero(dc < outer2)
        if len(hit):
            out[c0 + hit] = _phi_of_t2(spec, dc[hit])
    return out


def phi_eval(spec: MarkerSpec, x: OrbitWindow) -> float:
    """phi at time 0, on Python ints: the pointwise oracle of phi_profile."""
    q = spec.system.q
    d = (x.circle_numerator(0) - spec.center_num) % q
    t2 = 2 * min(d, q - d)
    inner2, outer2 = spec.inner_num2, spec.outer_num2
    if t2 <= inner2:
        return 1.0
    if t2 >= outer2:
        return 0.0
    return (outer2 - t2) / float(outer2 - inner2)


def compute_M(system: SystemSpec, arc_radius: Fraction) -> int:
    """Smallest k >= 1 with arcdist(k*theta, 0) <= 2*arc_radius, in
    O(log q).  The arc returns to itself exactly at such k.

    With T = arc_radius in half-grid units, arcdist(k*theta, 0) <=
    2*arc_radius reads min(k*p mod q, -k*p mod q) <= T, so M is the first
    k of either side, each one ``_first_below`` walk.
    """
    p, q = system.p, system.q
    w = _frac_num2(system, arc_radius) + 1
    M = min(_first_below(p, q, w), _first_below(q - p, q, w))
    if M > _M_SEARCH_CAP:
        raise MarkerConstructionError(
            "no arc return within the search horizon; adjust arc_radius"
        )
    return M


def max_orbit_gap(system: SystemSpec, n: int) -> int:
    """Largest circular gap, in 1/q units, of the n >= 1 orbit points
    {k*theta : 0 <= k < n}, in O(log q) integer steps.

    Three-distance theorem: with eta_{-1} = q, eta_0 = p, q_{-1} = 0,
    q_0 = 1 and the continued-fraction recursions eta_{k+1} = eta_{k-1} -
    a_{k+1} eta_k, q_{k+1} = a_{k+1} q_k + q_{k-1}, take the k with
    q_k + q_{k-1} <= n < q_{k+1} + q_k and r = (n - q_{k-1}) // q_k; the
    largest gap is eta_{k-1} - (r-1) eta_k.  Once eta_k = 0 the orbit has
    closed up and every gap is one grid step.
    """
    if n < 1:
        raise ConfigurationError("need at least one orbit point")
    eta_prev, eta = system.q, system.p
    q_prev, q_k = 0, 1
    while eta > 0:
        a = eta_prev // eta
        q_next = a * q_k + q_prev
        if n < q_next + q_k:
            break
        eta_prev, eta = eta, eta_prev - a * eta
        q_prev, q_k = q_k, q_next
    r = (n - q_prev) // q_k
    return eta_prev - (r - 1) * eta


def _max_gap_ok(system: SystemSpec, N: int, inner2: int) -> bool:
    """True iff the points {k*theta mod 1 : |k| <= N} have every circular
    gap < 2*inner_radius (exact integer comparison)."""
    worst = max_orbit_gap(system, 2 * N + 1)
    return 2 * worst < 2 * inner2  # worst in 1/q units vs inner in 1/(2q)


def compute_M1(system: SystemSpec, inner_radius: Fraction, M: int) -> int:
    """Smallest M1 with: every circle point enters the closed inner arc
    within M1-1 rotation steps in one of the two directions.

    Equivalent exact criterion: the circular gaps of {k*theta : |k| <= M1-1}
    are all < 2*inner_radius (then any point is within inner_radius of some
    orbit point).  Found by doubling plus bisection, each probe an
    O(log q) three-distance evaluation of the largest gap.
    """
    inner2 = _frac_num2(system, inner_radius)
    if inner2 <= 0:
        raise ConfigurationError("inner radius too small to represent")
    N = max(2 * M, 64)
    while not _max_gap_ok(system, N, inner2):
        N *= 2
        if N > _M1_SEARCH_CAP:
            raise MarkerConstructionError(
                "coverage horizon exceeded; adjust inner_radius"
            )
    lo, hi = N // 2, N  # ok(hi) holds; ok(lo) may hold if N was the seed
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _max_gap_ok(system, mid, inner2):
            hi = mid
        else:
            lo = mid
    if _max_gap_ok(system, lo, inner2):
        hi = lo
    return hi + 1


def compute_M_M1(
    system: SystemSpec, arc_radius: Fraction, inner_radius: Fraction
) -> tuple[int, int]:
    M = compute_M(system, arc_radius)
    if M < 2:
        raise MarkerConstructionError(
            "arc overlaps its first image (M = 1); shrink arc_radius"
        )
    M1 = compute_M1(system, inner_radius, M)
    if M1 <= M:
        raise MarkerConstructionError(f"M1={M1} <= M={M}; inconsistent arcs")
    return M, M1


def make_marker_spec(
    system: SystemSpec,
    arc_center: Fraction = Fraction(0),
    arc_radius: Fraction = Fraction(1, 400),
    inner_radius: Fraction | None = None,
) -> MarkerSpec:
    if inner_radius is None:
        inner_radius = arc_radius / 2
    M, M1 = compute_M_M1(system, arc_radius, inner_radius)
    return MarkerSpec(
        system=system,
        arc_center=arc_center,
        arc_radius=arc_radius,
        inner_radius=inner_radius,
        M=M,
        M1=M1,
    )


@dataclass(frozen=True)
class MarkerSequence:
    """Support times and values of n -> phi(T^n x) over an integer window."""

    spec: MarkerSpec
    window: tuple[int, int]  # inclusive
    support: np.ndarray  # int64, sorted times with phi > 0
    values: np.ndarray  # float, phi at those times
    support_t2: np.ndarray  # int64, clamped arc distance (half-grid units)

    @property
    def M(self) -> int:
        return self.spec.M

    @property
    def M1(self) -> int:
        return self.spec.M1

    def shifted(self, k: int) -> "MarkerSequence":
        """The sequence of T^k x: support times drop by k."""
        lo, hi = self.window
        return MarkerSequence(
            spec=self.spec,
            window=(lo - k, hi - k),
            support=self.support - k,
            values=self.values,
            support_t2=self.support_t2,
        )


def _first_below(p: int, q: int, w: int) -> int:
    """Smallest k >= 1 with k*p mod q < w, for gcd(p, q) = 1 and w >= 1.

    Walks the one-sided best approximations of p/q: A is the latest k with
    a record small residue k*p = +rA (mod q), B the latest with k*p = -rB.
    Every record on the + side is A + i*B for some step, so the first
    residue below w is found in O(log q) Euclid steps.
    """
    kA, rA, kB, rB = 1, p, 0, q
    while rA >= w:
        if rA > rB:
            t = rA // rB
            if rA - t * rB < w:
                return kA + ((rA - w) // rB + 1) * kB
            kA, rA = kA + t * kB, rA - t * rB
        else:
            t = rB // rA
            kB, rB = kB + t * kA, rB - t * rA
            if rB == 0:  # the orbit closes at k = kB = q
                return kB
    return kA


def _arc_half_width(spec: MarkerSpec) -> int:
    """h with: the open outer arc holds exactly the grid points within h of
    the center (2h < outer2 <= 2h + 2)."""
    return (spec.outer_num2 - 1) // 2


def return_times(spec: MarkerSpec) -> tuple[int, int, int]:
    """The return times (r1, r2, r1 + r2) of the rotation to the open outer
    arc, r1 < r2, in O(log q).

    Slater's theorem: for the arc of w grid points, r1 = min{k : k*p mod q
    < w} and r2 = min{k : -k*p mod q < w} (the first steps that move an arc
    point forward and backward without leaving the arc); every return time
    is one of r1, r2 and r1 + r2.
    """
    p, q = spec.system.p, spec.system.q
    w = 2 * _arc_half_width(spec) + 1
    r1, r2 = sorted((_first_below(p, q, w), _first_below(q - p, q, w)))
    return r1, r2, r1 + r2


def marker_sequence(
    spec: MarkerSpec, x: OrbitWindow, lo: int, hi: int, validate: bool = True
) -> MarkerSequence:
    """Support times of n -> phi(T^n x) on [lo, hi], with values and clamped
    arc distances, in O(visits).

    Times are tracked by their offset u in [0, q) from the arc's first grid
    point, so the open outer arc is u < w.  One scan of at most r1 + r2
    times finds the first visit (every time is within r1 + r2 - 1 of a
    later visit); from there each next visit is the smallest return time
    whose step lands in the arc.  A visit from which no return time lands
    is a MarkerConstructionError with its time as witness.

    support_t2 is the clamped integer distance max(t2, inner2): it fixes phi
    exactly and lets the tiling's height arithmetic avoid cancellation.
    """
    if hi < lo:
        raise ConfigurationError("empty marker window")
    sys_ = spec.system
    q, p = sys_.q, sys_.p
    h = _arc_half_width(spec)
    w = 2 * h + 1
    steps = [(r, r * p % q) for r in return_times(spec)]
    u0 = (x.circle_numerator(lo) - spec.center_num + h) % q
    span = min(steps[-1][0], hi - lo + 1)
    first = None
    for k0 in range(0, span, _SCAN_BLOCK):
        hits = np.flatnonzero(circle_block(sys_, u0, k0, min(_SCAN_BLOCK, span - k0)) < w)
        if len(hits):
            first = k0 + int(hits[0])
            break
    if first is None and span == steps[-1][0]:
        raise MarkerConstructionError(
            f"no arc visit within {span} steps of time {lo}; "
            f"return times {[r for r, _ in steps]}"
        )
    times, offs = [], []
    if first is not None:
        t, u = lo + first, (u0 + first * p) % q
        while t <= hi:
            times.append(t)
            offs.append(u)
            for r, d in steps:
                v = (u + d) % q
                if v < w:
                    break
            else:
                raise MarkerConstructionError(
                    f"no return time in {[r for r, _ in steps]} lands in the arc "
                    f"from the visit at time {t}"
                )
            t, u = t + r, v
    t2 = 2 * np.abs(np.array(offs, dtype=np.int64) - h)
    seq = MarkerSequence(
        spec=spec,
        window=(lo, hi),
        support=np.array(times, dtype=np.int64),
        values=_phi_of_t2(spec, t2),
        support_t2=np.maximum(t2, spec.inner_num2),
    )
    if validate:
        ok, witness = check_separation(seq)
        if not ok:
            raise MarkerConstructionError(
                f"support times {witness} closer than M={spec.M}"
            )
    return seq


def check_separation(seq: MarkerSequence) -> tuple[bool, tuple | None]:
    """Support times must be >= M apart."""
    if len(seq.support) < 2:
        return True, None
    gaps = np.diff(seq.support)
    bad = np.nonzero(gaps < seq.M)[0]
    if len(bad):
        i = int(bad[0])
        return False, (int(seq.support[i]), int(seq.support[i + 1]))
    return True, None


def check_coverage(seq: MarkerSequence) -> tuple[bool, tuple | None]:
    """Every length-2*M1 subwindow of the sequence window must contain a
    time with phi exactly 1 (an inner-arc visit).  Equivalent gap condition
    on the sorted full-value times, including the window edges."""
    lo, hi = seq.window
    if hi - lo + 1 < 2 * seq.M1:
        return True, None
    ones = seq.support[seq.values == 1.0]
    if len(ones) == 0:
        return False, (lo, hi)
    if ones[0] > lo + 2 * seq.M1 - 1:
        return False, (lo, int(ones[0]))
    if ones[-1] < hi - 2 * seq.M1 + 1:
        return False, (int(ones[-1]), hi)
    gaps = np.diff(ones)
    bad = np.nonzero(gaps > 2 * seq.M1)[0]
    if len(bad):
        i = int(bad[0])
        return False, (int(ones[i]), int(ones[i + 1]))
    return True, None


def gap_histogram(seq: MarkerSequence) -> dict[int, int]:
    gaps = np.diff(seq.support)
    vals, counts = np.unique(gaps, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def pick_z_zprime(spec: MarkerSpec, radius: int = 64) -> tuple[OrbitWindow, OrbitWindow]:
    """The designated separated pair: z sits on the arc center (phi = 1),
    z' on the antipode (phi = 0); cube parts a fixed constant."""
    sys_ = spec.system
    z = make_point(sys_, cube=0.5, circle=Fraction(spec.center_num, sys_.q), radius=radius)
    anti = (spec.center_num + sys_.q // 2) % sys_.q
    zp = make_point(sys_, cube=0.5, circle=Fraction(anti, sys_.q), radius=radius)
    if phi_eval(spec, z) != 1.0:
        raise MarkerConstructionError("z must sit on the inner arc")
    if phi_eval(spec, zp) != 0.0:
        raise MarkerConstructionError("z' must sit outside the outer arc")
    return z, zp


def support_window_for(spec: MarkerSpec, needed_lo: int, needed_hi: int) -> tuple[int, int]:
    """Marker window with enough slack for exact tiling on [needed_lo,
    needed_hi]: three coverage radii on each side."""
    pad = 3 * (spec.M1 + 1)
    return needed_lo - pad, needed_hi + pad
