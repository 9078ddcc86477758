"""Shift-times-rotation test system with exact circle arithmetic.

The phase space is X = ([0,1]^D)^Z x S^1 with the left shift on the first
factor and a rotation by an irrational angle theta on the second.  The angle
is stored as an exact rational p/q (q >= 10^6), so every rotation step is
integer arithmetic mod q and never accumulates rounding error.  Points are
represented by a finite coordinate window plus a constant-zero extension,
which makes all windowed evaluations exact rather than truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

# Golden-mean rotation angle truncated to 12 decimal digits: best-known
# worst-case return-time behaviour among quadratic irrationals.
GOLDEN_THETA = Fraction(618033988749, 10**12)

_INT64_MAX = 2**63 - 1


class ConfigurationError(ValueError):
    """Raised when a spec or parameter set violates its constraints."""


class WindowExhaustionError(RuntimeError):
    """A query needed coordinates outside the represented window."""


@dataclass(frozen=True)
class SystemSpec:
    """Parameters of the product system.

    D may be zero (pure rotation, zero-dimensional cube factor); that
    degenerate case is used by the trivial branch of the comparison report.
    """

    D: int = 1
    theta: Fraction = GOLDEN_THETA
    window_radius: int = 64
    decay: float = 0.5

    def __post_init__(self):
        if self.D < 0:
            raise ConfigurationError("cube dimension D must be >= 0")
        if not isinstance(self.theta, Fraction):
            raise ConfigurationError("theta must be a Fraction (exact rational)")
        if not (0 < self.theta < 1):
            raise ConfigurationError("theta must lie in (0,1)")
        if self.theta.denominator < 10**6:
            raise ConfigurationError(
                "theta denominator must be >= 10^6 (high-precision rational)"
            )
        if self.window_radius < 1:
            raise ConfigurationError("window_radius must be positive")
        if not (0.0 < self.decay < 1.0):
            raise ConfigurationError("decay must lie in (0,1)")

    @property
    def p(self) -> int:
        return self.theta.numerator

    @property
    def q(self) -> int:
        return self.theta.denominator

    def truncation_radius(self, tol: float = 1e-9) -> int:
        """Smallest t with decay^t <= tol: coordinates further out than t
        from the evaluation window cannot move a metric value by more than
        tol (all coordinates live in [0,1])."""
        return max(1, math.ceil(math.log(tol) / math.log(self.decay)))


def circle_block(spec: SystemSpec, base_num: int, k0: int, count: int) -> np.ndarray:
    """Numerators of base + k*theta for k = k0..k0+count-1, exact mod q.

    Uses int64 vector arithmetic in chunks anchored by exact Python-int
    re-basing, so arbitrarily large shifts never overflow.
    """
    q, p = spec.q, spec.p
    chunk = max(1, _INT64_MAX // (2 * p))
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        n = min(chunk, count - done)
        anchor = (base_num + (k0 + done) * p) % q  # exact Python int
        seg = out[done : done + n]  # (anchor + k*p) % q, built in place
        seg[:] = np.arange(n, dtype=np.int64)
        np.remainder(np.add(np.multiply(seg, p, out=seg), anchor, out=seg), q, out=seg)
        done += n
    return out


@dataclass(frozen=True)
class OrbitWindow:
    """A point of X given by a (2*radius+1)-wide cube-coordinate window,
    an exact circle numerator, and a lazy shift offset.

    ``cube[i]`` is the coordinate at symbol index ``i - radius`` of the
    *unshifted* point; the current point's symbol k lives at stored index
    ``k + offset``.  Outside the stored window the constant-zero extension
    applies, so the point is a genuine, fully defined element of X.
    """

    spec: SystemSpec
    cube: np.ndarray  # (2*radius+1, D) float64 in [0,1]
    circle_num: int  # numerator in [0, q) at offset 0
    offset: int = 0

    def __post_init__(self):
        if self.cube.ndim != 2 or self.cube.shape[1] != self.spec.D:
            raise ConfigurationError("cube array must have shape (2*radius+1, D)")
        if self.cube.shape[0] % 2 != 1:
            raise ConfigurationError("cube window length must be odd")
        if not (0 <= self.circle_num < self.spec.q):
            raise ConfigurationError("circle numerator out of range")

    @property
    def radius(self) -> int:
        return (self.cube.shape[0] - 1) // 2

    def stored_span(self) -> tuple[int, int]:
        """Symbol range of the current point backed by stored data."""
        return (-self.radius - self.offset, self.radius - self.offset)

    def shifted(self, k: int) -> "OrbitWindow":
        """T^k of this point.  Exact and total: shifting only moves the
        offset, composition is integer addition."""
        return replace(self, offset=self.offset + k)

    def circle_numerator(self, k: int = 0) -> int:
        """Exact numerator of the circle coordinate of T^k (current point)."""
        return (self.circle_num + (self.offset + k) * self.spec.p) % self.spec.q

    def circle_point(self, k: int = 0) -> float:
        return self.circle_numerator(k) / self.spec.q

    def circle_nums(self, lo: int, hi: int) -> np.ndarray:
        """Vector of circle numerators of T^k for k = lo..hi inclusive."""
        return circle_block(
            self.spec, self.circle_num, self.offset + lo, hi - lo + 1
        )

    def cube_at(self, k: int) -> np.ndarray:
        idx = k + self.offset
        if -self.radius <= idx <= self.radius:
            return self.cube[idx + self.radius]
        return np.zeros(self.spec.D)

    def cube_block(self, lo: int, hi: int) -> np.ndarray:
        """Cube coordinates of the current point at symbols lo..hi inclusive,
        zero-filled outside the stored window."""
        n = hi - lo + 1
        out = np.zeros((n, self.spec.D))
        a = max(lo + self.offset, -self.radius)
        b = min(hi + self.offset, self.radius)
        if a <= b:
            out[a - self.offset - lo : b - self.offset - lo + 1] = self.cube[
                a + self.radius : b + self.radius + 1
            ]
        return out


def make_point(
    spec: SystemSpec,
    cube: np.ndarray | float = 0.0,
    circle: Fraction | float = 0,
    radius: int | None = None,
) -> OrbitWindow:
    """Convenience constructor.  ``cube`` may be a constant fill value or a
    full (2*radius+1, D) array; ``circle`` a Fraction (exact, denominator
    dividing q) or a float (rounded to the q-grid)."""
    r = spec.window_radius if radius is None else radius
    if np.isscalar(cube):
        arr = np.full((2 * r + 1, spec.D), float(cube))
    else:
        arr = np.asarray(cube, dtype=float)
    if isinstance(circle, Fraction):
        num_times_q = circle * spec.q
        if num_times_q.denominator != 1:
            raise ConfigurationError("circle fraction must have denominator dividing q")
        num = int(num_times_q) % spec.q
    else:
        num = int(round(float(circle) * spec.q)) % spec.q
    return OrbitWindow(spec=spec, cube=arr, circle_num=num)


def arcdist_num(spec: SystemSpec, a: int, b: int = 0) -> int:
    """Exact circle distance between numerators, in units of 1/q."""
    d = (a - b) % spec.q
    return min(d, spec.q - d)


def arcdist(spec: SystemSpec, a: int, b: int = 0) -> float:
    return arcdist_num(spec, a, b) / spec.q


def dist(x: OrbitWindow, y: OrbitWindow) -> float:
    """Compatible product metric: max of the decay-weighted sup metric on the
    cube coordinates and the arc distance on the circle."""
    return bowen_dist(x, y, 1)


# Stored data must reach this far beyond the Bowen window before the
# constant-zero extension's influence drops below 1e-9.
def _margin(spec: SystemSpec) -> int:
    return spec.truncation_radius(1e-9)


def _checked_spec(points, n: int, check_margin: bool) -> SystemSpec:
    """Common spec of the points after the checks of ``bowen_dist``: one
    spec, n >= 1 and, with ``check_margin``, every window covering the
    1e-9 truncation margin around [0, n-1]."""
    spec = points[0].spec
    if any(w.spec != spec for w in points):
        raise ConfigurationError("points come from different system specs")
    if n < 1:
        raise ConfigurationError("Bowen horizon must be >= 1")
    if check_margin:
        t = _margin(spec)
        for w in points:
            lo, hi = w.stored_span()
            if lo > -t or hi < n - 1 + t:
                raise WindowExhaustionError(
                    f"stored window {w.stored_span()} does not cover "
                    f"[{-t}, {n - 1 + t}] needed for d_{n} at 1e-9 accuracy"
                )
    return spec


def bowen_dist(x: OrbitWindow, y: OrbitWindow, n: int, check_margin: bool = True) -> float:
    """d_n(x,y) = max over i in [0,n) of d(T^i x, T^i y).

    Closed form: the circle term is rotation invariant, and the cube term is
    max_k decay^{dist(k,[0,n-1])} * |x_k - y_k|_inf.  Coordinates beyond the
    float64 truncation radius cannot affect the result by more than 2^-60.

    With ``check_margin`` (default) both windows must have stored data
    covering [-t, n-1+t] for the 1e-9 truncation radius t, so the value does
    not silently lean on the zero extension; pass False to evaluate points
    whose extension is intentionally part of their definition.  This is the
    pair-at-a-time reference for ``bowen_dmat``.
    """
    spec = _checked_spec((x, y), n, check_margin)
    circ = arcdist_num(spec, x.circle_numerator() - y.circle_numerator()) / spec.q
    if spec.D == 0:
        return circ
    # exact-to-float64 truncation
    t_cut = spec.truncation_radius(2.0**-60)
    lo, hi = -t_cut, n - 1 + t_cut
    dx = x.cube_block(lo, hi) - y.cube_block(lo, hi)
    coord = np.abs(dx).max(axis=1)
    ks = np.arange(lo, hi + 1)
    d_out = np.maximum(np.maximum(-ks, ks - (n - 1)), 0)
    cube = float(np.max(coord * spec.decay**d_out)) if len(ks) else 0.0
    return max(circ, cube)


def sup_dmat(rows, w=None) -> np.ndarray:
    """Pairwise weighted sup distances max_j w[j] * |rows[a,j] - rows[b,j]|.

    ``w`` defaults to unit weights; zero-length rows are at distance 0.
    The result is symmetric with a zero diagonal.  One vector pass per row
    needs one temporary of at most rows.size, not S * rows.size.
    """
    rows = np.asarray(rows, dtype=np.float64)
    S = rows.shape[0]
    out = np.zeros((S, S))
    for i in range(S - 1):
        d = rows[i + 1 :] - rows[i]
        np.abs(d, out=d)
        if w is not None:
            d *= w
        out[i, i + 1 :] = out[i + 1 :, i] = d.max(axis=1, initial=0.0)
    return out


def bowen_dmat(points, n: int) -> np.ndarray:
    """All pairwise d_n distances; entry (a, b) equals
    ``bowen_dist(points[a], points[b], n)`` exactly, with the same checks.

    The circle term is the exact arc between integer numerators; the cube
    term is the weighted sup over each point's flattened cube block, which
    matches bowen_dist's per-symbol sup because scaling by a nonnegative
    weight is monotone in floating point.
    """
    if len(points) == 0:
        raise ConfigurationError("need at least one point")
    spec = _checked_spec(points, n, True)
    q = spec.q
    # Python ints stay exact for any q, and int / int rounds as in bowen_dist
    nums = np.array([p.circle_numerator() for p in points], dtype=object)
    d = (nums[:, None] - nums[None, :]) % q
    circ = (np.minimum(d, q - d) / q).astype(np.float64)
    t_cut = spec.truncation_radius(2.0**-60)
    lo, hi = -t_cut, n - 1 + t_cut
    ks = np.arange(lo, hi + 1)
    w = spec.decay ** np.maximum(np.maximum(-ks, ks - (n - 1)), 0)
    rows = np.stack([p.cube_block(lo, hi).ravel() for p in points])
    return np.maximum(circ, sup_dmat(rows, np.repeat(w, spec.D)))


def sample_points(
    spec: SystemSpec, count: int, seed: int, radius: int | None = None
) -> list[OrbitWindow]:
    """Deterministic uniform samples: cube entries uniform on [0,1], circle
    numerators uniform on the q-grid."""
    if count < 1:
        raise ConfigurationError("sample count must be >= 1")
    r = spec.window_radius if radius is None else radius
    rng = np.random.default_rng(seed)
    cubes = rng.random((count, 2 * r + 1, spec.D))
    nums = rng.integers(0, spec.q, size=count)
    return [
        OrbitWindow(spec=spec, cube=cubes[i], circle_num=int(nums[i]))
        for i in range(count)
    ]
