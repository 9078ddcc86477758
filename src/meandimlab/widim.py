"""Minimal-multiplicity covers and width-dimension estimates.

Widim_eps of a space is realized as (minimal multiplicity of a cover at
mesh < eps) - 1, computed over two kinds of finite scaffolds:

* grid spaces: axis-aligned atom grids modelling cubes under weighted sup
  metrics; cover elements are unions of closed atoms and multiplicity is
  counted exactly at grid vertices, where closed-box incidence peaks;
* sample spaces: points bucketed by proximity under a precomputed metric;
  multiplicity is counted conservatively on closed atom neighborhoods.

Upper bounds for the continuum shift system do not come from enumeration:
vertex-star covers of a scaled simplicial grid give order (#active
coordinates + 1) directly (pattern_cover_bound), because the carrier of a
point has at most that many vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynsys import ConfigurationError, SystemSpec, bowen_dmat, sup_dmat


class ResolutionError(RuntimeError):
    """Discretization too coarse for the requested eps."""


class CoverError(RuntimeError):
    """Ill-formed cover: holes, or stats inconsistent with the elements."""


@dataclass(frozen=True)
class Axis:
    """One coordinate of a grid space: `count` atoms of width `width`
    starting at `origin`, entering the sup metric scaled by `weight`."""

    origin: float
    width: float
    count: int
    weight: float = 1.0
    periodic: bool = False

    def __post_init__(self):
        if self.width <= 0 or self.weight <= 0:
            raise ConfigurationError("axis width and weight must be positive")
        if self.count < 1:
            raise ConfigurationError("axis needs at least one atom")

    @property
    def span(self) -> float:
        return self.count * self.width


@dataclass(frozen=True)
class CellSpace:
    """Finite atom scaffold carrying the metric data for covers.

    Exactly one flavor is populated: `axes` (grid) or `dmat`+`buckets`
    (samples).  Atom ids are flat ints; grid ids follow C order over axes.
    """

    axes: tuple[Axis, ...] = ()
    dmat: np.ndarray | None = None
    buckets: tuple[tuple[int, ...], ...] = ()
    adj_tol: float = 0.0

    def __post_init__(self):
        if bool(self.axes) == (self.dmat is not None):
            raise ConfigurationError("specify either grid axes or sample data")
        if self.dmat is not None:
            if not self.buckets:
                raise ConfigurationError("sample space needs buckets")
            d = self.dmat
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise ConfigurationError("distance matrix must be square")
            if np.any(d < 0) or not np.allclose(d, d.T, atol=1e-12):
                raise ConfigurationError("distance matrix must be symmetric nonnegative")
            ids = np.fromiter(itertools.chain.from_iterable(self.buckets), dtype=np.int64)
            if min(map(len, self.buckets)) == 0 or not np.array_equal(
                np.sort(ids), np.arange(d.shape[0])
            ):
                raise ConfigurationError(
                    "buckets must be nonempty, disjoint and cover every sample"
                )

    # -- flavor and shape ---------------------------------------------------

    @property
    def is_grid(self) -> bool:
        return bool(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def n_atoms(self) -> int:
        if self.is_grid:
            return int(np.prod(self.shape))
        return len(self.buckets)

    # -- constructors -------------------------------------------------------

    @classmethod
    def grid(cls, axes) -> "CellSpace":
        return cls(axes=tuple(axes))

    @classmethod
    def cube_grid(
        cls, dim: int, cells: int, lo: float = -1.0, hi: float = 1.0, weights=None
    ) -> "CellSpace":
        """Uniform grid on [lo, hi]^dim under the (weighted) sup metric."""
        if dim < 1 or cells < 1 or hi <= lo:
            raise ConfigurationError("bad cube grid shape")
        w = (hi - lo) / cells
        ws = [1.0] * dim if weights is None else list(weights)
        if len(ws) != dim:
            raise ConfigurationError("one weight per axis")
        return cls(axes=tuple(Axis(lo, w, cells, weight=wt) for wt in ws))

    @classmethod
    def from_samples(cls, dmat: np.ndarray, max_diam: float, adj_tol: float) -> "CellSpace":
        """Bucket sample points by proximity (leader pass at radius
        max_diam/2) and fail if any bucket still reaches max_diam."""
        dmat = np.asarray(dmat, dtype=np.float64)
        if max_diam <= 0 or adj_tol < 0:
            raise ConfigurationError("max_diam must be positive, adj_tol nonnegative")
        leaders: list[int] = []
        members: list[list[int]] = []
        for p in range(dmat.shape[0]):
            for j, ld in enumerate(leaders):
                if dmat[p, ld] <= max_diam / 2:
                    members[j].append(p)
                    break
            else:
                leaders.append(p)
                members.append([p])
        space = cls(
            dmat=dmat, buckets=tuple(tuple(b) for b in members), adj_tol=adj_tol
        )
        diam = space._bucket_dists[1].diagonal()
        too_wide = np.nonzero(diam >= max_diam)[0]
        if len(too_wide):
            raise ResolutionError(
                f"bucket diameter {float(diam[too_wide[0]]):.3g} >= {max_diam:.3g}"
            )
        return space

    # -- metric data --------------------------------------------------------

    @cached_property
    def _bucket_dists(self) -> tuple[np.ndarray, np.ndarray]:
        """Bucket metric of a sample space, built once: (B, B) matrices of
        the least distance between distinct buckets (zero diagonal) and of
        the largest, whose diagonal holds the bucket diameters.

        The dmat is taken in bucket order, so every bucket is one run of
        rows and columns and reduceat at the run starts reduces each block.
        Entry [a, b] of the largest distances reads rows of a and columns
        of b; the least distances read the upper block for both [a, b] and
        [b, a], as the dmat is only symmetric up to rounding.
        """
        order = np.fromiter(itertools.chain.from_iterable(self.buckets), dtype=np.int64)
        sizes = np.fromiter(map(len, self.buckets), dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        d = self.dmat[np.ix_(order, order)]
        bmin = np.triu(np.minimum.reduceat(np.minimum.reduceat(d, starts, 0), starts, 1), 1)
        bmin += bmin.T
        bmax = np.maximum.reduceat(np.maximum.reduceat(d, starts, 0), starts, 1)
        return bmin, bmax

    def atom_diameter(self, a: int) -> float:
        if self.is_grid:
            return max(ax.width * ax.weight for ax in self.axes)
        return float(self._bucket_dists[1][a, a])

    def max_atom_diameter(self) -> float:
        if self.is_grid:
            return max(ax.width * ax.weight for ax in self.axes)
        return float(self._bucket_dists[1].diagonal().max())

    def element_diameter(self, atoms) -> float:
        """Exact diameter of the closed union of the given atoms."""
        ids = np.fromiter(atoms, dtype=np.int64)
        if len(ids) == 0:
            raise CoverError("empty element")
        if not self.is_grid:
            pts = np.concatenate([self.buckets[a] for a in ids]).astype(np.int64)
            return float(self.dmat[np.ix_(pts, pts)].max())
        # sup metric: the diameter is the largest weighted per-axis extent
        multi = np.unravel_index(ids, self.shape)
        best = 0.0
        for i, ax in enumerate(self.axes):
            idx = multi[i]
            if not ax.periodic:
                ext = (int(idx.max()) - int(idx.min()) + 1) * ax.width
            else:
                ext = _circular_extent(np.unique(idx), ax)
            best = max(best, ext * ax.weight)
        return best

    def diameter(self) -> float:
        if self.is_grid:
            return self.element_diameter(range(self.n_atoms))
        return float(self.dmat.max())

    def adjacency(self) -> np.ndarray:
        """Symmetric closed-neighborhood matrix (diagonal True)."""
        if self.is_grid:
            raise ConfigurationError("grid adjacency is implicit in the lattice")
        return self._bucket_dists[0] <= self.adj_tol


def _circular_extent(idx: np.ndarray, ax: Axis) -> float:
    """Diameter of a union of closed atom arcs under the arc metric."""
    C = ax.span
    starts = idx * ax.width
    stops = (idx + 1) * ax.width
    # two antipodal points inside the union force the maximal value C/2
    for a0, b0 in zip(starts, stops):
        lo, hi = (a0 + C / 2) % C, (b0 + C / 2) % C
        for a1, b1 in zip(starts, stops):
            if lo <= hi:
                if a1 <= hi and b1 >= lo:
                    return C / 2
            elif b1 >= lo or a1 <= hi:
                return C / 2
    pts = np.unique(np.concatenate([starts, stops]) % C)
    diff = np.abs(pts[:, None] - pts[None, :])
    return float(np.minimum(diff, C - diff).max())


@dataclass(frozen=True)
class CellCover:
    """Elements are sets of atom ids; stats live in cover_stats (always
    recomputable, per the invariant)."""

    space: CellSpace
    elements: tuple[frozenset, ...]


# ---------------------------------------------------------------------------
# multiplicity counting


def _vertex_shape(space: CellSpace) -> tuple[int, ...]:
    return tuple(ax.count if ax.periodic else ax.count + 1 for ax in space.axes)


def _element_masks(space: CellSpace, elements) -> np.ndarray:
    """(elements, atoms) membership matrix."""
    masks = np.zeros((len(elements), space.n_atoms), dtype=bool)
    for e, E in enumerate(elements):
        masks[e, np.fromiter(E, dtype=np.int64)] = True
    return masks


def _touched_vertices(space: CellSpace, masks: np.ndarray) -> np.ndarray:
    """Grid vertices lying on the closure of each masked atom union: atom
    masks (K, *shape) give vertex masks (K, *vertex shape)."""
    out = np.zeros((len(masks),) + _vertex_shape(space), dtype=bool)
    nd = len(space.axes)
    for shift in itertools.product((0, 1), repeat=nd):
        c = masks
        sl = [slice(None)]
        for i, ax in enumerate(space.axes):
            if ax.periodic:
                if shift[i]:
                    c = np.roll(c, 1, axis=i + 1)
                sl.append(slice(None))
            else:
                sl.append(slice(shift[i], shift[i] + ax.count))
        out[tuple(sl)] |= c
    return out


def _element_vertices(space: CellSpace, elements) -> np.ndarray:
    """(elements, vertices) closure-incidence matrix of a grid cover."""
    masks = _element_masks(space, elements).reshape((-1,) + space.shape)
    return _touched_vertices(space, masks).reshape(len(masks), -1)


def _grid_multiplicity(space: CellSpace, elements) -> int:
    return int(_element_vertices(space, elements).sum(axis=0, dtype=np.int32).max())


def _sample_multiplicity(space: CellSpace, elements) -> int:
    meets = _element_masks(space, elements) @ space.adjacency()
    return int(meets.sum(axis=0, dtype=np.int32).max())


def cover_stats(cover: CellCover) -> tuple[float, int]:
    """(mesh, multiplicity), recomputed from scratch; holes are an error."""
    space = cover.space
    if not cover.elements:
        raise CoverError("cover has no elements")
    seen = set()
    for E in cover.elements:
        seen.update(E)
    missing = sorted(set(range(space.n_atoms)) - seen)
    if missing:
        raise CoverError(f"uncovered atoms: {missing[:12]}")
    mesh = max(space.element_diameter(E) for E in cover.elements)
    if space.is_grid:
        mult = _grid_multiplicity(space, cover.elements)
    else:
        mult = _sample_multiplicity(space, cover.elements)
    return mesh, mult


# ---------------------------------------------------------------------------
# cover construction: staircase bricks on grids, leader growth on samples


def _brick_atoms_per_axis(space: CellSpace, eps: float) -> list[int]:
    ms = []
    for ax in space.axes:
        unit = ax.width * ax.weight
        m = max(1, int(eps / unit))
        while m > 1 and m * unit >= eps:
            m -= 1
        if m * unit >= eps:
            raise ResolutionError("eps at or below atom resolution")
        ms.append(min(m, ax.count))
    return ms


def staircase_cover(space: CellSpace, eps: float) -> CellCover:
    """Shifted-brick cover: along each axis, brick boundaries are offset by
    the sum of the higher axes' brick indices (running-bond pattern and its
    higher-dimensional staircase analogue)."""
    if not space.is_grid:
        raise ConfigurationError("staircase covers need a grid space")
    ms = _brick_atoms_per_axis(space, eps)
    shape = space.shape
    nd = len(shape)
    multi = np.array(list(np.ndindex(shape))).T  # (nd, n_atoms)
    brick = np.zeros_like(multi)
    for i in range(nd - 1, -1, -1):
        shift = brick[i + 1 :].sum(axis=0) if i + 1 < nd else 0
        brick[i] = (multi[i] + shift) // ms[i]
    elements: dict[tuple, set] = {}
    for a in range(space.n_atoms):
        elements.setdefault(tuple(brick[:, a]), set()).add(a)
    return CellCover(space=space, elements=tuple(frozenset(v) for v in elements.values()))


def _greedy_sample_cover(space: CellSpace, eps: float, order: np.ndarray) -> CellCover:
    """Leader growth: each unassigned seed in `order` takes the unassigned
    buckets nearest to it first, while the element stays below eps wide.

    `reach` holds the largest distance from the element's points to each
    bucket's, so a candidate's width is one lookup.
    """
    bmin, bmax = space._bucket_dists
    assigned = [False] * space.n_atoms
    elements = []
    for seed in order.tolist():
        if assigned[seed]:
            continue
        E = [seed]
        assigned[seed] = True
        reach = bmax[seed].copy()
        for b in np.argsort(bmin[seed]).tolist():
            if not assigned[b] and max(reach[b], bmax[b, b]) < eps:
                E.append(b)
                np.maximum(reach, bmax[b], out=reach)
                assigned[b] = True
        elements.append(frozenset(E))
    return CellCover(space=space, elements=tuple(elements))


def _prune_redundant(cover: CellCover) -> CellCover:
    """Drop elements whose atoms are all covered elsewhere (never raises
    multiplicity)."""
    elements = list(cover.elements)
    changed = True
    while changed:
        changed = False
        for i in sorted(range(len(elements)), key=lambda j: len(elements[j])):
            rest = set()
            for j, E in enumerate(elements):
                if j != i:
                    rest.update(E)
            if elements[i] <= rest:
                del elements[i]
                changed = True
                break
    return CellCover(space=cover.space, elements=tuple(elements))


# ---------------------------------------------------------------------------
# exact mode: branch and bound over a box dictionary


def _box_dictionary(space: CellSpace, eps: float):
    """All axis-aligned atom boxes of weighted extent < eps, as
    (atom mask, vertex mask) pairs, biggest boxes first."""
    for ax in space.axes:
        if ax.periodic:
            raise ConfigurationError("exact mode supports non-periodic grids only")
    # boxes in itertools.product order over per-axis intervals [a, b]: the
    # atom mask is the outer product of the per-axis interval indicators
    masks = np.ones((1, 1), dtype=bool)
    for ax in space.axes:
        unit = ax.width * ax.weight
        lo, hi = np.triu_indices(ax.count)
        keep = (hi - lo + 1) * unit < eps
        if not keep.any():
            raise ResolutionError("eps at or below atom resolution")
        cells = np.arange(ax.count)
        ivs = (lo[keep, None] <= cells) & (cells <= hi[keep, None])
        masks = (masks[:, None, :, None] & ivs[None, :, None, :]).reshape(
            len(masks) * len(ivs), -1
        )
    return _search_boxes(space, masks)


def _subset_dictionary(space: CellSpace, eps: float):
    """Every atom subset of diameter < eps; exhaustive, so the refutation it
    supports is a true lower bound for the discretized space.  Only viable
    on tiny instances."""
    A = space.n_atoms
    if A > 16:
        raise ConfigurationError("subset dictionary only on <= 16 atoms")
    subsets = []
    for bits in range(1, 1 << A):
        atoms = [a for a in range(A) if bits >> a & 1]
        if space.element_diameter(atoms) < eps:
            mask = np.zeros(A, dtype=bool)
            mask[atoms] = True
            subsets.append(mask)
    return _search_boxes(space, np.array(subsets))


def _search_boxes(space: CellSpace, masks: np.ndarray):
    """(atom mask, vertex mask) pairs of the flat atom masks, biggest first
    (stable, so equal sizes keep their order)."""
    verts = _touched_vertices(space, masks.reshape((-1,) + space.shape))
    verts = verts.reshape(len(masks), -1)
    order = np.argsort(-masks.sum(axis=1), kind="stable")
    return list(zip(masks[order], verts[order]))


class _Budget(Exception):
    pass


def _row_bits(rows: np.ndarray) -> tuple[int, ...]:
    """Each boolean row as a Python int with bit j set where row[j]."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


@dataclass(frozen=True)
class _SearchIndex:
    """Incidence bitmasks of a box dictionary, built once for every t:
    atoms and vertices of each box, boxes of each atom and of each vertex."""

    box_atoms: tuple[int, ...]
    box_verts: tuple[int, ...]
    atom_boxes: tuple[int, ...]
    vert_boxes: tuple[int, ...]

    @classmethod
    def of(cls, boxes) -> "_SearchIndex":
        atoms = np.array([mask for mask, _ in boxes])
        verts = np.array([vmask for _, vmask in boxes])
        return cls(_row_bits(atoms), _row_bits(verts), _row_bits(atoms.T), _row_bits(verts.T))


def _bit_ids(bits: int):
    """Set bit positions of a nonnegative int, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _search_cover(index: _SearchIndex, t: int, budget_left) -> list[int] | None:
    """Find a dictionary cover with vertex multiplicity <= t, or refute;
    returns the chosen box ids.

    Depth first: branch on the first open atom with at most one candidate
    box (none refutes the node), else on the first open atom with the
    fewest, trying its candidates by descending count of open atoms they
    contain.  A box is a candidate while none of its vertices has count t.
    A node's state is three ints: the covered atoms, t count layers of the
    vertices (layer k holds the vertices of count >= k + 1) and the blocked
    boxes.  A push ORs the box's masks in and blocks the boxes of every
    vertex it brings to count t; the parent's ints are untouched, so a pop
    costs nothing.
    """
    box_atoms, box_verts, vert_boxes = index.box_atoms, index.box_verts, index.vert_boxes
    atoms = [(1 << a, bs, tuple(_bit_ids(bs))) for a, bs in enumerate(index.atom_boxes)]

    def dfs(covered, layers, blocked):
        budget_left[0] -= 1
        if budget_left[0] < 0:
            raise _Budget
        free = ~blocked
        best, best_n = None, 0
        for bit, bs, ids in atoms:
            if covered & bit:
                continue
            n = (bs & free).bit_count()
            if n <= 1:
                if n == 0:
                    return None
                best = ids
                break
            if best is None or n < best_n:
                best, best_n = ids, n
        if best is None:
            return []
        # (-open atoms, id) pairs sort as a stable sort by open atoms would
        uncovered = ~covered
        cand = sorted(
            (-(box_atoms[bi] & uncovered).bit_count(), bi)
            for bi in best
            if not blocked >> bi & 1
        )
        for _, bi in cand:
            vb = box_verts[bi]
            # a candidate touches no vertex of count t, so counts stay <= t
            grown = tuple(layers[k] | (layers[k - 1] & vb) for k in range(1, t))
            now_blocked = blocked
            for v in _bit_ids(vb & layers[-2] if t > 1 else vb):
                now_blocked |= vert_boxes[v]
            sub = dfs(covered | box_atoms[bi], (layers[0] | vb,) + grown, now_blocked)
            if sub is not None:
                return [bi] + sub
        return None

    return dfs(0, (0,) * t, 0)


# ---------------------------------------------------------------------------
# the headline operation


@dataclass(frozen=True)
class WidimResult:
    """Outcome of min_multiplicity.

    certified_lower is relative to the search dictionary (see the module
    docstring); it is None in heuristic modes and when the node budget ran
    out before a clean refutation ("upper-only" flag).
    """

    widim_upper: int
    cover: CellCover
    certified_lower: int | None
    mode: str
    flag: str = ""
    nodes: int = 0
    dictionary: str = "boxes"

    def to_json(self, eps: float) -> dict:
        return {
            "atoms": self.cover.space.n_atoms,
            "eps": eps,
            "mode": self.mode,
            "widim_upper": self.widim_upper,
            "certified_lower": self.certified_lower,
            "flag": self.flag,
            "dictionary": self.dictionary,
        }


def min_multiplicity(
    space: CellSpace,
    eps: float,
    mode: str = "greedy",
    budget: int = 200_000,
    seed: int = 0,
    dictionary: str = "boxes",
) -> WidimResult:
    """Best cover at mesh < eps; widim_upper is its multiplicity - 1."""
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    if mode not in ("exact", "greedy", "local_search"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if space.diameter() < eps:
        cover = CellCover(space=space, elements=(frozenset(range(space.n_atoms)),))
        return WidimResult(0, cover, 0, mode)
    if eps <= space.max_atom_diameter():
        raise ResolutionError(
            "eps at or below the atom resolution: refine the discretization"
        )

    if mode == "exact":
        return _exact_mode(space, eps, budget, dictionary)

    covers = [_heuristic_cover(space, eps, np.arange(space.n_atoms))]
    if mode == "local_search":
        rng = np.random.default_rng(seed)
        restarts = 12 if not space.is_grid else 0
        for _ in range(restarts):
            covers.append(
                _heuristic_cover(space, eps, rng.permutation(space.n_atoms))
            )
    covers = [_prune_redundant(c) for c in covers]
    scored = [(cover_stats(c)[1], i) for i, c in enumerate(covers)]
    mult, best = min(scored)
    return WidimResult(mult - 1, covers[best], None, mode)


def _heuristic_cover(space, eps, order):
    if space.is_grid:
        return staircase_cover(space, eps)
    return _greedy_sample_cover(space, eps, order)


def _exact_mode(space: CellSpace, eps: float, budget: int, dictionary: str) -> WidimResult:
    if not space.is_grid:
        raise ConfigurationError("exact mode requires a grid space")
    if dictionary == "boxes":
        boxes = _box_dictionary(space, eps)
    elif dictionary == "atoms":
        boxes = _subset_dictionary(space, eps)
    else:
        raise ConfigurationError(f"unknown dictionary {dictionary!r}")
    index = _SearchIndex.of(boxes)
    seed_cover = _prune_redundant(staircase_cover(space, eps))
    _, upper_mult = cover_stats(seed_cover)
    budget_left = [budget]
    for t in range(1, upper_mult + 1):
        try:
            found = _search_cover(index, t, budget_left)
        except _Budget:
            return WidimResult(
                upper_mult - 1,
                seed_cover,
                None,
                "exact",
                flag="upper-only",
                nodes=budget,
                dictionary=dictionary,
            )
        if found is not None:
            cover = CellCover(
                space=space,
                elements=tuple(frozenset(_bit_ids(index.box_atoms[bi])) for bi in found),
            )
            mesh, mult = cover_stats(cover)
            return WidimResult(
                mult - 1,
                cover,
                mult - 1,
                "exact",
                nodes=budget - budget_left[0],
                dictionary=dictionary,
            )
    raise CoverError("staircase cover escaped its own multiplicity bound")


# ---------------------------------------------------------------------------
# orbit samples and series


def widim_orbit(
    samples,
    n: int,
    eps: float,
    mode: str = "greedy",
    budget: int = 200_000,
    seed: int = 0,
) -> int:
    """Sample-relative Widim_eps(X, d_n) from bucketed orbit windows."""
    dmat = bowen_dmat(samples, n)
    if dmat.max() <= eps:
        return 0
    space = CellSpace.from_samples(dmat, max_diam=eps / 4, adj_tol=eps / 8)
    return min_multiplicity(space, eps, mode=mode, budget=budget, seed=seed).widim_upper


def sample_space_from_dmat(dmat: np.ndarray, eps: float) -> CellSpace:
    """Bucket arbitrary sampled points (image sequences, fibre probes) at
    the standard resolution eps/4 with touching tolerance eps/8."""
    return CellSpace.from_samples(np.asarray(dmat, float), max_diam=eps / 4, adj_tol=eps / 8)


@dataclass(frozen=True)
class MdimEstimate:
    eps: float
    value: float  # inf of widim/n: an upper bound for the limit
    last_slope: float
    per_n: tuple[tuple[int, float], ...]


def mdim_estimate(series, eps: float) -> MdimEstimate:
    """Infimum of widim/n over the computed horizons plus a slope diagnostic.

    By subadditivity of n -> Widim_eps(X, d_n) the infimum over any finite
    set of horizons is an upper bound for the limit.
    """
    items = sorted((int(n), float(w)) for n, w in dict(series).items())
    if len(items) < 3:
        raise ConfigurationError("need at least three horizons")
    if any(n < 1 or w < 0 for n, w in items):
        raise ConfigurationError("horizons must be >= 1 with nonnegative widims")
    per_n = tuple((n, w / n) for n, w in items)
    value = min(r for _, r in per_n)
    (n0, w0), (n1, w1) = items[-2], items[-1]
    last_slope = (w1 - w0) / (n1 - n0)
    return MdimEstimate(eps=eps, value=value, last_slope=last_slope, per_n=per_n)


# ---------------------------------------------------------------------------
# continuum pattern bound


def tau_for(eps: float, decay: float) -> int:
    """Coordinates beyond the horizon that the metric still resolves at eps:
    largest tau with decay^tau >= eps."""
    if not 0 < eps:
        raise ConfigurationError("eps must be positive")
    if not 0 < decay < 1:
        raise ConfigurationError("decay must lie in (0, 1)")
    t = 0
    while decay ** (t + 1) >= eps:
        t += 1
    return t


def simplex_carrier_size(p: np.ndarray) -> int:
    """Number of vertices of the standard-triangulation simplex containing p
    (unit lattice): 1 + the count of distinct nonzero fractional parts."""
    f = np.asarray(p, dtype=np.float64)
    f = f - np.floor(f)
    nz = np.unique(f[f > 0])
    return 1 + len(nz)


def pattern_cover_bound(system: SystemSpec, n: int, eps: float) -> int:
    """Upper bound for Widim_eps(X, d_n) on the full product system.

    Coordinates of the cube layer further than tau = tau_for(eps, decay)
    from the horizon window shrink below eps and need no structure; the
    remaining D*(n + 2 tau) cube coordinates plus the circle are covered by
    the open vertex stars of a scaled simplicial grid.  A point's carrier
    has at most (#coordinates + 1) vertices (simplex_carrier_size), so the
    cover order is at most that, giving Widim <= D*(n + 2 tau) + 1.
    """
    if n < 1:
        raise ConfigurationError("horizon must be >= 1")
    if not 0 < eps < 1:
        raise ConfigurationError("the pattern bound needs 0 < eps < 1")
    tau = tau_for(eps, system.decay)
    return system.D * (n + 2 * tau) + 1


def pattern_series(system: SystemSpec, horizons, eps: float) -> dict[int, int]:
    return {int(n): pattern_cover_bound(system, int(n), eps) for n in horizons}


# ---------------------------------------------------------------------------
# sequence-space metrics (images of the factor maps)


def seq_pad(eps: float, decay: float, amp: float = 2.0) -> int:
    """Window slack of the sequence-space Bowen metric at eps: the least pad
    with amp * decay^pad < eps/16, so coordinates beyond it are negligible."""
    pad = 0
    while amp * decay**pad >= eps / 16.0:
        pad += 1
    return pad


def seq_bowen_dmat(
    seqs: np.ndarray, lo: int, n: int, decay: float, eps: float, amp: float = 2.0
) -> np.ndarray:
    """Pairwise Bowen sup distances between sequence windows.

    seqs[k] holds coordinates lo..lo+L-1 of the k-th point; coordinate j is
    weighted by decay^(distance of j to [0, n-1]).  The windows must extend
    ``seq_pad`` beyond [0, n-1], so the discarded tail stays below eps/16.
    """
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 2:
        raise ConfigurationError("seqs must be (samples, window)")
    L = seqs.shape[1]
    js = lo + np.arange(L)
    pad = seq_pad(eps, decay, amp)
    if lo > -pad or lo + L - 1 < n - 1 + pad:
        raise ResolutionError(
            f"sequence windows must cover [{-pad}, {n - 1 + pad}] for eps={eps}"
        )
    gap = np.maximum(0, np.maximum(-js, js - (n - 1)))
    return sup_dmat(seqs, decay**gap)


# ---------------------------------------------------------------------------
# nerve and projection


@dataclass(frozen=True)
class NerveComplex:
    """Nerve of a cover: vertices are element ids, simplices the sets of
    elements sharing a closure point (stored via their maximal members)."""

    n_vertices: int
    maximal_simplices: tuple[frozenset, ...]

    @property
    def dimension(self) -> int:
        if not self.maximal_simplices:
            return -1
        return max(len(s) for s in self.maximal_simplices) - 1

    def is_simplex(self, s) -> bool:
        s = frozenset(s)
        return any(s <= m for m in self.maximal_simplices)


def _incidence_sets(cover: CellCover):
    """Element sets meeting at each closure feature (grid vertex or sample
    atom neighborhood)."""
    space = cover.space
    if space.is_grid:
        meets = _element_vertices(space, cover.elements).T
    else:
        meets = (_element_masks(space, cover.elements) @ space.adjacency()).T
    for row in meets:
        ids = np.nonzero(row)[0]
        if len(ids):
            yield frozenset(int(e) for e in ids)


def _atom_center(space: CellSpace, a: int) -> np.ndarray:
    multi = np.unravel_index(a, space.shape)
    return np.array(
        [ax.origin + (int(j) + 0.5) * ax.width for j, ax in zip(multi, space.axes)]
    )


def _center_to_atom_dist(space: CellSpace, p: np.ndarray, b: int) -> float:
    multi = np.unravel_index(b, space.shape)
    best = 0.0
    for i, ax in enumerate(space.axes):
        lo = ax.origin + int(multi[i]) * ax.width
        hi = lo + ax.width
        if ax.periodic:
            u = (p[i] - ax.origin) % ax.span + ax.origin
            if lo <= u <= hi:
                gap = 0.0
            else:
                gap = min(
                    min(abs(u - lo), ax.span - abs(u - lo)),
                    min(abs(u - hi), ax.span - abs(u - hi)),
                )
        else:
            gap = max(0.0, lo - p[i], p[i] - hi)
        best = max(best, gap * ax.weight)
    return best


def nerve_and_projection(cover: CellCover):
    """Nerve of the cover plus the barycentric projection of each atom.

    Weights are clamped distances from the atom's representative point to
    each covering element's complement; rows with no interior mass fall
    back to membership indicators.  Fibers of the projection are grouped
    and checked to stay within twice the mesh.
    """
    mesh, mult = cover_stats(cover)
    space = cover.space
    feats = set(_incidence_sets(cover))
    maximal = tuple(
        sorted(
            (s for s in feats if not any(s < t for t in feats)),
            key=lambda s: (len(s), sorted(s)),
        )
    )
    nerve = NerveComplex(n_vertices=len(cover.elements), maximal_simplices=maximal)
    if nerve.dimension != mult - 1:
        raise CoverError("nerve dimension disagrees with cover multiplicity")

    A, E = space.n_atoms, len(cover.elements)
    clamp = mesh / 2 if mesh > 0 else 1.0
    W = np.zeros((A, E))
    members = [np.fromiter(el, dtype=np.int64) for el in cover.elements]
    for e, el in enumerate(cover.elements):
        outside = sorted(set(range(A)) - el)
        for a in el:
            if not outside:
                W[a, e] = clamp
            elif space.is_grid:
                p = _atom_center(space, a)
                d = min(_center_to_atom_dist(space, p, b) for b in outside)
                W[a, e] = min(d, clamp)
            else:
                rep = space.buckets[a][0]
                d = min(
                    space.dmat[rep, space.buckets[b][0]] for b in outside
                )
                W[a, e] = min(d, clamp)
    for a in range(A):
        if W[a].sum() <= 0:
            for e, el in enumerate(cover.elements):
                if a in el:
                    W[a, e] = 1.0
    W = W / W.sum(axis=1, keepdims=True)

    fibers: dict[tuple, list[int]] = {}
    for a in range(A):
        key = tuple(np.round(W[a], 9))
        fibers.setdefault(key, []).append(a)
    for atoms in fibers.values():
        if space.element_diameter(atoms) > 2 * mesh and mesh > 0:
            raise CoverError("projection fiber exceeds twice the mesh")
    return nerve, W
