"""Factor maps with verified-narrow fibers.

The route is compose-then-verify: cover a discretized space at mesh below
half the target resolution, project atoms barycentrically onto the nerve of
the cover, and send nerve vertices to generic points of [0,1]^(m-1).  The
resulting map is linear on nerve simplices, and the width bound

    widim_eps(fiber) <= dim(nerve) / m

is measured by the cover solver on sampled, slightly thickened fibers.
Nothing about fiber quality is taken on faith from the construction; a
draw that misses the bound is either improved by local search or reported.

Two layers share this module.  ``build_fmap`` / ``verify_fiber_bound`` work
on any CellSpace.  ``fiber_width_chain`` runs the factor-side argument on
the product system: sampled pi-fibers are matched against oracle blocks
inside the certified lookback radius K = 2*M1 + 2, and their Bowen widths
are compared with the target rate.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .checks import (
    FIBER_CONTAINMENT,
    FIBER_WIDTH,
    NERVE_TRANSFER,
    PAIR_SEPARATION,
    CheckResult,
)
from .dynsys import ConfigurationError, bowen_dmat, sup_dmat
from .marker import MarkerSpec
from .signal import (
    FactorContext,
    SignalParams,
    admissible_recovery_starts,
    factor_context,
    factor_image,
    oracle_blocks,
    separation_report,
)
from .tiling import TilingParams, good_tile, slice_tiling
from .widim import (
    CellCover,
    CellSpace,
    NerveComplex,
    _atom_center,
    _grid_multiplicity,
    min_multiplicity,
    nerve_and_projection,
    staircase_cover,
)


class FiberError(RuntimeError):
    """A sampled fiber escaped its certified containment."""


class FMapConstruction(Enum):
    LINEAR_ON_NERVE = "linear-on-nerve"
    SEARCHED_PL = "searched-pl"


@dataclass(frozen=True)
class FMap:
    """Map space -> [0,1]^(m-1), linear on the simplices of a cover nerve.

    ``vertex_images`` holds one image row per cover element and
    ``projection`` the barycentric atom -> vertex matrix, so atom ``a``
    maps to ``projection[a] @ vertex_images``.  ``delta_transfer`` records
    the empirically certified transfer radius: atom pairs whose
    projections differ by less than it (sup norm) are closer than the
    resolution the cover was built for.
    """

    construction: FMapConstruction
    nerve: NerveComplex
    vertex_images: np.ndarray
    projection: np.ndarray
    cover: CellCover
    eps_half: float
    horizon: int
    m: int
    delta_transfer: float
    flag: str = ""

    def __post_init__(self):
        if self.m < 2:
            raise ConfigurationError("m must be at least 2")
        V = self.nerve.n_vertices
        if self.vertex_images.shape != (V, self.m - 1):
            raise ConfigurationError("need one image row of length m-1 per vertex")
        if np.any(self.vertex_images < 0.0) or np.any(self.vertex_images > 1.0):
            raise ConfigurationError("vertex images must lie in [0,1]^(m-1)")
        if self.projection.ndim != 2 or self.projection.shape[1] != V:
            raise ConfigurationError("projection must be atoms x vertices")
        if not np.allclose(self.projection.sum(axis=1), 1.0):
            raise ConfigurationError("projection rows must be barycentric")

    @property
    def bound(self) -> float:
        """Fiber width target: dim(nerve)/m."""
        return self.nerve.dimension / self.m

    def images(self, atoms=None) -> np.ndarray:
        vals = self.projection @ self.vertex_images
        if atoms is None:
            return vals
        return vals[np.asarray(atoms, dtype=np.int64)]

    def to_json(self) -> dict:
        dt = self.delta_transfer
        return {
            "construction": self.construction.value,
            "m": self.m,
            "eps_half": self.eps_half,
            "horizon": self.horizon,
            "delta_transfer": dt if math.isfinite(dt) else None,
            "flag": self.flag,
            "n_vertices": self.nerve.n_vertices,
            "maximal_simplices": [sorted(s) for s in self.nerve.maximal_simplices],
            "vertex_images": self.vertex_images.tolist(),
        }


# ---------------------------------------------------------------------------
# metric helpers


def _pairwise_atom_dmat(space: CellSpace) -> np.ndarray:
    """Sup distances between atom representatives (centers or bucket reps)."""
    if space.is_grid:
        centers = np.stack([_atom_center(space, a) for a in range(space.n_atoms)])
        out = np.zeros((space.n_atoms, space.n_atoms))
        for i, ax in enumerate(space.axes):
            diff = np.abs(centers[:, i, None] - centers[None, :, i])
            if ax.periodic:
                diff = np.minimum(diff, ax.span - diff)
            np.maximum(out, diff * ax.weight, out=out)
        return out
    reps = np.array([b[0] for b in space.buckets], dtype=np.int64)
    return space.dmat[np.ix_(reps, reps)]


def delta_transfer_of(space: CellSpace, projection: np.ndarray, eps: float) -> float:
    """Largest nerve-image gap that still certifies eps-closeness downstairs.

    Empirical over all atom pairs: the smallest projection gap among pairs
    at distance >= eps, so that any image distance below the returned value
    implies the two atoms are eps-close.  inf when no pair is that far.
    """
    far = _pairwise_atom_dmat(space) >= eps
    if not far.any():
        return math.inf
    return float(sup_dmat(projection)[far].min())


def _fiber_atoms(atom_images: np.ndarray, p, tol: float) -> np.ndarray:
    return np.nonzero(np.abs(atom_images - np.asarray(p)).max(axis=1) <= tol)[0]


def _dmat_widim_upper(dmat: np.ndarray, eps: float) -> int:
    """Greedy upper width estimate for a point set given its distances."""
    if dmat.shape[0] <= 1 or dmat.max() <= eps:
        return 0
    space = CellSpace(
        dmat=dmat,
        buckets=tuple((i,) for i in range(dmat.shape[0])),
        adj_tol=eps / 8,
    )
    return min_multiplicity(space, eps).widim_upper


def fiber_widim_upper(space: CellSpace, atoms, eps: float) -> int:
    """Upper estimate of the eps-width of a sampled fiber.

    Grids reuse the staircase cover restricted to the fiber (vertex counts
    of the surviving bricks are a genuine cover multiplicity for the
    subset); sample spaces rerun the greedy solver on the induced points.
    """
    atoms = np.asarray(list(atoms), dtype=np.int64)
    if len(atoms) == 0:
        raise ConfigurationError("cannot size an empty fiber")
    if len(atoms) == 1 or space.element_diameter(atoms) < eps:
        return 0
    if space.is_grid:
        keep = set(int(a) for a in atoms)
        elements = [E & keep for E in staircase_cover(space, eps).elements]
        return _grid_multiplicity(space, [E for E in elements if E]) - 1
    pts = np.concatenate([space.buckets[a] for a in atoms]).astype(np.int64)
    return _dmat_widim_upper(space.dmat[np.ix_(pts, pts)], eps)


# ---------------------------------------------------------------------------
# construction


def _structured_images(space: CellSpace, cover: CellCover, m: int):
    """Coordinate-projection seed for the search on grid spaces.

    Element centers, normalized axis-wise into [0,1], make F an affine
    image of the first m-1 coordinates: fibers are then domain-local by
    construction, which is the shape the width bound wants.  Sample spaces
    carry no coordinates, so they return None and rely on generic draws.
    """
    if not space.is_grid:
        return None
    V = len(cover.elements)
    centers = np.zeros((V, len(space.axes)))
    for e, E in enumerate(cover.elements):
        centers[e] = np.stack([_atom_center(space, a) for a in E]).mean(axis=0)
    imgs = np.full((V, m - 1), 0.5)
    for j in range(min(m - 1, centers.shape[1])):
        col = centers[:, j]
        span = col.max() - col.min()
        if span > 0:
            imgs[:, j] = (col - col.min()) / span
    return imgs


def build_fmap(
    space: CellSpace,
    eps: float,
    m: int,
    construction: FMapConstruction = FMapConstruction.LINEAR_ON_NERVE,
    budget: int = 64,
    seed: int = 0,
    horizon: int = 1,
) -> FMap:
    """Cover at mesh < eps/2, project to the nerve, map into [0,1]^(m-1).

    LINEAR_ON_NERVE takes one generic seeded draw of vertex images.
    SEARCHED_PL starts from the same draw and redraws single vertices while
    the worst fiber width over an internal probe set exceeds dim(nerve)/m;
    if the budget runs out first, the best candidate comes back flagged
    "unverified" rather than silently accepted.
    """
    if m < 2:
        raise ConfigurationError("m must be at least 2")
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    cover = min_multiplicity(space, eps / 2.0).cover
    nerve, projection = nerve_and_projection(cover)
    rng = np.random.default_rng([seed, nerve.n_vertices, m])
    imgs = rng.random((nerve.n_vertices, m - 1))
    common = dict(
        nerve=nerve,
        projection=projection,
        cover=cover,
        eps_half=eps / 2.0,
        horizon=horizon,
        m=m,
        delta_transfer=delta_transfer_of(space, projection, eps),
    )
    if construction is FMapConstruction.LINEAR_ON_NERVE:
        return FMap(construction=construction, vertex_images=imgs, **common)

    target = nerve.dimension / m
    tol = eps / 10.0
    uniform = rng.random((8, m - 1))
    push_atoms = rng.integers(0, space.n_atoms, size=8)

    def worst_width(candidate: np.ndarray) -> int:
        vals = projection @ candidate
        worst = 0
        for p in np.concatenate([uniform, vals[push_atoms]]):
            atoms = _fiber_atoms(vals, p, tol)
            if len(atoms):
                worst = max(worst, fiber_widim_upper(space, atoms, eps))
        return worst

    candidates = [imgs]
    structured = _structured_images(space, cover, m)
    if structured is not None:
        candidates.append(structured)
    best_score, best_i = min((worst_width(c), i) for i, c in enumerate(candidates))
    best = candidates[best_i]
    spent = 0
    while best_score > target and spent < budget:
        cand = best.copy()
        cand[int(rng.integers(nerve.n_vertices))] = rng.random(m - 1)
        spent += 1
        score = worst_width(cand)
        if score < best_score:
            best, best_score = cand, score
    flag = "" if best_score <= target else "unverified"
    return FMap(construction=construction, vertex_images=best, flag=flag, **common)


# ---------------------------------------------------------------------------
# verification on a CellSpace


@dataclass(frozen=True)
class FiberProbe:
    probe: tuple
    fiber_size: int
    widim_upper: int
    bound: float
    ok: bool


@dataclass(frozen=True)
class FiberReport:
    eps: float
    fiber_tol: float
    bound: float
    probes: tuple[FiberProbe, ...]
    max_ratio: float
    vacuous: bool

    def rows(self):
        """CSV-ready (probe, fiber_size, widim_upper, bound, pass) tuples."""
        for p in self.probes:
            yield (
                " ".join(f"{c:.6f}" for c in p.probe),
                p.fiber_size,
                p.widim_upper,
                p.bound,
                p.ok,
            )


def verify_fiber_bound(
    fmap: FMap,
    space: CellSpace,
    eps: float,
    probe_count: int = 40,
    seed: int = 0,
    fiber_tol: float | None = None,
) -> FiberReport:
    """Measure widim_eps(F^-1(p)) against dim(nerve)/m on sampled fibers.

    Probes mix uniform draws from [0,1]^(m-1) with pushforwards of atoms,
    so nonempty fibers are guaranteed a voice.  Fibers are thickened to
    ``fiber_tol`` (default eps/10): a sampled exact level set is empty
    almost surely, and the thickened version only over-approximates, which
    keeps a passing verdict conservative.  A report whose every fiber is
    empty is vacuous and fails its check.
    """
    if eps < 2.0 * fmap.eps_half - 1e-12:
        raise ConfigurationError("eps below twice the recorded cover resolution")
    if probe_count < 2:
        raise ConfigurationError("need at least two probes")
    vals = fmap.images()
    if vals.shape[0] != space.n_atoms:
        raise ConfigurationError("map was built over a different space")
    tol = eps / 10.0 if fiber_tol is None else float(fiber_tol)
    rng = np.random.default_rng([seed, space.n_atoms, fmap.m])
    n_uniform = probe_count // 2
    probes = np.concatenate(
        [
            rng.random((n_uniform, fmap.m - 1)),
            vals[rng.integers(0, space.n_atoms, size=probe_count - n_uniform)],
        ]
    )
    bound = fmap.bound
    records = []
    max_ratio = 0.0
    for p in probes:
        atoms = _fiber_atoms(vals, p, tol)
        size = len(atoms)
        wid = fiber_widim_upper(space, atoms, eps) if size else 0
        ok = size == 0 or wid <= bound + 1e-12
        if size:
            ratio = wid / bound if bound > 0 else (math.inf if wid else 0.0)
            max_ratio = max(max_ratio, ratio)
        records.append(
            FiberProbe(tuple(float(c) for c in p), int(size), int(wid), bound, bool(ok))
        )
    return FiberReport(
        eps=eps,
        fiber_tol=tol,
        bound=bound,
        probes=tuple(records),
        max_ratio=max_ratio,
        vacuous=all(r.fiber_size == 0 for r in records),
    )


def check_fiber_bound(report: FiberReport) -> CheckResult:
    if report.vacuous:
        return CheckResult(FIBER_WIDTH, False, "vacuous: every sampled fiber empty")
    bad = [p for p in report.probes if not p.ok]
    if bad:
        return CheckResult(
            FIBER_WIDTH,
            False,
            f"{len(bad)} of {len(report.probes)} probes exceed the bound "
            f"{report.bound:.4g} (max ratio {report.max_ratio:.3g})",
            witness=bad[0],
        )
    return CheckResult(
        FIBER_WIDTH,
        True,
        f"{len(report.probes)} probes, max width/bound ratio {report.max_ratio:.3g}",
    )


def check_nerve_transfer(fmap: FMap) -> CheckResult:
    """The recorded transfer radius must be a usable (positive) margin."""
    dt = fmap.delta_transfer
    if math.isinf(dt):
        return CheckResult(
            NERVE_TRANSFER, True, "no atom pair reaches eps: transfer is vacuous"
        )
    return CheckResult(
        NERVE_TRANSFER,
        dt > 0.0,
        f"delta_transfer = {dt:.6g} (image gaps below it certify eps-closeness)",
    )


# ---------------------------------------------------------------------------
# the factor-side chain on the product system


@dataclass(frozen=True)
class ChainProbe:
    index: int
    fiber_size: int
    blocks_matched: int
    widim_upper: int
    ratio: float


@dataclass(frozen=True)
class FiberChainReport:
    K: int
    eps: float
    delta: float
    horizon: int
    fiber_tol: float
    probes: tuple[ChainProbe, ...]
    max_ratio: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        for p in self.probes:
            yield (p.index, p.fiber_size, p.blocks_matched, p.widim_upper, p.ratio)


def _certify_lookback(ctx: FactorContext, tparams: TilingParams) -> None:
    """Re-derive the central tile of a member's context; fails if it
    escapes [-K, K].  Only the depth-cH slice is new: the marker data and
    the depth-H slice over the same padded window are the context's."""
    t_deep = slice_tiling(ctx.seq, tparams, tparams.cH, ctx.tiling.valid_window)
    good_tile(ctx.tiling, t_deep, tparams)


def _pair_separation_check(mspec, tparams, sparams) -> CheckResult:
    report, res = separation_report(mspec, tparams, sparams)
    return CheckResult(
        PAIR_SEPARATION,
        res.passed,
        "factor image separates the designated pair at coordinate 0: "
        f"{report['phi_z0']:.6g} vs {report['phi_zprime0']:.6g}",
    )


def _close_pairs(rows: tuple[np.ndarray, ...], tol: float, chunk: int = 256) -> np.ndarray:
    """close[j, k] iff every array in rows stays within tol between its rows
    j and k: exactly ``max(sup_dmat(A) for A in rows) <= tol``.

    Pairs are screened chunk by chunk over the columns and drop out at the
    first chunk where some |A[j] - A[k]| exceeds tol, so no S x width
    temporary is built.
    """
    S, width = rows[0].shape
    j, k = np.triu_indices(S, 1)
    for c in range(0, width, chunk):
        for A in rows:
            if len(j) == 0:
                break
            part = A[:, c : c + chunk]
            keep = (np.abs(part[j] - part[k]) <= tol).all(axis=1)
            j, k = j[keep], k[keep]
    close = np.zeros((S, S), dtype=bool)
    np.fill_diagonal(close, 0.0 <= tol)
    close[j, k] = close[k, j] = True
    return close


def fiber_width_chain(
    pool,
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
    F_oracle,
    eps: float,
    horizon: int,
    delta: float,
    probe_count: int = 200,
    seed: int = 0,
    fiber_tol: float | None = None,
) -> FiberChainReport:
    """Factor-side verification on sampled points of the product system.

    The image window of a probe x on [-K, K+m-2] defines a thickened fiber
    inside the pool.  Every member must reproduce an oracle block
    F(T^a . ) at some admissible a in [-K, K] (containment of the fiber in
    the union of oracle fibers), with K re-certified per member through
    the central-tile selector; a member matching no block raises
    FiberError.  The Bowen width of each fiber at the given horizon is
    then compared against delta * horizon.  A pool point drawn as a probe
    more than once is measured once.
    """
    m = sparams.m
    K = tparams.K
    tol = eps / 10.0 if fiber_tol is None else float(fiber_tol)
    if len(pool) < 2:
        raise ConfigurationError("need a pool of at least two points")
    if probe_count < 1:
        raise ConfigurationError("need at least one probe")
    window = (-K, K + m - 2)

    ctxs = [factor_context(x, mspec, tparams, sparams, window) for x in pool]
    # image rows are filled in place: one copy of each window, not two
    G = np.empty((len(pool), window[1] - window[0] + 1))
    PHI = np.empty_like(G)
    for j, ctx in enumerate(ctxs):
        fimg = factor_image(ctx, sparams, F_oracle)
        G[j], PHI[j] = fimg.g_seq, fimg.phi_seq
    # pool points j, k share a thickened fiber iff close[j, k]
    close = _close_pairs((PHI, G), tol)
    bowen = bowen_dmat(pool, horizon)

    rng = np.random.default_rng([seed, len(pool), probe_count])
    chosen = rng.choice(len(pool), size=probe_count, replace=probe_count > len(pool))

    lo = window[0]
    cols = np.arange(m - 1)
    recovery: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def recovery_blocks(j: int) -> tuple[np.ndarray, np.ndarray]:
        """Window columns and oracle values of member j's admissible blocks."""
        got = recovery.get(j)
        if got is None:
            _certify_lookback(ctxs[j], tparams)
            starts = admissible_recovery_starts(ctxs[j], sparams)
            starts = starts[(starts >= -K) & (starts <= K)]
            got = recovery[j] = (
                (starts - lo)[:, None] + cols,
                oracle_blocks(F_oracle, pool[j], starts, m),
            )
        return got

    def probe(i: int) -> ChainProbe:
        members = np.nonzero(close[i])[0]
        blocks = 0
        for j in map(int, members):
            at, F = recovery_blocks(j)
            matched = int(np.count_nonzero(np.abs(G[i][at] - F).max(axis=1) <= tol))
            if matched == 0:
                raise FiberError(
                    f"pool point {j} in the fiber of probe {i} matches no "
                    f"oracle block inside [-{K}, {K}]"
                )
            blocks += matched
        wid = _dmat_widim_upper(bowen[np.ix_(members, members)], eps)
        return ChainProbe(i, len(members), blocks, wid, wid / horizon)

    # distinct probes in draw order, so the first FiberError is the same
    measured = {i: probe(i) for i in dict.fromkeys(map(int, chosen))}
    records = [measured[i] for i in map(int, chosen)]
    max_ratio = max([0.0] + [r.ratio for r in records])

    checks = (
        CheckResult(
            FIBER_CONTAINMENT,
            True,
            f"{sum(r.fiber_size for r in records)} fiber members over {len(records)} "
            f"probes matched {sum(r.blocks_matched for r in records)} oracle blocks "
            f"inside [-{K}, {K}]",
        ),
        CheckResult(
            FIBER_WIDTH,
            max_ratio < delta,
            f"max Widim(fiber, d_{horizon})/{horizon} = {max_ratio:.4g} "
            f"vs target {delta}",
        ),
        _pair_separation_check(mspec, tparams, sparams),
    )
    return FiberChainReport(
        K=K,
        eps=eps,
        delta=delta,
        horizon=horizon,
        fiber_tol=tol,
        probes=tuple(records),
        max_ratio=max_ratio,
        checks=checks,
    )
