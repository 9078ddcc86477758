"""Tests for the cover-multiplicity machinery in widim.py.

Grid anchors are checked against hand-countable covers of [-1, 1]^n; the
sample-flavor tests use small handcrafted distance matrices where the
bucketing and adjacency structure can be enumerated by eye.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandimlab.dynsys import ConfigurationError, SystemSpec, sample_points
from meandimlab.widim import (
    Axis,
    CellCover,
    CellSpace,
    CoverError,
    ResolutionError,
    cover_stats,
    mdim_estimate,
    min_multiplicity,
    nerve_and_projection,
    pattern_cover_bound,
    pattern_series,
    sample_space_from_dmat,
    seq_bowen_dmat,
    seq_pad,
    simplex_carrier_size,
    staircase_cover,
    tau_for,
    widim_orbit,
)
from meandimlab.widim import (
    _box_dictionary,
    _Budget,
    _greedy_sample_cover,
    _prune_redundant,
    _search_cover,
    _SearchIndex,
    _subset_dictionary,
    _vertex_shape,
)

SYS = SystemSpec()


def line_space(pts, eps):
    pts = np.asarray(pts, dtype=np.float64)
    dmat = np.abs(pts[:, None] - pts[None, :])
    return sample_space_from_dmat(dmat, eps)


# ---------------------------------------------------------------------------
# axes and spaces


def test_axis_validation():
    with pytest.raises(ConfigurationError):
        Axis(0.0, 0.0, 4)
    with pytest.raises(ConfigurationError):
        Axis(0.0, 0.5, 0)
    ax = Axis(-1.0, 0.25, 8)
    assert ax.span == pytest.approx(2.0)


def test_space_needs_exactly_one_flavor():
    with pytest.raises(ConfigurationError):
        CellSpace(axes=(), dmat=None)
    with pytest.raises(ConfigurationError):
        CellSpace(
            axes=(Axis(0.0, 1.0, 2),),
            dmat=np.zeros((2, 2)),
            buckets=((0,), (1,)),
            adj_tol=0.1,
        )


def test_dmat_must_be_symmetric():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ConfigurationError):
        CellSpace(axes=(), dmat=bad, buckets=((0,), (1,)), adj_tol=0.1)


@pytest.mark.parametrize(
    "buckets",
    [
        ((0, 1), ()),  # empty bucket
        ((0,), (1,)),  # sample 2 in no bucket
        ((0,), (0, 1), (2,)),  # sample 0 twice
        ((0, 1, 2, 3),),  # no sample 3
    ],
)
def test_buckets_must_partition_the_samples(buckets):
    dmat = np.abs(np.arange(3.0)[:, None] - np.arange(3.0)[None, :])
    with pytest.raises(ConfigurationError, match="buckets"):
        CellSpace(dmat=dmat, buckets=buckets, adj_tol=0.1)


def test_cube_grid_shape_and_diameter():
    s = CellSpace.cube_grid(2, 6)
    assert s.is_grid and s.shape == (6, 6) and s.n_atoms == 36
    assert s.diameter() == pytest.approx(2.0)
    assert s.atom_diameter(0) == pytest.approx(1 / 3)
    with pytest.raises(ConfigurationError):
        s.adjacency()  # adjacency is a sample-flavor notion


def test_periodic_extent():
    circle = CellSpace.grid([Axis(0.0, 0.25, 8, periodic=True)])
    assert circle.element_diameter(range(8)) == pytest.approx(1.0)  # C/2
    assert circle.element_diameter([0, 1, 2, 3]) == pytest.approx(1.0)
    assert circle.element_diameter([0, 1]) == pytest.approx(0.5)
    # two atoms containing an antipodal pair: full half-circumference
    assert circle.element_diameter([0, 4]) == pytest.approx(1.0)


def test_from_samples_buckets_and_adjacency():
    pts = np.arange(20) * 0.05
    sp = line_space(pts, 0.5)  # bucket radius 0.0625, touch tol 0.0625
    assert not sp.is_grid and sp.n_atoms == 10
    adj = sp.adjacency()
    assert np.array_equal(adj, adj.T) and adj.diagonal().all()
    assert int(adj.sum()) - sp.n_atoms == 18  # consecutive buckets touch
    assert sp.atom_diameter(0) == pytest.approx(0.05)


def test_from_samples_rejects_leader_radius_blowup():
    # both 0.5 and -0.5 join the leader at 0, stretching the bucket to the
    # full max_diam
    pts = np.array([0.0, 0.5, -0.5])
    dmat = np.abs(pts[:, None] - pts[None, :])
    with pytest.raises(ResolutionError):
        CellSpace.from_samples(dmat, max_diam=1.0, adj_tol=0.1)


# ---------------------------------------------------------------------------
# covers and their stats


def test_singleton_cover_stats():
    s = CellSpace.cube_grid(1, 8)
    cov = CellCover(space=s, elements=(frozenset(range(8)),))
    assert cover_stats(cov) == (pytest.approx(2.0), 1)


def test_two_half_cover_stats_and_projection():
    # [-1, 0.1] and [-0.1, 1] on a 20-atom grid: mesh 1.1, two sheets deep
    s = CellSpace.cube_grid(1, 20)
    cov = CellCover(
        space=s, elements=(frozenset(range(0, 11)), frozenset(range(9, 20)))
    )
    mesh, mult = cover_stats(cov)
    assert mesh == pytest.approx(1.1) and mult == 2
    nerve, W = nerve_and_projection(cov)
    assert nerve.dimension == 1
    assert nerve.maximal_simplices == (frozenset({0, 1}),)
    assert np.allclose(W.sum(axis=1), 1.0) and (W >= 0).all()
    assert np.allclose(W[0], [1.0, 0.0]) and np.allclose(W[19], [0.0, 1.0])
    assert np.allclose(W[9], [0.75, 0.25]) and np.allclose(W[10], [0.25, 0.75])


def test_cover_stats_rejects_uncovered_atoms():
    s = CellSpace.cube_grid(1, 8)
    cov = CellCover(space=s, elements=(frozenset({0, 1, 2}),))
    with pytest.raises(CoverError, match="uncovered"):
        cover_stats(cov)


def test_staircase_line():
    s = CellSpace.cube_grid(1, 8)
    cov = staircase_cover(s, 0.9)
    assert cover_stats(cov) == (pytest.approx(0.75), 2)
    assert len(cov.elements) == 3


def test_staircase_running_bond():
    cov = staircase_cover(CellSpace.cube_grid(2, 6), 0.9)
    assert cover_stats(cov) == (pytest.approx(2 / 3), 3)
    assert len(cov.elements) == 10
    # same brick size on the finer 10x10 grid: 0.8-bricks, still 3 deep
    cov10 = staircase_cover(CellSpace.cube_grid(2, 10), 0.9)
    assert cover_stats(cov10) == (pytest.approx(0.8), 3)
    assert len(cov10.elements) == 9


def test_staircase_three_dim():
    cov = staircase_cover(CellSpace.cube_grid(3, 10), 0.9)
    mesh, mult = cover_stats(cov)
    assert mesh == pytest.approx(0.8) and mult == 4
    assert len(cov.elements) == 29


def test_staircase_with_periodic_axis():
    mixed = CellSpace.grid(
        [Axis(-1.0, 0.25, 8), Axis(0.0, 0.25, 8, periodic=True)]
    )
    cov = staircase_cover(mixed, 0.9)
    assert cover_stats(cov) == (pytest.approx(0.75), 3)
    assert len(cov.elements) == 10


def test_staircase_multiplicity_grows_as_eps_shrinks():
    s = CellSpace.cube_grid(2, 6)
    assert cover_stats(staircase_cover(s, 0.45)) == (pytest.approx(1 / 3), 4)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.integers(min_value=1, max_value=2),
    counts=st.integers(min_value=3, max_value=9),
    eps_num=st.integers(min_value=5, max_value=18),
)
def test_staircase_always_valid(dims, counts, eps_num):
    s = CellSpace.cube_grid(dims, counts)
    eps = eps_num / 10
    if eps <= s.max_atom_diameter():
        return
    mesh, mult = cover_stats(staircase_cover(s, eps))
    assert mesh < eps and mult >= 1


# ---------------------------------------------------------------------------
# min_multiplicity


def test_min_multiplicity_argument_checks():
    s = CellSpace.cube_grid(1, 8)
    with pytest.raises(ConfigurationError):
        min_multiplicity(s, 0.0)
    with pytest.raises(ConfigurationError):
        min_multiplicity(s, 0.9, mode="anneal")
    with pytest.raises(ResolutionError):
        min_multiplicity(s, 0.25)  # equals the atom diameter


def test_trivial_when_eps_exceeds_diameter():
    s = CellSpace.cube_grid(2, 6)
    res = min_multiplicity(s, 10.0)
    assert res.widim_upper == 0 and res.certified_lower == 0
    assert res.cover.elements == (frozenset(range(36)),)


def test_widim_line_greedy_and_exact():
    s = CellSpace.cube_grid(1, 8)
    greedy = min_multiplicity(s, 0.9)
    assert greedy.widim_upper == 1 and greedy.certified_lower is None

    exact = min_multiplicity(s, 0.9, mode="exact")
    assert exact.widim_upper == 1 and exact.certified_lower == 1
    assert exact.flag == "" and 0 < exact.nodes < 100

    # exhaustive subset dictionary certifies the same floor
    subs = min_multiplicity(s, 0.9, mode="exact", dictionary="atoms")
    assert (subs.widim_upper, subs.certified_lower) == (1, 1)
    assert subs.dictionary == "atoms"


def test_widim_square_exact():
    s = CellSpace.cube_grid(2, 6)
    res = min_multiplicity(s, 0.9, mode="exact")
    assert res.widim_upper == 2 and res.certified_lower == 2
    assert res.nodes == 2155 and res.flag == ""


def test_exact_budget_exhaustion_degrades_to_upper_only():
    s = CellSpace.cube_grid(2, 6)
    res = min_multiplicity(s, 0.9, mode="exact", budget=50)
    assert res.widim_upper == 2  # staircase fallback
    assert res.certified_lower is None and res.flag == "upper-only"


def _reference_search_cover(space, boxes, t, budget_left):
    """Find a dictionary cover with vertex multiplicity <= t, or refute."""
    counts = np.zeros(int(np.prod(_vertex_shape(space))), dtype=np.int32)
    covered = np.zeros(space.n_atoms, dtype=np.int32)
    atom_boxes = [[] for _ in range(space.n_atoms)]
    for bi, (mask, _) in enumerate(boxes):
        for a in np.nonzero(mask)[0]:
            atom_boxes[a].append(bi)

    def dfs():
        budget_left[0] -= 1
        if budget_left[0] < 0:
            raise _Budget
        open_atoms = np.nonzero(covered == 0)[0]
        if len(open_atoms) == 0:
            return []
        best_cand = None
        for a in open_atoms:
            cand = [
                bi
                for bi in atom_boxes[a]
                if int(counts[boxes[bi][1]].max()) < t
            ]
            if not cand:
                return None
            if best_cand is None or len(cand) < len(best_cand):
                best_cand = cand
                if len(cand) == 1:
                    break
        best_cand.sort(key=lambda bi: -int((boxes[bi][0] & (covered == 0)).sum()))
        for bi in best_cand:
            mask, vmask = boxes[bi]
            counts[vmask] += 1
            covered[mask] += 1
            sub = dfs()
            if sub is not None:
                return [bi] + sub
            counts[vmask] -= 1
            covered[mask] -= 1
        return None

    chosen = dfs()
    if chosen is None:
        return None
    return [np.nonzero(boxes[bi][0])[0] for bi in chosen]


def _t_loop(search, space, eps, budget):
    """The exact mode's loop over t: per-t outcomes and nodes used."""
    upper = cover_stats(_prune_redundant(staircase_cover(space, eps)))[1]
    budget_left = [budget]
    outcomes = []
    for t in range(1, upper + 1):
        try:
            found = search(t, budget_left)
        except _Budget:
            outcomes.append("budget")
            break
        outcomes.append(found)
        if found is not None:
            break
    return outcomes, budget - budget_left[0]


def _check_search_matches_reference(space, eps, dictionary, budget):
    # same outcome per t, same chosen boxes in order, same node count
    build = _box_dictionary if dictionary == "boxes" else _subset_dictionary
    boxes = build(space, eps)
    box_id = {tuple(np.nonzero(mask)[0]): bi for bi, (mask, _) in enumerate(boxes)}

    def reference(t, budget_left):
        found = _reference_search_cover(space, boxes, t, budget_left)
        return None if found is None else [box_id[tuple(e)] for e in found]

    index = _SearchIndex.of(boxes)
    got = _t_loop(lambda t, left: _search_cover(index, t, left), space, eps, budget)
    assert got == _t_loop(reference, space, eps, budget)
    outcomes, _ = got
    # every case ends in a cover, except the cut-off budgets
    assert (outcomes[-1] == "budget") == (budget < 200_000)
    assert outcomes[-1] is not None


@pytest.mark.parametrize(
    "dim, cells, eps, dictionary, budget",
    [
        (1, 8, 0.9, "boxes", 200_000),
        (2, 4, 0.9, "boxes", 200_000),
        (2, 5, 0.9, "boxes", 200_000),
        (2, 6, 0.9, "boxes", 200_000),
        (1, 12, 0.5, "boxes", 200_000),
        (1, 8, 0.9, "atoms", 200_000),
        (2, 6, 0.9, "boxes", 50),
        (2, 6, 0.9, "boxes", 2000),
        # 125 vertices: the vertex bitsets are wider than one machine word
        (3, 4, 0.9, "boxes", 200_000),
    ],
)
def test_search_cover_matches_reference(dim, cells, eps, dictionary, budget):
    space = CellSpace.cube_grid(dim, cells)
    _check_search_matches_reference(space, eps, dictionary, budget)


@pytest.mark.parametrize(
    "cells, weights, budget",
    [(5, (1.0, 0.6), 200_000), (6, (1.0, 0.5), 3000), (6, (0.5, 1.0), 50)],
)
def test_search_cover_matches_reference_unequal_weights(cells, weights, budget):
    space = CellSpace.cube_grid(2, cells, weights=weights)
    _check_search_matches_reference(space, 0.9, "boxes", budget)


def _reference_box_dictionary(space, eps):
    """One box at a time, as (atom mask, vertex mask), biggest first."""
    per_axis = []
    for ax in space.axes:
        unit = ax.width * ax.weight
        per_axis.append(
            [
                (a, b)
                for a in range(ax.count)
                for b in range(a, ax.count)
                if (b - a + 1) * unit < eps
            ]
        )
    boxes = []
    for combo in itertools.product(*per_axis):
        mask = np.zeros(space.shape, dtype=bool)
        mask[tuple(slice(a, b + 1) for a, b in combo)] = True
        # a closed box [a, b] touches the vertices a .. b + 1 on each axis
        vmask = np.zeros(_vertex_shape(space), dtype=bool)
        vmask[tuple(slice(a, b + 2) for a, b in combo)] = True
        boxes.append((mask.reshape(-1), vmask.reshape(-1)))
    boxes.sort(key=lambda bx: -int(bx[0].sum()))
    return boxes


@pytest.mark.parametrize(
    "dim, cells, eps, weights",
    [
        (1, 8, 0.9, None),
        (2, 6, 0.9, None),
        (3, 4, 1.1, None),
        (2, 6, 0.9, (1.0, 0.5)),
        (3, 5, 0.9, (1.0, 0.7, 0.4)),
    ],
)
def test_box_dictionary_matches_reference(dim, cells, eps, weights):
    space = CellSpace.cube_grid(dim, cells, weights=weights)
    got = _box_dictionary(space, eps)
    want = _reference_box_dictionary(space, eps)
    assert len(got) == len(want)
    for (mask, vmask), (ref_mask, ref_vmask) in zip(got, want):
        assert np.array_equal(mask, ref_mask) and np.array_equal(vmask, ref_vmask)


def test_exact_mode_guards():
    mixed = CellSpace.grid([Axis(0.0, 0.25, 8, periodic=True)])
    with pytest.raises(ConfigurationError):
        min_multiplicity(mixed, 0.9, mode="exact")
    big = CellSpace.cube_grid(2, 6)
    with pytest.raises(ConfigurationError):
        min_multiplicity(big, 0.9, mode="exact", dictionary="atoms")  # 36 > 16
    with pytest.raises(ConfigurationError):
        min_multiplicity(big, 0.9, mode="exact", dictionary="prisms")


def test_widim_monotone_under_subspace():
    # [-1, -0.5] sits inside [-1, 1]; its widim at 0.9 cannot exceed the
    # cube's
    small = CellSpace.grid([Axis(-1.0, 0.25, 2)])
    full = CellSpace.cube_grid(1, 8)
    assert (
        min_multiplicity(small, 0.9).widim_upper
        <= min_multiplicity(full, 0.9).widim_upper
    )


def test_widim_product_subadditive_anchors():
    w1 = min_multiplicity(CellSpace.cube_grid(1, 8), 0.9).widim_upper
    w2 = min_multiplicity(CellSpace.cube_grid(2, 6), 0.9).widim_upper
    w3 = min_multiplicity(CellSpace.cube_grid(3, 10), 0.9).widim_upper
    assert (w1, w2, w3) == (1, 2, 3)
    assert w2 <= 2 * w1 and w3 <= w1 + w2


def test_result_to_json():
    res = min_multiplicity(CellSpace.cube_grid(1, 8), 0.9, mode="exact")
    assert res.to_json(0.9) == {
        "atoms": 8,
        "eps": 0.9,
        "mode": "exact",
        "widim_upper": 1,
        "certified_lower": 1,
        "flag": "",
        "dictionary": "boxes",
    }


# ---------------------------------------------------------------------------
# sample flavor


def test_sample_chain_has_depth_two():
    sp = line_space(np.arange(20) * 0.05, 0.5)
    res = min_multiplicity(sp, 0.5)
    assert res.widim_upper == 1
    mesh, mult = cover_stats(res.cover)
    assert mesh == pytest.approx(0.45) and mult == 2
    nerve, W = nerve_and_projection(res.cover)
    assert nerve.dimension == 1
    assert nerve.maximal_simplices == (frozenset({0, 1}),)
    assert np.allclose(W.sum(axis=1), 1.0)


def test_sample_sparse_line_is_zero_dimensional():
    sp = line_space([0.0, 0.3, 0.6, 0.9], 0.65)
    for mode in ("greedy", "local_search"):
        res = min_multiplicity(sp, 0.65, mode=mode)
        assert res.widim_upper == 0
    nerve, _ = nerve_and_projection(min_multiplicity(sp, 0.65).cover)
    assert nerve.dimension == 0
    assert len(nerve.maximal_simplices) == 2
    assert nerve.is_simplex({0}) and not nerve.is_simplex({0, 1})


def _reference_bucket_min_dist(space):
    B = len(space.buckets)
    out = np.zeros((B, B))
    for a in range(B):
        ia = np.fromiter(space.buckets[a], dtype=np.int64)
        for b in range(a + 1, B):
            ib = np.fromiter(space.buckets[b], dtype=np.int64)
            out[a, b] = out[b, a] = space.dmat[np.ix_(ia, ib)].min()
    return out


def _reference_bucket_diam(space, bucket):
    ids = np.fromiter(bucket, dtype=np.int64)
    return float(space.dmat[np.ix_(ids, ids)].max())


def _reference_greedy_cover(space, eps, order):
    """Leader growth with one gather per candidate bucket."""
    bmin = _reference_bucket_min_dist(space)
    B = space.n_atoms
    diam = np.array([_reference_bucket_diam(space, b) for b in space.buckets])
    assigned = np.zeros(B, dtype=bool)
    elements = []
    pts = [np.fromiter(b, dtype=np.int64) for b in space.buckets]
    for seed in order:
        if assigned[seed]:
            continue
        E = [int(seed)]
        epts = pts[seed]
        assigned[seed] = True
        for b in np.argsort(bmin[seed]):
            if assigned[b] or b == seed:
                continue
            cand = float(space.dmat[np.ix_(epts, pts[b])].max())
            if max(cand, diam[b]) < eps:
                E.append(int(b))
                epts = np.concatenate([epts, pts[b]])
                assigned[b] = True
        elements.append(frozenset(E))
    return elements


def _random_sample_space(seed, kind):
    """Sup distances of random plane points, rounded asymmetrically at the
    1e-12 level (within the dmat symmetry tolerance), over buckets of one
    kind: leader buckets of from_samples, a random partition into runs,
    all singletons, or one bucket."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    pts = rng.random((n, 2))
    dmat = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    noise = rng.random((n, n)) * 1e-12
    np.fill_diagonal(noise, 0.0)
    dmat = dmat + noise
    adj_tol = float(rng.uniform(0.05, 0.3))
    if kind == "leader":
        return CellSpace.from_samples(dmat, max_diam=0.2, adj_tol=adj_tol)
    if kind == "singletons":
        buckets = tuple((i,) for i in range(n))
    elif kind == "one":
        buckets = (tuple(rng.permutation(n).tolist()),)
    else:
        perm = rng.permutation(n).tolist()
        cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, n // 3), replace=False))
        buckets = tuple(tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n]))
    return CellSpace(dmat=dmat, buckets=buckets, adj_tol=adj_tol)


@pytest.mark.parametrize("kind", ["leader", "runs", "singletons", "one"])
@pytest.mark.parametrize("seed", range(6))
def test_bucket_metric_matches_reference(seed, kind):
    space = _random_sample_space(seed, kind)
    bmin, bmax = space._bucket_dists
    ref_min = _reference_bucket_min_dist(space)
    assert np.array_equal(bmin, ref_min)
    diam = [_reference_bucket_diam(space, b) for b in space.buckets]
    assert np.array_equal(bmax.diagonal(), diam)
    assert [space.atom_diameter(a) for a in range(space.n_atoms)] == diam
    assert space.max_atom_diameter() == max(diam)
    for a, ia in enumerate(space.buckets):
        for b, ib in enumerate(space.buckets):
            assert bmax[a, b] == space.dmat[np.ix_(ia, ib)].max()
    assert np.array_equal(space.adjacency(), ref_min <= space.adj_tol)


@pytest.mark.parametrize("kind", ["leader", "singletons"])
@pytest.mark.parametrize("seed", range(6))
def test_greedy_cover_matches_reference(seed, kind):
    # the identity order and 12 seeded permutations, drawn as local_search
    # draws its restarts
    space = _random_sample_space(seed, kind)
    eps = float(space.max_atom_diameter()) + 0.3
    rng = np.random.default_rng(seed)
    orders = [np.arange(space.n_atoms)]
    orders += [rng.permutation(space.n_atoms) for _ in range(12)]
    for order in orders:
        got = _greedy_sample_cover(space, eps, order).elements
        assert list(got) == _reference_greedy_cover(space, eps, order)


def _reference_element_diameter(space, atoms):
    """The diameter of an atom union of a sample space over its points."""
    pts = np.concatenate([space.buckets[a] for a in atoms]).astype(np.int64)
    return float(space.dmat[np.ix_(pts, pts)].max())


def _reference_projection(cover):
    """The barycentric weights of ``nerve_and_projection`` on a sample
    space, one generator step per (atom, element, outside bucket)."""
    space = cover.space
    mesh, _ = cover_stats(cover)
    A = space.n_atoms
    clamp = mesh / 2 if mesh > 0 else 1.0
    W = np.zeros((A, len(cover.elements)))
    for e, el in enumerate(cover.elements):
        outside = sorted(set(range(A)) - el)
        for a in el:
            if not outside:
                W[a, e] = clamp
            else:
                rep = space.buckets[a][0]
                d = min(space.dmat[rep, space.buckets[b][0]] for b in outside)
                W[a, e] = min(d, clamp)
    for a in range(A):
        if W[a].sum() <= 0:
            for e, el in enumerate(cover.elements):
                if a in el:
                    W[a, e] = 1.0
    return W / W.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind", ["leader", "runs", "singletons", "one"])
@pytest.mark.parametrize("seed", range(6))
def test_element_diameter_matches_reference(seed, kind):
    space = _random_sample_space(seed, kind)
    B = space.n_atoms
    rng = np.random.default_rng([seed, B])
    subsets = [list(range(B)), [0], [B - 1, 0], [0, 0]]
    subsets += [rng.choice(B, size=int(rng.integers(1, B + 1)), replace=False).tolist()
                for _ in range(12)]
    for atoms in subsets:
        want = _reference_element_diameter(space, atoms)
        assert space.element_diameter(atoms) == want
        assert space.element_diameter(frozenset(atoms)) == want


@pytest.mark.parametrize("kind", ["leader", "runs", "singletons", "one"])
@pytest.mark.parametrize("seed", range(6))
def test_projection_matches_reference(seed, kind):
    # the greedy cover, the same cover grown by adjacent buckets (overlapping
    # elements, nerves up to dimension 7) and the one-element cover
    space = _random_sample_space(seed, kind)
    cover = min_multiplicity(space, float(space.max_atom_diameter()) + 0.3).cover
    adj = space.adjacency()
    grown = tuple(
        frozenset(int(b) for a in el for b in np.flatnonzero(adj[a])) for el in cover.elements
    )
    whole = (frozenset(range(space.n_atoms)),)
    for elements in (cover.elements, grown, whole):
        c = CellCover(space, elements)
        _, W = nerve_and_projection(c)
        assert W.tobytes() == _reference_projection(c).tobytes()


def test_from_samples_resolution_message():
    # the second bucket {10, 10.5, 9.5} is the first one too wide
    pts = np.array([0.0, 10.0, 10.5, 9.5, 20.0])
    dmat = np.abs(pts[:, None] - pts[None, :])
    with pytest.raises(ResolutionError) as err:
        CellSpace.from_samples(dmat, max_diam=1.0, adj_tol=0.1)
    assert str(err.value) == "bucket diameter 1 >= 1"


# ---------------------------------------------------------------------------
# orbit samples and the estimate


def test_widim_orbit_trivial_and_checks():
    xs = sample_points(SYS, 12, seed=5)
    assert widim_orbit(xs, 2, 10.0) == 0
    with pytest.raises(ConfigurationError):
        widim_orbit(xs, 0, 0.5)
    with pytest.raises(ConfigurationError):
        widim_orbit([], 1, 0.5)


def test_widim_orbit_random_samples_stay_sparse():
    # random points of the product system sit far apart in every Bowen
    # metric: the bucketed space is a disjoint union, so the estimate is 0.
    # Orbit sampling earns its keep on image and fibre spaces instead.
    xs = sample_points(SYS, 40, seed=2)
    vals = [widim_orbit(xs, n, 0.5) for n in (1, 2)]
    assert vals == [0, 0]
    assert widim_orbit(xs, 2, 0.5) == vals[1]  # deterministic


def test_mdim_estimate_linear_series():
    est = mdim_estimate({1: 1, 2: 2, 3: 3}, eps=0.5)
    assert est.value == pytest.approx(1.0)
    assert est.last_slope == pytest.approx(1.0)
    assert est.per_n == ((1, 1.0), (2, 1.0), (3, 1.0))


def test_mdim_estimate_zero_series():
    est = mdim_estimate({2: 0, 4: 0, 6: 0}, eps=0.5)
    assert est.value == 0.0 and est.last_slope == 0.0


def test_mdim_estimate_validation():
    with pytest.raises(ConfigurationError):
        mdim_estimate({1: 1, 2: 2}, eps=0.5)
    with pytest.raises(ConfigurationError):
        mdim_estimate({1: 1, 2: 2, 0: 1}, eps=0.5)


# ---------------------------------------------------------------------------
# pattern bound


def test_tau_for_halving_metric():
    assert tau_for(0.25, 0.5) == 2
    assert tau_for(0.125, 0.5) == 3
    assert tau_for(0.9, 0.5) == 0
    with pytest.raises(ConfigurationError):
        tau_for(0.0, 0.5)
    with pytest.raises(ConfigurationError):
        tau_for(0.25, 1.0)


def test_pattern_cover_bound_anchor():
    assert pattern_cover_bound(SYS, 12, 0.25) == 17
    assert pattern_series(SYS, [1, 12], 0.25) == {1: 6, 12: 17}
    with pytest.raises(ConfigurationError):
        pattern_cover_bound(SYS, 0, 0.25)
    with pytest.raises(ConfigurationError):
        pattern_cover_bound(SYS, 3, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
)
def test_pattern_bound_subadditive(n, m):
    P = lambda k: pattern_cover_bound(SYS, k, 0.25)
    assert P(n + m) <= P(n) + P(m)


def test_simplex_carrier_size_values():
    assert simplex_carrier_size(np.array([0.3, 0.7, 0.1])) == 4
    assert simplex_carrier_size(np.array([0.5, 0.5])) == 2
    assert simplex_carrier_size(np.array([0.0, 0.0])) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
def test_simplex_carrier_size_bound(coords):
    assert 1 <= simplex_carrier_size(np.array(coords)) <= len(coords) + 1


# ---------------------------------------------------------------------------
# sequence-space metrics


def test_seq_pad():
    assert seq_pad(0.25, 0.5) == 8
    assert seq_pad(0.5, 0.5) == 7


def test_seq_bowen_dmat_constant_rows():
    # eps 0.25 demands the window [-8, 9] at horizon 2; two constant
    # sequences 0 and 1 sit at sup distance exactly 1
    seqs = np.stack([np.zeros(18), np.ones(18)])
    dmat = seq_bowen_dmat(seqs, lo=-8, n=2, decay=0.5, eps=0.25)
    assert dmat[0, 1] == dmat[1, 0] == 1.0
    assert dmat[0, 0] == dmat[1, 1] == 0.0


def test_seq_bowen_dmat_needs_wide_windows():
    seqs = np.zeros((2, 5))
    with pytest.raises(ResolutionError):
        seq_bowen_dmat(seqs, lo=0, n=2, decay=0.5, eps=0.25)


def test_seq_bowen_dmat_random_symmetry():
    rng = np.random.default_rng(0)
    seqs = rng.random((6, 24))
    dmat = seq_bowen_dmat(seqs, lo=-10, n=3, decay=0.5, eps=0.25)
    assert np.array_equal(dmat, dmat.T)
    assert (dmat >= 0).all() and np.allclose(np.diag(dmat), 0.0)


# ---------------------------------------------------------------------------
# nerve


def test_nerve_of_singleton_cover():
    s = CellSpace.cube_grid(1, 8)
    cov = CellCover(space=s, elements=(frozenset(range(8)),))
    nerve, W = nerve_and_projection(cov)
    assert nerve.dimension == 0 and nerve.n_vertices == 1
    assert W.shape == (8, 1) and np.allclose(W, 1.0)


def test_nerve_of_running_bond_is_two_dimensional():
    cov = staircase_cover(CellSpace.cube_grid(2, 6), 0.9)
    nerve, W = nerve_and_projection(cov)
    assert nerve.dimension == 2
    assert nerve.n_vertices == len(cov.elements)
    assert np.allclose(W.sum(axis=1), 1.0) and (W >= 0).all()
