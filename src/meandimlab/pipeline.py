"""End-to-end verification runs.

Resolves a configuration, builds the marker / tiling / signal stack,
synthesizes the block oracle, checks every structural guarantee on sampled
data, and emits a reproducible report.  The per-lemma suite runners
(tiling_suite, phi_suite, band_suite) are plain functions over resolved
parameters so the same code drives both the pipeline (small sample counts)
and the heavier standalone acceptance suites.

Stage order (STAGES, then the comparison): parameters -> marker -> tiling
-> phi -> fmap -> band -> fiber -> comparison.  A ConfigurationError
anywhere propagates with the stage name prefixed (still a configuration
error); a violated runtime invariant is wrapped into PipelineError carrying
the stage and witness.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checks import (
    BAND_RECOVERY,
    BAND_SPARSITY,
    BAND_SUPPORT,
    CENTRAL_TILE,
    COVERAGE,
    EDGE_DENSITY,
    EQUIVARIANCE,
    INTERIOR_MASS,
    NERVE_TRANSFER,
    PLATEAU_BUDGET,
    PRODUCT_BUDGET,
    PROFILE_CAP,
    SEPARATION,
    SURVIVOR_LEVEL,
    TILE_LOCALITY,
    CheckResult,
    CheckSuite,
)
from .config import (
    CERT_CELLS,
    HORIZON_CAP,
    ExperimentConfig,
    ResolvedParams,
    config_to_json,
    resolve,
    resolve_marker,
    resolve_tiling,
    select_factor_numbers,
)
from .dynsys import (
    ConfigurationError,
    OrbitWindow,
    SystemSpec,
    WindowExhaustionError,
    bowen_dmat,
    sample_points,
    sup_dmat,
)
from .fibre import (
    FiberError,
    FMapConstruction,
    build_fmap,
    check_fiber_bound,
    check_nerve_transfer,
    fiber_width_chain,
    verify_fiber_bound,
)
from .marker import (
    MarkerConstructionError,
    MarkerSpec,
    check_coverage as marker_gap_check,
    check_separation as marker_separation_check,
    gap_histogram,
    marker_sequence,
    support_window_for,
)
from .signal import (
    FactorImage,
    SignalError,
    SignalParams,
    check_band_recovery,
    check_band_sparsity,
    check_band_support,
    check_plateau_budget,
    check_profile_cap,
    factor_context,
    factor_image,
    plateau_report,
    separation_report,
    sparse_phi,
)
from .tiling import (
    TilingError,
    TilingParams,
    check_central_tile,
    check_coverage as tiling_coverage_check,
    check_edge_density,
    check_equivariance,
    check_interior_mass,
    check_survivor_level,
    check_tile_locality,
    tiling_pair,
)
from .widim import (
    CellSpace,
    CoverError,
    ResolutionError,
    mdim_estimate,
    min_multiplicity,
    pattern_cover_bound,
    pattern_series,
    sample_space_from_dmat,
    seq_bowen_dmat,
    seq_pad,
    tau_for,
)


class PipelineError(RuntimeError):
    """A structural guarantee failed while running; carries the stage."""

    def __init__(self, stage: str, message: str, witness=None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.witness = witness


_RUNTIME_FAILURES = (
    WindowExhaustionError,
    MarkerConstructionError,
    TilingError,
    SignalError,
    FiberError,
    ResolutionError,
    CoverError,
)


def _stage(name: str, fn):
    """Run one stage with the error policy described in the module docstring."""
    try:
        return fn()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc
    except PipelineError:
        raise
    except _RUNTIME_FAILURES as exc:
        raise PipelineError(name, str(exc)) from exc


# ---------------------------------------------------------------------------
# the block oracle


@dataclass(frozen=True)
class StarMap:
    """Block oracle F: X -> [0,1]^(m-1) used by the band coordinate.

    Linear on the vertex stars of a scaled simplicial grid over the
    coordinates the metric still resolves at eps_half: the cube block
    [-tau, n_horizon-1+tau] and the circle coordinate (wrapped on its own
    lattice).  Carrier vertices map to seeded uniform draws; the value is
    their barycentric combination, so the map is continuous, total, and a
    pure function of (seed, point) — byte-reproducible across runs.
    """

    system: SystemSpec
    eps_half: float
    n_horizon: int
    m: int
    seed: int = 0
    # vertex key -> its draw; F stays a pure function of (seed, point)
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise ConfigurationError("block parameter m must be >= 2")
        if not 0.0 < self.eps_half < 1.0:
            raise ConfigurationError("eps_half must lie in (0, 1)")
        if self.n_horizon < 1:
            raise ConfigurationError("n_horizon must be >= 1")

    @property
    def tau(self) -> int:
        return tau_for(self.eps_half, self.system.decay)

    @property
    def step(self) -> float:
        """Cube lattice step; a vertex star then has sup-diameter eps_half/2."""
        return self.eps_half / 4.0

    @property
    def circle_cells(self) -> int:
        return math.ceil(4.0 / self.eps_half)

    @property
    def bound(self) -> float:
        """Fiber width target per block: star-nerve dimension over m."""
        return pattern_cover_bound(self.system, self.n_horizon, self.eps_half) / self.m

    def _vertex_image(self, key: tuple) -> np.ndarray:
        """The draw of default_rng([seed, m, *key]).  SeedSequence takes an
        int in [0, 2^32) as one uint32 word, so entries in that range are
        passed as one uint32 array, which it reads without a Python-level
        loop; others keep the list (split into words, or rejected)."""
        image = self._images.get(key)
        if image is None:
            entropy = [self.seed, self.m, *key]
            if 0 <= min(entropy) and max(entropy) < 2**32:
                entropy = np.array(entropy, dtype=np.uint32)
            rng = np.random.default_rng(entropy)
            image = self._images[key] = rng.random(self.m - 1)
        return image

    def batch(self, x: OrbitWindow, starts) -> np.ndarray:
        """F(T^s x) for every block start s: one (len(starts), m-1) array.

        One gather of the cube blocks (zero outside the stored window, as in
        ``cube_block``) and one row-wise stable sort of the fractional parts
        give every point's Kuhn carrier: vertex k steps from floor(p) by one
        unit along each of the k largest fractional parts, and the weights
        are the gaps between consecutive sorted parts, padded with 1 - max
        and min.  Vertices are drawn only where the weight is positive and
        summed in carrier order; a zero weight adds an exact 0.0, so each
        row is bitwise the one-point value.
        """
        starts = np.asarray(starts, dtype=np.int64)
        S, tau, L = len(starts), self.tau, self.circle_cells
        if S == 0:
            return np.zeros((0, self.m - 1))
        rows = starts[:, None] + np.arange(-tau, self.n_horizon + tau) + (x.offset + x.radius)
        stored = (rows >= 0) & (rows < len(x.cube))
        block = np.where(stored[..., None], x.cube[np.clip(rows, 0, len(x.cube) - 1)], 0.0)
        d = block[0].size + 1
        p = np.empty((S, d))
        p[:, :-1] = block.reshape(S, -1) / self.step
        # int / int rounds once, exactly as circle_point does
        q = x.spec.q
        p[:, -1] = [x.circle_numerator(int(s)) / q * L for s in starts]

        base = np.floor(p).astype(np.int64)
        f = p - base
        order = np.argsort(-f, axis=1, kind="stable")
        fs = np.take_along_axis(f, order, axis=1)
        w = np.empty((S, d + 1))
        w[:, 0] = 1.0 - fs[:, 0]
        w[:, 1:-1] = fs[:, :-1] - fs[:, 1:]
        w[:, -1] = fs[:, -1]
        steps = np.zeros((S, d + 1, d), dtype=np.int64)
        steps[np.arange(S)[:, None], np.arange(1, d + 1), order] = 1
        verts = base[:, None, :] + np.cumsum(steps, axis=1)
        verts[..., -1] %= L  # the circle coordinate wraps on its own lattice

        live = w > 0.0
        terms = np.zeros((S, d + 1, self.m - 1))
        terms[live] = [self._vertex_image(tuple(v)) for v in verts[live].tolist()]
        terms *= w[..., None]
        # accumulate adds left to right, as the one-point loop does
        return np.add.accumulate(terms, axis=1)[:, -1]

    def __call__(self, x: OrbitWindow) -> np.ndarray:
        return self.batch(x, [0])[0]


def _star_transfer(pool, F, eps: float, horizon: int) -> CheckResult:
    """Image separation of far-apart pool points under the block oracle.

    The smallest sup-difference of F over pairs at Bowen distance >= eps;
    a positive gap means image closeness below it certifies eps-closeness
    on the sampled points, mirroring the transfer radius of the
    nerve-based construction.
    """
    vals = np.stack([np.asarray(F(x), dtype=np.float64) for x in pool])
    far = bowen_dmat(pool, horizon) >= eps
    if not far.any():
        return CheckResult(NERVE_TRANSFER, True, "vacuous: no sampled pair at eps")
    dt = float(sup_dmat(vals)[far].min())
    return CheckResult(
        NERVE_TRANSFER, dt > 0.0, f"image gap {dt:.6g} over eps-separated pairs"
    )


# ---------------------------------------------------------------------------
# suite runners


def tiling_suite(
    mspec: MarkerSpec,
    tparams: TilingParams,
    samples: int,
    seed: int = 0,
    window: tuple[float, float] | None = None,
) -> tuple[dict[str, CheckSuite], "object"]:
    """Every tiling guarantee over freshly sampled points.

    Each instance derives the marker sequence of one sampled point, builds
    both slices over the window, and runs the per-tiling checks plus an
    equivariance comparison at a random shift.  Returns the suites keyed by
    check id and the first base tiling (for plot emission).
    """
    if samples < 1:
        raise ConfigurationError("need at least one instance")
    if window is None:
        window = (float(-(tparams.K + 64)), float(tparams.K + 64))
    ids = (
        TILE_LOCALITY,
        SURVIVOR_LEVEL,
        COVERAGE,
        INTERIOR_MASS,
        EDGE_DENSITY,
        CENTRAL_TILE,
        EQUIVARIANCE,
    )
    suites = {cid: CheckSuite(cid) for cid in ids}
    rng = np.random.default_rng([seed, samples])
    s_lo, s_hi = support_window_for(
        mspec, math.floor(window[0]), math.ceil(window[1])
    )
    first = None
    for x in sample_points(mspec.system, samples, seed):
        seq = marker_sequence(mspec, x, s_lo, s_hi)
        t_base, t_deep = tiling_pair(seq, tparams, window)
        if first is None:
            first = t_base
        for res in (
            check_tile_locality(t_base),
            check_survivor_level(t_base),
            tiling_coverage_check(t_base),
            check_interior_mass(t_base, t_deep),
            check_edge_density(t_base),
            check_central_tile(t_base, t_deep, tparams),
            check_equivariance(seq, tparams, int(rng.integers(-8, 9))),
        ):
            suites[res.check_id].add(res.passed, witness=res.witness)
    return suites, first


def phi_suite(
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
    samples: int,
    N: int,
    eps: float,
    seed: int = 0,
    budget: float | None = None,
    z_horizons=range(3, 9),
    z_windows: int = 64,
) -> tuple[dict[str, CheckSuite], CheckResult, dict]:
    """Profile-cap, plateau and separation checks over sampled phi windows
    of length N, plus the image-width estimate.

    The width estimate draws fixed-length segments of the computed images
    at random offsets and runs the Bowen-metric widim estimator over the
    given horizons; its value is an upper estimate for the image system.
    """
    if budget is None:
        budget = tparams.delta
    h_hi = max(z_horizons)
    pad = seq_pad(eps, mspec.system.decay)
    if N < h_hi + 2 * pad + 1:
        raise ConfigurationError(f"window N={N} too short for horizons {h_hi}")
    suites = {cid: CheckSuite(cid) for cid in (PROFILE_CAP, PLATEAU_BUDGET)}
    rng = np.random.default_rng([seed, N, samples])
    per = -(-z_windows // samples)
    segments = []
    free_max = 0.0
    for x in sample_points(mspec.system, samples, seed):
        ctx = factor_context(x, mspec, tparams, sparams, (0, N - 1))
        img = sparse_phi(ctx, sparams)
        res = check_profile_cap(img, ctx, sparams)
        suites[PROFILE_CAP].add(res.passed, witness=res.witness)
        free, _blocks = plateau_report(ctx, img, sparams)
        free_max = max(free_max, free)
        res = check_plateau_budget(free, budget)
        suites[PLATEAU_BUDGET].add(res.passed, margin=budget - free)
        for s in rng.integers(pad, N - h_hi - pad + 1, size=per):
            segments.append(img.segment(int(s) - pad, int(s) + h_hi + pad - 1))
    seqs = np.stack(segments[:z_windows])
    series = {}
    for h in z_horizons:
        dmat = seq_bowen_dmat(seqs, -pad, int(h), mspec.system.decay, eps)
        if dmat.max() <= eps:
            series[int(h)] = 0
        else:
            space = sample_space_from_dmat(dmat, eps)
            series[int(h)] = min_multiplicity(space, eps).widim_upper
    est = mdim_estimate(series, eps)
    sep_report, sep_res = separation_report(mspec, tparams, sparams)
    estimates = {
        "free_fraction_max": float(free_max),
        "z_width": {
            "eps": eps,
            "value": est.value,
            "per_n": [[int(n), float(r)] for n, r in est.per_n],
            "windows": int(seqs.shape[0]),
        },
        "separation": sep_report,
    }
    return suites, sep_res, estimates


def band_suite(
    mspec: MarkerSpec,
    tparams: TilingParams,
    sparams: SignalParams,
    F_oracle,
    samples: int,
    N: int,
    seed: int = 0,
    budget: float | None = None,
) -> tuple[dict[str, CheckSuite], FactorImage]:
    """Support, sparsity and recovery of the band coordinate over sampled
    windows [0, N); returns the suites and the first full factor image."""
    if budget is None:
        budget = tparams.delta
    ids = (BAND_SUPPORT, BAND_SPARSITY, BAND_RECOVERY)
    suites = {cid: CheckSuite(cid) for cid in ids}
    first = None
    for x in sample_points(mspec.system, samples, seed):
        ctx = factor_context(x, mspec, tparams, sparams, (0, N - 1))
        fimg = factor_image(ctx, sparams, F_oracle)
        if first is None:
            first = fimg
        count = int(np.count_nonzero(fimg.g_seq))
        for res in (
            check_band_support(ctx, fimg, sparams),
            check_band_sparsity(fimg, budget, N),
            check_band_recovery(ctx, fimg, F_oracle, sparams),
        ):
            margin = (budget * N + 1 - count) / N if res.check_id == BAND_SPARSITY else None
            suites[res.check_id].add(res.passed, margin=margin, witness=res.witness)
    return suites, first


def _clustered_space(
    system: SystemSpec, bases: int, horizon: int, eps: float, seed: int
) -> CellSpace:
    """Sampled Bowen space with deliberate eps-scale clusters so the cover
    nerve of the block-map demonstration has simplices to exercise."""
    rng = np.random.default_rng([seed, bases, horizon])
    samples = []
    reach = max(1, int(system.q * eps / 8.0))
    for x in sample_points(system, bases, seed):
        samples.append(x)
        for _ in range(2):
            cube = np.clip(
                x.cube + rng.uniform(-eps / 2.0, eps / 2.0, size=x.cube.shape),
                0.0,
                1.0,
            )
            num = (x.circle_num + int(rng.integers(0, reach + 1))) % system.q
            samples.append(OrbitWindow(spec=system, cube=cube, circle_num=num))
    return sample_space_from_dmat(bowen_dmat(samples, horizon), eps)


# ---------------------------------------------------------------------------
# reports and artifacts


@dataclass(frozen=True)
class StageReport:
    """One stage's checks and info, as written to report.json, plus the CSV
    tables and the run-level estimates it contributes (not written in the
    stage's own entry)."""

    name: str
    checks: tuple[CheckResult, ...]
    info: dict
    tables: dict = field(repr=False, default_factory=dict)
    estimates: dict = field(repr=False, default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checks": [
                {
                    "id": c.check_id,
                    "passed": bool(c.passed),
                    "detail": c.detail,
                    "witness": None if c.witness is None else str(c.witness),
                }
                for c in self.checks
            ],
            "info": self.info,
        }


def stage_lines(stage: dict) -> list[str]:
    """One console line per check of a stage entry of a report document."""
    out = []
    for c in stage.get("checks", ()):
        line = f"{stage['name']:<12}[{'PASS' if c.get('passed') else 'FAIL'}] {c['id']}"
        out.append(f"{line}: {c['detail']}" if c.get("detail") else line)
    return out


def report_lines(doc: dict) -> list[str]:
    """Console rendering of a report document: the check lines of every
    stage, the comparison verdict and the overall status."""
    out = [line for stage in doc.get("stages", ()) for line in stage_lines(stage)]
    verdict = (doc.get("comparison") or {}).get("verdict")
    if verdict is not None:
        out.append(f"{'comparison':<12}verdict: {verdict}")
    out.append(f"{'overall':<12}{'PASS' if doc.get('passed') else 'FAIL'}")
    return out


@dataclass(frozen=True)
class PipelineReport:
    """Everything one run produced; serializable and deterministic apart
    from the generated_at timestamp."""

    config: dict
    params: dict
    truncations: dict
    stages: tuple[StageReport, ...]
    estimates: dict
    comparison: dict
    generated_at: str
    tables: dict = field(repr=False, default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for s in self.stages for c in s.checks)

    def to_json(self) -> dict:
        return {
            "report_schema": "meandimlab/v1",
            "config": self.config,
            "params": self.params,
            "truncations": self.truncations,
            "stages": [s.to_json() for s in self.stages],
            "estimates": self.estimates,
            "comparison": self.comparison,
            "passed": self.passed,
            "generated_at": self.generated_at,
        }

    def lines(self) -> list[str]:
        return report_lines(self.to_json())


def write_artifacts(out_dir, docs: dict, tables: dict) -> list[str]:
    """Write each {name: document} as name.json (sorted keys, indent 2) and
    each {name: (header, rows)} table as name.csv under out_dir; returns the
    written file names in that order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in docs.items():
        with open(out / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(f"{name}.json")
    for name, (header, rows) in tables.items():
        with open(out / f"{name}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        written.append(f"{name}.csv")
    return written


def write_report(report: PipelineReport, out_dir) -> list[str]:
    """report.json plus the per-stage CSV tables; returns written names."""
    checks = (
        ["stage", "check", "passed", "detail"],
        [(s.name, c.check_id, int(c.passed), c.detail) for s in report.stages for c in s.checks],
    )
    return write_artifacts(
        out_dir, {"report": report.to_json()}, {"checks": checks, **report.tables}
    )


# ---------------------------------------------------------------------------
# the pipeline stages
#
# Every stage is a function (resolved, counts, seed) -> StageReport over the
# resolved parameters alone, so the pipeline and a single-stage command run
# the same code.


def _counts(sample_count: int) -> dict:
    """Desk-scale sampling budgets derived from the configured count."""
    return {
        "pool_size": max(8, sample_count // 8),
        "probe_count": sample_count,
        "tile_samples": max(4, sample_count // 12),
        "signal_samples": max(3, sample_count // 40),
        "fmap_bases": max(6, sample_count // 16),
        "n_signal": 1000,
    }


def _results(suites: dict[str, CheckSuite]) -> tuple[CheckResult, ...]:
    return tuple(s.result() for s in suites.values())


def _star_map(resolved: ResolvedParams, seed: int) -> StarMap:
    nums = resolved.numbers
    return StarMap(
        system=resolved.config.system,
        eps_half=nums.eps_half,
        n_horizon=nums.n_horizon,
        m=nums.m,
        seed=seed,
    )


def parameters_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    nums = resolved.numbers
    return StageReport(
        "parameters",
        (),
        {
            "n_horizon": nums.n_horizon,
            "m": nums.m,
            "delta_prime": nums.delta_prime,
            "r": nums.r,
            "c": nums.c,
            "mdim_half_upper": nums.mdim_half_upper,
        },
    )


def marker_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    """Return gaps of one sampled marker sequence; a return closer than M or
    a gap above M1 raises PipelineError with the offending time."""
    mspec = resolved.mspec
    x = sample_points(resolved.config.system, 1, seed)[0]
    lo, hi = support_window_for(mspec, -4 * mspec.M1, 4 * mspec.M1)
    seq = marker_sequence(mspec, x, lo, hi)
    ok, wit = marker_separation_check(seq)
    if not ok:
        raise PipelineError("marker", f"marker returns closer than M at {wit}", wit)
    ok, wit = marker_gap_check(seq)
    if not ok:
        raise PipelineError("marker", f"marker gap above M1 at {wit}", wit)
    hist = gap_histogram(seq)
    return StageReport(
        "marker",
        (),
        {
            "M": mspec.M,
            "M1": mspec.M1,
            "arc_radius": str(mspec.arc_radius),
            "inner_radius": str(mspec.inner_radius),
            "return_gaps": {str(k): int(v) for k, v in sorted(hist.items())},
        },
    )


def tiling_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    suites, t0 = tiling_suite(
        resolved.mspec, resolved.tparams, counts["tile_samples"], seed=seed
    )
    return StageReport(
        "tiling",
        _results(suites),
        {"samples": counts["tile_samples"], "window_radius": int(t0.valid_window[1])},
        tables={
            "tiling": (
                ["label", "lo", "hi"],
                [(int(n), float(a), float(b)) for n, a, b in zip(t0.labels, t0.lo, t0.hi)],
            )
        },
    )


def phi_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    suites, sep_res, est = phi_suite(
        resolved.mspec,
        resolved.tparams,
        resolved.sparams,
        counts["signal_samples"],
        counts["n_signal"],
        eps=resolved.config.eps,
        seed=seed + 1,
    )
    return StageReport(
        "phi",
        _results(suites) + (sep_res,),
        {"samples": counts["signal_samples"], "N": counts["n_signal"]},
        estimates=est,
    )


def fmap_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    config, nums = resolved.config, resolved.numbers
    space = _clustered_space(
        config.system, counts["fmap_bases"], nums.n_horizon, config.eps, seed + 2
    )
    fmap = build_fmap(
        space,
        config.eps,
        nums.m,
        construction=FMapConstruction.SEARCHED_PL,
        budget=64,
        seed=seed + 2,
        horizon=nums.n_horizon,
    )
    rep = verify_fiber_bound(fmap, space, config.eps, probe_count=40, seed=seed + 2)
    dt = fmap.delta_transfer
    return StageReport(
        "fmap",
        (check_fiber_bound(rep), check_nerve_transfer(fmap)),
        {
            "construction": fmap.construction.value,
            "atoms": space.n_atoms,
            "n_vertices": fmap.nerve.n_vertices,
            "nerve_dim": fmap.nerve.dimension,
            "bound": float(fmap.bound),
            "flag": fmap.flag,
            "delta_transfer": float(dt) if math.isfinite(dt) else None,
            "max_ratio": float(rep.max_ratio),
        },
        estimates={"fmap_max_ratio": float(rep.max_ratio)},
    )


def band_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    suites, trace = band_suite(
        resolved.mspec,
        resolved.tparams,
        resolved.sparams,
        _star_map(resolved, seed),
        counts["signal_samples"],
        counts["n_signal"],
        seed=seed + 3,
    )
    worst = suites[BAND_SPARSITY].worst
    return StageReport(
        "band",
        _results(suites),
        {"samples": counts["signal_samples"], "N": counts["n_signal"]},
        tables={"phi_trace": (["k", "phi", "g"], list(trace.rows()))},
        estimates={"band_sparsity_worst_margin": None if worst is None else float(worst)},
    )


def fiber_stage(resolved: ResolvedParams, counts: dict, seed: int) -> StageReport:
    config, horizon = resolved.config, resolved.numbers.n_horizon
    F = _star_map(resolved, seed)
    pool = sample_points(config.system, counts["pool_size"], seed + 4)
    chain = fiber_width_chain(
        pool,
        resolved.mspec,
        resolved.tparams,
        resolved.sparams,
        F,
        eps=config.eps,
        horizon=horizon,
        delta=resolved.fiber_bound,
        probe_count=counts["probe_count"],
        seed=seed + 4,
    )
    transfer = _star_transfer(pool, F, config.eps, horizon)
    return StageReport(
        "fiber",
        chain.checks + (transfer,),
        {
            "pool_size": counts["pool_size"],
            "probes": len(chain.probes),
            "K": chain.K,
            "max_ratio": float(chain.max_ratio),
            "target": float(resolved.fiber_bound),
        },
        tables={
            "fibers": (
                ["probe", "fiber_size", "blocks_matched", "widim_upper", "ratio"],
                [
                    (int(i), int(s), int(b), int(w), float(r))
                    for i, s, b, w, r in chain.rows()
                ],
            )
        },
        estimates={
            "fiber_max_ratio": float(chain.max_ratio),
            "fiber_target": float(resolved.fiber_bound),
        },
    )


STAGES = {
    "parameters": parameters_stage,
    "marker": marker_stage,
    "tiling": tiling_stage,
    "phi": phi_stage,
    "fmap": fmap_stage,
    "band": band_stage,
    "fiber": fiber_stage,
}


def _resolve_staged(config: ExperimentConfig) -> ResolvedParams:
    """config.resolve with each step under the name of the stage it feeds."""
    numbers = _stage("parameters", lambda: select_factor_numbers(config))
    mspec = _stage("marker", lambda: resolve_marker(config, numbers))
    tparams = _stage("tiling", lambda: resolve_tiling(numbers, mspec))
    sparams = SignalParams.from_tiling(tparams, numbers.m, config.gamma_variant)
    return ResolvedParams(
        config=config, numbers=numbers, mspec=mspec, tparams=tparams, sparams=sparams
    )


def _run_stage(name: str, resolved: ResolvedParams, counts: dict) -> StageReport:
    return _stage(name, lambda: STAGES[name](resolved, counts, resolved.config.seed))


def run_stage(config: ExperimentConfig, name: str) -> StageReport:
    """One named stage of the chain, after the staged resolve, under the
    pipeline's error policy."""
    return _run_stage(name, _resolve_staged(config), _counts(config.sample_count))


def run_pipeline(config: ExperimentConfig) -> PipelineReport:
    """The full verification chain on one configuration.

    Runs every stage of STAGES in order, then the dimension comparison;
    every stage contributes PASS/FAIL lines keyed by check id.
    """
    counts = _counts(config.sample_count)
    resolved = _resolve_staged(config)
    stages = tuple(_run_stage(name, resolved, counts) for name in STAGES)
    tables: dict = {}
    estimates: dict = {}
    for s in stages:
        tables.update(s.tables)
        estimates.update(s.estimates)
    comparison = _stage(
        "comparison",
        lambda: hurewicz_report(
            resolved,
            z_estimate=estimates["z_width"]["value"],
            n_signal=counts["n_signal"],
        ),
    )
    z_horizons = [n for n, _ in estimates["z_width"]["per_n"]]
    tiling_info = next(s.info for s in stages if s.name == "tiling")
    truncations = {
        "horizon_cap": HORIZON_CAP,
        **counts,
        "z_horizons": [min(z_horizons), max(z_horizons)],
        "tiling_window_radius": tiling_info["window_radius"],
    }
    return PipelineReport(
        config=config_to_json(config),
        params=resolved.to_json(),
        truncations=truncations,
        stages=stages,
        estimates=estimates,
        comparison=comparison,
        generated_at=datetime.now(timezone.utc).isoformat(),
        tables=tables,
    )


# ---------------------------------------------------------------------------
# finite products


@dataclass(frozen=True)
class FactorRun:
    k: int
    eps: float
    delta: float
    n_window: int
    bound_term: float
    separation: dict
    checks: tuple[CheckResult, ...]
    params: dict = field(repr=False, default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ProductReport:
    """Joint record of the per-factor runs at the shrinking schedule."""

    delta: float
    count: int
    factors: tuple[FactorRun, ...]
    sum_delta: float
    sum_bound: float
    checks: tuple[CheckResult, ...]
    generated_at: str

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.factors) and all(
            c.passed for c in self.checks
        )

    def to_json(self) -> dict:
        return {
            "report_schema": "meandimlab/v1",
            "delta": self.delta,
            "count": self.count,
            "sum_delta": self.sum_delta,
            "sum_bound": self.sum_bound,
            "factors": [
                {
                    "k": f.k,
                    "eps": f.eps,
                    "delta": f.delta,
                    "n_window": f.n_window,
                    "bound_term": f.bound_term,
                    "separation": f.separation,
                    "checks": [
                        {"id": c.check_id, "passed": bool(c.passed), "detail": c.detail}
                        for c in f.checks
                    ],
                    "params": f.params,
                }
                for f in self.factors
            ],
            "checks": [
                {"id": c.check_id, "passed": bool(c.passed), "detail": c.detail}
                for c in self.checks
            ],
            "passed": self.passed,
            "generated_at": self.generated_at,
        }

    @property
    def tables(self) -> dict:
        header = ["k", "eps", "delta", "n_window", "bound_term", "M", "M1", "m", "delta_prime"]
        rows = [
            (f.k, f.eps, f.delta, f.n_window, f.bound_term, f.params["M"], f.params["M1"],
             f.params["m"], f.params["delta_prime"])
            for f in self.factors
        ]
        return {"factors": (header, rows)}

    def lines(self) -> list[str]:
        out = []
        for f in self.factors:
            for c in f.checks:
                out.append(f"{f'factor-{f.k}':<12}{c.line()}")
        for c in self.checks:
            out.append(f"{'joint':<12}{c.line()}")
        out.append(f"{'overall':<12}{'PASS' if self.passed else 'FAIL'}")
        return out


def _factor_window(delta_k: float, dp: float, m: int) -> int:
    """Window length making the per-factor bound verifiable.

    Long enough that (a) the two delta_prime-rate terms plus edge effects
    stay below the factor budget and (b) one full boundary collar fits the
    sparsity allowance delta_prime*N + 1.
    """
    if delta_k <= 2.0 * dp:
        raise ConfigurationError("factor budget must exceed twice delta_prime")
    return max(
        1000,
        math.ceil(4.0 / (delta_k - 2.0 * dp)),
        math.ceil(6.0 * m / dp),
    )


def run_products(config: ExperimentConfig, count_factors: int) -> ProductReport:
    """The finite-product experiment: factor k runs at (eps/k, delta/2^k).

    Every factor re-derives its own marker scale, tiling and block length
    from the shrunk budgets, then verifies separation, the plateau budget
    and band sparsity on sampled windows; the certified per-factor bounds
    2*(delta_prime + 1/N) must sum below the joint budget delta.
    """
    if not 1 <= count_factors <= 4:
        raise ConfigurationError("count_factors must lie in 1..4 (desk scale)")
    factors = []
    sum_bound = 0.0
    sum_delta = 0.0
    for k in range(1, count_factors + 1):
        sub = replace(
            config,
            eps=config.eps / k,
            delta=config.delta / 2**k,
            arc_radius=None,
            inner_radius=None,
            tiling_r=None,
            tiling_c=None,
            n_horizon=None,
            m=None,
            delta_prime=None,
            seed=config.seed + k,
        )
        name = f"factor-{k}"
        res = _stage(name, lambda sub=sub: resolve(sub))
        dp = res.numbers.delta_prime
        N_k = _stage(name, lambda: _factor_window(sub.delta, dp, res.numbers.m))
        F = _star_map(res, sub.seed)

        def factor_checks(res=res, sub=sub, F=F, N_k=N_k, dp=dp):
            sep_report, sep_res = separation_report(
                res.mspec, res.tparams, res.sparams
            )
            checks = [sep_res]
            for x in sample_points(sub.system, 2, sub.seed):
                ctx = factor_context(x, res.mspec, res.tparams, res.sparams, (0, N_k - 1))
                fimg = factor_image(ctx, res.sparams, F)
                free, _ = plateau_report(ctx, sparse_phi(ctx, res.sparams), res.sparams)
                checks.append(check_plateau_budget(free, dp))
                checks.append(check_band_sparsity(fimg, dp, N_k))
            return sep_report, tuple(checks)

        sep_report, checks = _stage(name, factor_checks)
        bound = 2.0 * (dp + 1.0 / N_k)
        sum_bound += bound
        sum_delta += sub.delta
        factors.append(
            FactorRun(
                k=k,
                eps=sub.eps,
                delta=sub.delta,
                n_window=N_k,
                bound_term=bound,
                separation=sep_report,
                checks=checks,
                params=res.to_json(),
            )
        )
    joint = (
        CheckResult(
            SEPARATION,
            all(f.separation["separated"] for f in factors),
            "designated pair separated in every factor",
        ),
        CheckResult(
            PRODUCT_BUDGET,
            sum_bound < config.delta,
            f"summed factor bounds {sum_bound:.6g} vs delta {config.delta} "
            f"(budget schedule sums to {sum_delta:.6g})",
        ),
    )
    return ProductReport(
        delta=config.delta,
        count=count_factors,
        factors=tuple(factors),
        sum_delta=sum_delta,
        sum_bound=sum_bound,
        checks=joint,
        generated_at=datetime.now(timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# dimension comparison


def hurewicz_report(
    resolved: ResolvedParams,
    z_estimate: float | None = None,
    n_signal: int = 1000,
) -> dict:
    """Numeric comparison of the three sides of the dimension inequality.

    Lower side: a certified grid bound transferred through the isometric
    cube-block embedding (the tail coordinates sit below the certificate
    resolution, so the grid value survives the transfer at the operating
    eps).  Upper side: the best pattern-cover ratio.  Factor side: the
    plateau budget plus window-edge effect plus the block-dimension budget
    delta; fiber side: the verified chain target.  The verdict compares
    the lower side against factor + fiber.
    """
    config = resolved.config
    nums = resolved.numbers
    D = config.system.D
    pattern_op = pattern_series(config.system, range(1, HORIZON_CAP + 1), config.eps)
    upper = min(w / n for n, w in pattern_op.items())
    if D == 0:
        lower = 0.0
        cert = None
    else:
        n_cert = 2 if D == 1 else 1
        grid_dim = min(D * n_cert, 2)
        eps_cert = max(0.9, 2.0 * config.eps)
        grid = CellSpace.cube_grid(grid_dim, CERT_CELLS)
        res = min_multiplicity(grid, eps_cert, mode="exact")
        certified = res.certified_lower if res.certified_lower is not None else 0
        lower = certified / n_cert
        cert = {
            "grid_dim": grid_dim,
            "cells": CERT_CELLS,
            "eps": eps_cert,
            "certified_lower": int(certified),
            "n_horizon": n_cert,
            "flag": res.flag,
        }
    factor_z = nums.delta_prime + 1.0 / n_signal
    factor_side = factor_z + config.delta
    fiber_side = resolved.fiber_bound
    if D == 0:
        verdict = "trivially satisfied"
    elif config.delta >= lower:
        verdict = "inconclusive"
    elif lower > factor_side + fiber_side:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return {
        "eps": config.eps,
        "delta": config.delta,
        "mdim_lower": float(lower),
        "mdim_upper": float(upper),
        "certificate": cert,
        "factor_z_side": float(factor_z),
        "factor_g_side": float(config.delta),
        "factor_side": float(factor_side),
        "z_estimate": z_estimate,
        "fiber_side": float(fiber_side),
        "right_side": float(factor_side + fiber_side),
        "verdict": verdict,
    }
