"""The three benchmark workloads: inputs, one operation, reference checks.

Every workload turns a seed into inputs (configs or a marker/tiling/signal
stack), runs one operation on them, and checks the operation's outputs
outside the timed region against exact constants and the program's own
slow reference paths (``phi_profile`` for marker support, ``h_value`` and
``g_value`` on a re-tiled shifted point for the signal profiles).  A check
that disagrees makes the operation fail; the program's own PASS/FAIL
verdicts are recorded as outputs and never count as failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from meandimlab.config import default_config, resolve
from meandimlab.dynsys import SystemSpec, sample_points
from meandimlab.marker import (
    MarkerSpec,
    make_marker_spec,
    marker_sequence,
    phi_profile,
    support_window_for,
)
# Operations call the program through its module, so that the module-level
# wrappers installed for a traced run see the top-level calls too.
from meandimlab import pipeline
from meandimlab.pipeline import StarMap
from meandimlab.signal import (
    GammaVariant,
    SignalParams,
    g_value,
    h_value,
    pi_map,
    signal_pad,
)
from meandimlab.tiling import TilingParams, slice_tiling

# Tolerance of the pointwise-vs-window comparison, as in tests/test_signal.py.
PROFILE_TOL = 1e-9

# Exact marker constants (M, M1) of each workload.
DEFAULT_M_M1 = (2584, 5474)
BULK_M_M1 = (144, 306)
PRODUCT_M_M1 = [(10946, 23185), (46368, 98210), (196418, 416021)]

# Suite instance counts the default pipeline is asked for (sample_count 200).
PIPELINE_INSTANCES = {"tiling": 16, "phi": 5, "band": 5}
PIPELINE_SUITES = {"tiling": 7, "phi": 2, "band": 3}

# One bulk-suites round: instances per suite, as in scripts/run_suites.py.
BULK_SAMPLES = 10
BULK_BAND_SAMPLES = max(4, BULK_SAMPLES // 8)

PRODUCT_COUNT = 3
PRODUCT_CHECKS_PER_FACTOR = 5  # separation + 2 windows x (plateau, sparsity)

_INSTANCES = re.compile(r"^(\d+)/(\d+) instances")


def digest(doc) -> str:
    """SHA-256 of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class CheckLog:
    """Collects reference-check disagreements of one operation."""

    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


def check_support(log: CheckLog, mspec: MarkerSpec, x, lo: int, hi: int, what: str):
    """marker_sequence support equals the O(window) phi_profile support."""
    fast = marker_sequence(mspec, x, lo, hi).support
    slow = np.nonzero(phi_profile(mspec, x, lo, hi) > 0)[0] + lo
    log.expect(np.array_equal(fast, slow), f"{what}: marker support on [{lo}, {hi}]")


def check_pointwise(
    log: CheckLog, x, mspec, tparams, sparams, F, phi_at, g_at, ts, what: str
):
    """h_value/g_value on a re-tiled x.shifted(t) match the window profile."""
    W = max(math.ceil(sparams.R), signal_pad(sparams)) + 1
    s_lo, s_hi = support_window_for(mspec, -W, W)
    for t in ts:
        xs = x.shifted(int(t))
        seq = marker_sequence(mspec, xs, s_lo, s_hi)
        tl = slice_tiling(seq, tparams, tparams.H, (-W, W))
        h = h_value(tl, sparams)
        log.expect(abs(h - phi_at(t)) <= PROFILE_TOL, f"{what}: h at t={t}")
        g = g_value(tl, F, xs, sparams)
        log.expect(abs(g - g_at(t)) <= PROFILE_TOL, f"{what}: g at t={t}")


def sample_ts(rng, g: np.ndarray, lo: int) -> list[int]:
    """Two times on the g support (when it has any) and two uniform ones."""
    nz = np.nonzero(g)[0]
    picks = list(rng.choice(nz, size=min(2, len(nz)), replace=False)) if len(nz) else []
    picks += list(rng.integers(0, len(g), size=2))
    return [int(i) + lo for i in picks]


def check_instances(log: CheckLog, suites: dict, expected: int, what: str):
    for cid, suite in suites.items():
        log.expect(
            suite.instances == expected,
            f"{what}: suite {cid} ran {suite.instances} of {expected} instances",
        )


class PipelineDefault:
    """run_pipeline(default_config(seed=s)) then write_report, as the CLI."""

    name = "pipeline-default"

    def setup(self, seed: int):
        return None

    def op(self, inputs, s: int, scratch: Path):
        pipeline.write_report(pipeline.run_pipeline(default_config(seed=s)), scratch)
        return scratch

    def check(self, inputs, s: int, out: Path, log: CheckLog) -> dict:
        doc = json.loads((out / "report.json").read_text())
        doc.pop("generated_at")
        cfg = default_config(seed=s)
        res = resolve(cfg)
        mspec, tparams, sparams = res.mspec, res.tparams, res.sparams
        stages = {st["name"]: st for st in doc["stages"]}
        got = [
            (mspec.M, mspec.M1),
            (doc["params"]["M"], doc["params"]["M1"]),
            (stages["marker"]["info"]["M"], stages["marker"]["info"]["M1"]),
        ]
        log.expect(all(g == DEFAULT_M_M1 for g in got), f"(M, M1) {got}")

        # marker stage: gap histogram of the op against phi_profile
        x = sample_points(cfg.system, 1, s)[0]
        lo, hi = support_window_for(mspec, -4 * mspec.M1, 4 * mspec.M1)
        sup = np.nonzero(phi_profile(mspec, x, lo, hi) > 0)[0]
        gaps, counts = np.unique(np.diff(sup), return_counts=True)
        hist = {str(int(g)): int(c) for g, c in zip(gaps, counts)}
        log.expect(hist == stages["marker"]["info"]["return_gaps"], "marker return gaps")
        rng = np.random.default_rng([s, 7])
        a = int(rng.integers(lo, hi - 2 * mspec.M1))
        check_support(log, mspec, x, a, a + 2 * mspec.M1, "marker")

        # suites ran the instance counts they were asked for
        for stage, expected in PIPELINE_INSTANCES.items():
            counts = [
                _INSTANCES.match(c["detail"]) for c in stages[stage]["checks"]
            ]
            runs = [int(m.group(2)) for m in counts if m]
            log.expect(
                runs == [expected] * PIPELINE_SUITES[stage],
                f"{stage}: suite instances {runs}",
            )

        # band trace (first band window) against pointwise evaluation
        with open(out / "phi_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ks = [int(r[0]) for r in rows]
        phi = np.array([float(r[1]) for r in rows])
        g = np.array([float(r[2]) for r in rows])
        log.expect(ks == list(range(1000)), "band trace window")
        xb = sample_points(cfg.system, PIPELINE_INSTANCES["band"], s + 3)[0]
        F = StarMap(
            system=cfg.system,
            eps_half=res.numbers.eps_half,
            n_horizon=res.numbers.n_horizon,
            m=res.numbers.m,
            seed=s,
        )
        check_pointwise(
            log, xb, mspec, tparams, sparams, F,
            lambda t: phi[t], lambda t: g[t], sample_ts(rng, g, 0), "band trace",
        )

        with open(out / "fibers.csv", newline="") as fh:
            sizes = [int(r[1]) for r in list(csv.reader(fh))[1:]]
        checks = [c for st in doc["stages"] for c in st["checks"]]
        return {
            "checks_pass": sum(c["passed"] for c in checks),
            "checks_fail": sum(not c["passed"] for c in checks),
            "verdict": doc["comparison"]["verdict"],
            "z_estimate": doc["comparison"]["z_estimate"],
            "multi_member_share": sum(n > 1 for n in sizes) / len(sizes),
            "digest": digest(doc),
        }


class BulkSuites:
    """One soak round of the tiling, phi and band suites on the M = 144 stack."""

    name = "bulk-suites"

    def setup(self, seed: int):
        mspec = make_marker_spec(SystemSpec(D=1), 0, Fraction(1, 400))
        tparams = TilingParams(r=1.0, delta=0.5, c=1.5, M=mspec.M, M1=mspec.M1)
        sparams = SignalParams.from_tiling(tparams, 3, GammaVariant.MAX_AT_ZERO)
        F = StarMap(mspec.system, eps_half=0.125, n_horizon=3, m=3, seed=seed)
        return mspec, tparams, sparams, F

    def op(self, inputs, s: int, scratch: Path):
        mspec, tparams, sparams, F = inputs
        half = 500 * mspec.M1
        t_suites, _ = pipeline.tiling_suite(
            mspec, tparams, samples=BULK_SAMPLES, seed=s, window=(-half, half)
        )
        p_suites, sep, est = pipeline.phi_suite(
            mspec, tparams, sparams, samples=BULK_SAMPLES, N=1000 * mspec.M1,
            eps=0.25, seed=s + 1,
        )
        b_suites, fimg = pipeline.band_suite(
            mspec, tparams, sparams, F, samples=BULK_BAND_SAMPLES, N=1000, seed=s + 2
        )
        return t_suites, p_suites, sep, est, b_suites, fimg

    def check(self, inputs, s: int, out, log: CheckLog) -> dict:
        mspec, tparams, sparams, F = inputs
        t_suites, p_suites, sep, est, b_suites, fimg = out
        log.expect((mspec.M, mspec.M1) == BULK_M_M1, f"(M, M1) {(mspec.M, mspec.M1)}")
        check_instances(log, t_suites, BULK_SAMPLES, "tiling")
        check_instances(log, p_suites, BULK_SAMPLES, "phi")
        check_instances(log, b_suites, BULK_BAND_SAMPLES, "band")
        log.expect(len(t_suites) == 7 and len(p_suites) == 2 and len(b_suites) == 3, "suite ids")

        rng = np.random.default_rng([s, 7])
        x = sample_points(mspec.system, BULK_SAMPLES, s)[0]
        a = int(rng.integers(-500 * mspec.M1, 496 * mspec.M1))
        check_support(log, mspec, x, a, a + 4 * mspec.M1, "marker")
        xb = sample_points(mspec.system, BULK_BAND_SAMPLES, s + 2)[0]
        log.expect(fimg.window == (0, 999), f"band window {fimg.window}")
        check_pointwise(
            log, xb, mspec, tparams, sparams, F, fimg.phi_at, fimg.g_at,
            sample_ts(rng, fimg.g_seq, 0), "band window",
        )

        suites = {**t_suites, **p_suites, **b_suites}
        doc = {
            "suites": {
                k: [v.instances, v.failures, v.worst] for k, v in sorted(suites.items())
            },
            "separation": [bool(sep.passed), sep.detail],
            "estimates": est,
            "band_window": hashlib.sha256(
                fimg.phi_seq.tobytes() + fimg.g_seq.tobytes()
            ).hexdigest(),
        }
        return {
            "checks_pass": sum(v.instances - v.failures for v in suites.values())
            + int(sep.passed),
            "checks_fail": sum(v.failures for v in suites.values()) + int(not sep.passed),
            "z_estimate": est["z_width"]["value"],
            "free_fraction_max": est["free_fraction_max"],
            "digest": digest(doc),
        }


class Products:
    """run_products(default_config(seed=s), 3): three re-derived factors."""

    name = "products"

    def setup(self, seed: int):
        return None

    def op(self, inputs, s: int, scratch: Path):
        return pipeline.run_products(default_config(seed=s), PRODUCT_COUNT)

    def check(self, inputs, s: int, out, log: CheckLog) -> dict:
        doc = out.to_json()
        doc.pop("generated_at")
        system = default_config(seed=s).system
        params = [f["params"] for f in doc["factors"]]
        got = [(p["M"], p["M1"]) for p in params]
        log.expect(got == PRODUCT_M_M1, f"(M, M1) {got}")
        log.expect(
            [len(f["checks"]) for f in doc["factors"]]
            == [PRODUCT_CHECKS_PER_FACTOR] * PRODUCT_COUNT,
            "per-factor check counts",
        )
        rng = np.random.default_rng([s, 7])
        for k, p in enumerate(params, start=1):
            mspec = MarkerSpec(
                system=system,
                arc_center=Fraction(p["arc_center"]),
                arc_radius=Fraction(p["arc_radius"]),
                inner_radius=Fraction(p["inner_radius"]),
                M=p["M"],
                M1=p["M1"],
            )
            x = sample_points(system, 2, s + k)[0]
            a = int(rng.integers(0, 4 * mspec.M1))
            check_support(log, mspec, x, a, a + 4 * mspec.M1, f"factor-{k}")
            if k == 1:
                self._check_profile(log, rng, mspec, p, x)

        checks = [c for f in doc["factors"] for c in f["checks"]] + doc["checks"]
        return {
            "checks_pass": sum(c["passed"] for c in checks),
            "checks_fail": sum(not c["passed"] for c in checks),
            "passed": doc["passed"],
            "digest": digest(doc),
        }

    @staticmethod
    def _check_profile(log, rng, mspec, p, x):
        """The factor's window profile against pointwise evaluation."""
        tparams = TilingParams(r=p["r"], delta=p["delta_prime"], c=p["c"], M=p["M"], M1=p["M1"])
        sparams = SignalParams.from_tiling(tparams, p["m"], GammaVariant(p["gamma_variant"]))
        log.expect((tparams.R, tparams.H) == (p["R"], p["H"]), "factor-1 tiling params")
        F = StarMap(
            system=mspec.system, eps_half=p["eps_half"], n_horizon=p["n_horizon"],
            m=p["m"], seed=p["seed"],
        )
        # 4 M1 long, so the window holds tile boundaries and nonzero g
        lo = int(rng.integers(0, mspec.M1))
        fimg = pi_map(x, mspec, tparams, sparams, F, (lo, lo + 4 * mspec.M1))
        check_pointwise(
            log, x, mspec, tparams, sparams, F, fimg.phi_at, fimg.g_at,
            sample_ts(rng, fimg.g_seq, lo), "factor-1 window",
        )


WORKLOADS = {w.name: w for w in (PipelineDefault(), BulkSuites(), Products())}
