"""Experiment configuration: JSON schema, selection rules, resolution.

A config names the system and the budget pair (delta, eps); every other
knob either comes pinned or is derived by the selection rules below and
recorded, so reports stay self-describing:

  * mean-dimension proxy at eps/2: the smallest pattern bound P(n)/n over
    horizons n <= HORIZON_CAP;
  * n_horizon: first n with P(n)/n < proxy + 1;
  * m: smallest integer >= 2 strictly above (proxy + 1)/delta;
  * delta_prime: 0.9 of min((proxy+1)/(2m), delta/2);
  * r = 3m (the collar radius of the band construction), slice ratio c the
    largest dyadic 1 + j/64 (step halved if needed) below 1/(1-delta');
  * marker arc: 0.45 of the smallest circle displacement reachable within
    the required marker scale, so the first orbit return into the doubled
    arc lands strictly beyond that scale.

The tiling runs at density budget delta_prime, not delta: the band and
plateau estimates need the finer budget, and everything the coarser delta
asks for follows from it.
"""

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .dynsys import GOLDEN_THETA, ConfigurationError, SystemSpec, circle_block
from .marker import MarkerSpec, make_marker_spec
from .signal import GammaVariant, SignalParams
from .tiling import TilingParams, scale_floor
from .widim import mdim_estimate, pattern_series

SCHEMA = "meandimlab/v1"
HORIZON_CAP = 12  # largest Bowen horizon the width estimates touch
CERT_CELLS = 6  # cells per axis of the exact width certificate's cube grid


@dataclass(frozen=True)
class ExperimentConfig:
    """User-facing knobs; None means "derive it"."""

    system: SystemSpec
    delta: float
    eps: float
    arc_center: Fraction = Fraction(0)
    arc_radius: Fraction | None = None
    inner_radius: Fraction | None = None
    tiling_r: float | None = None
    tiling_c: float | None = None
    n_horizon: int | None = None
    m: int | None = None
    delta_prime: float | None = None
    gamma_variant: GammaVariant = GammaVariant.MAX_AT_ZERO
    sample_count: int = 200
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        if not 0.0 < self.eps < 1.0:
            raise ConfigurationError("eps must lie in (0, 1)")
        if not isinstance(self.arc_center, Fraction):
            raise ConfigurationError("arc_center must be a Fraction")
        if self.sample_count < 1:
            raise ConfigurationError("sample count must be positive")


def default_config(**overrides) -> ExperimentConfig:
    """The reference run: golden rotation over one cube dimension."""
    base = ExperimentConfig(system=SystemSpec(), delta=0.2, eps=0.25)
    return replace(base, **overrides) if overrides else base


# ---------------------------------------------------------------------------
# selection rules


@dataclass(frozen=True)
class FactorNumbers:
    """Outcome of the width-selection arithmetic."""

    eps: float
    eps_half: float
    delta: float
    pattern: dict = field(repr=False)  # horizon -> cover bound at eps/2
    mdim_half_upper: float
    last_slope: float
    n_horizon: int
    m: int
    delta_prime: float
    r: float
    c: float


def dyadic_below(cap: float) -> float:
    """Largest 1 + j/64 strictly inside (1, cap), halving the step while
    no multiple fits.  Dyadic steps keep the slice depths exact in binary.
    """
    if not cap > 1.0:
        raise ConfigurationError(f"no slice ratio fits below {cap}")
    step = 1.0 / 64.0
    while step > 2.0**-40:
        j = math.floor((cap - 1.0) / step)
        while j >= 1 and 1.0 + j * step >= cap:
            j -= 1
        if j >= 1:
            return 1.0 + j * step
        step /= 2.0
    raise ConfigurationError(f"no dyadic slice ratio fits below {cap}")


def select_factor_numbers(config: ExperimentConfig) -> FactorNumbers:
    system = config.system
    eps_half = config.eps / 2.0
    pattern = pattern_series(system, range(1, HORIZON_CAP + 1), eps_half)
    est = mdim_estimate(pattern, eps_half)
    proxy = est.value

    if config.n_horizon is None:
        n_h = next(
            (n for n in sorted(pattern) if pattern[n] / n < proxy + 1.0), None
        )
        if n_h is None:
            raise ConfigurationError("no horizon beats the proxy bound")
    else:
        n_h = config.n_horizon
        if not 1 <= n_h <= HORIZON_CAP:
            raise ConfigurationError(f"n_horizon must lie in 1..{HORIZON_CAP}")

    if config.m is None:
        m = max(2, math.floor((proxy + 1.0) / config.delta) + 1)
    else:
        m = config.m
        if m < 2:
            raise ConfigurationError("block parameter m must be >= 2")

    dp_cap = min((proxy + 1.0) / (2.0 * m), config.delta / 2.0)
    if config.delta_prime is None:
        dprime = 0.9 * dp_cap
    else:
        dprime = config.delta_prime
        if not 0.0 < dprime < dp_cap:
            raise ConfigurationError(
                f"delta_prime must lie strictly inside (0, {dp_cap:.6g})"
            )

    r = 3.0 * m if config.tiling_r is None else float(config.tiling_r)
    if not r > 0:
        raise ConfigurationError("tiling radius r must be positive")
    cap = 1.0 / (1.0 - dprime)
    c = dyadic_below(cap) if config.tiling_c is None else float(config.tiling_c)
    if not 1.0 < c < cap:
        raise ConfigurationError(f"c={c} must lie strictly between 1 and {cap:.6g}")

    return FactorNumbers(
        eps=config.eps,
        eps_half=eps_half,
        delta=config.delta,
        pattern=pattern,
        mdim_half_upper=proxy,
        last_slope=est.last_slope,
        n_horizon=n_h,
        m=m,
        delta_prime=dprime,
        r=r,
        c=c,
    )


def pick_arc(system: SystemSpec, scale_bound: float) -> tuple[int, int, int]:
    """Numerators of the marker-arc pick: (smallest gap, its k, arc).

    Scans |k*theta| over k = 1..floor(scale_bound); 0.45 of the smallest
    displacement keeps 2*arc strictly under every gap reachable before the
    required scale, forcing the marker return time beyond it.
    """
    N = math.floor(scale_bound)
    if N < 1:
        raise ConfigurationError("marker scale bound below 1")
    q = system.q
    nums = circle_block(system, 0, 1, N)
    d = np.minimum(nums, q - nums)
    i = int(np.argmin(d))
    min_num = int(d[i])
    arc_num = (9 * min_num) // 20
    if arc_num < 1:
        raise ConfigurationError("rotation gap too small to carve an arc")
    return min_num, i + 1, arc_num


def resolve_marker(config: ExperimentConfig, numbers: FactorNumbers) -> MarkerSpec:
    if config.arc_radius is not None:
        return make_marker_spec(
            config.system, config.arc_center, config.arc_radius, config.inner_radius
        )
    bound = scale_floor(numbers.r, numbers.delta_prime, numbers.c)
    _, _, arc_num = pick_arc(config.system, bound)
    q = config.system.q
    return make_marker_spec(
        config.system,
        config.arc_center,
        Fraction(arc_num, q),
        Fraction(arc_num, 2 * q),
    )


def resolve_tiling(numbers: FactorNumbers, mspec: MarkerSpec) -> TilingParams:
    return TilingParams(
        r=numbers.r, delta=numbers.delta_prime, c=numbers.c, M=mspec.M, M1=mspec.M1
    )


@dataclass(frozen=True)
class ResolvedParams:
    config: ExperimentConfig
    numbers: FactorNumbers
    mspec: MarkerSpec
    tparams: TilingParams
    sparams: SignalParams

    @property
    def K(self) -> int:
        """Certified lookback radius of the central tile."""
        return self.tparams.K

    @property
    def fiber_bound(self) -> float:
        """Width budget per fiber and horizon: P(n)/(n*m) at eps/2."""
        nums = self.numbers
        return nums.pattern[nums.n_horizon] / (nums.n_horizon * nums.m)

    def to_json(self) -> dict:
        nums = self.numbers
        return {
            "eps": nums.eps,
            "eps_half": nums.eps_half,
            "delta": nums.delta,
            "delta_prime": nums.delta_prime,
            "n_horizon": nums.n_horizon,
            "m": nums.m,
            "r": nums.r,
            "c": nums.c,
            "pattern": {str(n): int(w) for n, w in sorted(nums.pattern.items())},
            "mdim_half_upper": nums.mdim_half_upper,
            "last_slope": nums.last_slope,
            "arc_center": str(self.mspec.arc_center),
            "arc_radius": str(self.mspec.arc_radius),
            "inner_radius": str(self.mspec.inner_radius),
            "M": self.mspec.M,
            "M1": self.mspec.M1,
            "K": self.K,
            "R": self.tparams.R,
            "H": self.tparams.H,
            "margin": self.tparams.margin,
            "fiber_bound": self.fiber_bound,
            "gamma_variant": self.sparams.gamma_variant.value,
            "sample_count": self.config.sample_count,
            "seed": self.config.seed,
        }


def resolve(config: ExperimentConfig) -> ResolvedParams:
    numbers = select_factor_numbers(config)
    mspec = resolve_marker(config, numbers)
    tparams = resolve_tiling(numbers, mspec)
    sparams = SignalParams.from_tiling(tparams, numbers.m, config.gamma_variant)
    return ResolvedParams(
        config=config, numbers=numbers, mspec=mspec, tparams=tparams, sparams=sparams
    )


# ---------------------------------------------------------------------------
# JSON layer


_AUTO = ("auto", None)


def _frac_of(v, what: str) -> Fraction:
    if isinstance(v, (str, int)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"bad fraction for {what}: {v!r}") from exc
    raise ConfigurationError(f'{what} must be a string fraction like "1/400"')


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ConfigurationError(f'config schema must be "{SCHEMA}"')
    known = {"schema", "system", "marker", "tiling", "factor", "sampling", "outputs"}
    extra = set(doc) - known
    if extra:
        raise ConfigurationError(f"unknown config sections: {sorted(extra)}")

    sysd = doc.get("system") or {}
    theta = sysd.get("theta")
    try:
        system = SystemSpec(
            D=int(sysd.get("D", 1)),
            theta=_frac_of(theta, "system.theta") if theta is not None else GOLDEN_THETA,
            window_radius=int(sysd.get("window_radius", 64)),
            decay=float(sysd.get("decay", 0.5)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad system section: {exc}") from exc

    tld = doc.get("tiling") or {}
    if "delta" not in tld:
        raise ConfigurationError("tiling.delta is required")
    fac = doc.get("factor") or {}
    if "eps" not in fac:
        raise ConfigurationError("factor.eps is required")
    mk = doc.get("marker") or {}
    smp = doc.get("sampling") or {}
    out = doc.get("outputs") or {}

    def opt(sec, key, conv):
        v = sec.get(key, "auto")
        if v in _AUTO:
            return None
        try:
            return conv(v)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for {key}: {v!r}") from exc

    variant = fac.get("gamma_variant", GammaVariant.MAX_AT_ZERO.value)
    try:
        variant = GammaVariant(variant)
    except ValueError as exc:
        raise ConfigurationError(f"unknown gamma variant {variant!r}") from exc

    return ExperimentConfig(
        system=system,
        delta=float(tld["delta"]),
        eps=float(fac["eps"]),
        arc_center=_frac_of(mk.get("arc_center", "0"), "marker.arc_center"),
        arc_radius=None
        if mk.get("arc_radius", "auto") in _AUTO
        else _frac_of(mk["arc_radius"], "marker.arc_radius"),
        inner_radius=None
        if mk.get("inner_radius", "auto") in _AUTO
        else _frac_of(mk["inner_radius"], "marker.inner_radius"),
        tiling_r=opt(tld, "r", float),
        tiling_c=opt(tld, "c", float),
        n_horizon=opt(fac, "n_horizon", int),
        m=opt(fac, "m", int),
        delta_prime=opt(fac, "delta_prime", float),
        gamma_variant=variant,
        sample_count=int(smp.get("count", 200)),
        seed=int(smp.get("seed", 0)),
        out_dir=out.get("dir"),
    )


def config_to_json(config: ExperimentConfig) -> dict:
    def frac_or_auto(v):
        return "auto" if v is None else str(v)

    def num_or_auto(v):
        return "auto" if v is None else v

    return {
        "schema": SCHEMA,
        "system": {
            "D": config.system.D,
            "theta": str(config.system.theta),
            "window_radius": config.system.window_radius,
            "decay": config.system.decay,
        },
        "marker": {
            "arc_center": str(config.arc_center),
            "arc_radius": frac_or_auto(config.arc_radius),
            "inner_radius": frac_or_auto(config.inner_radius),
        },
        "tiling": {
            "delta": config.delta,
            "r": num_or_auto(config.tiling_r),
            "c": num_or_auto(config.tiling_c),
        },
        "factor": {
            "eps": config.eps,
            "n_horizon": num_or_auto(config.n_horizon),
            "m": num_or_auto(config.m),
            "delta_prime": num_or_auto(config.delta_prime),
            "gamma_variant": config.gamma_variant.value,
        },
        "sampling": {"count": config.sample_count, "seed": config.seed},
        "outputs": {"dir": config.out_dir},
    }


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_json(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
