"""Seeded Monte Carlo experiment engine: size, null-law checks, power
curves, non-local experiments, and CSV/JSON persistence."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .errors import BadTailError, ConfigError, InRegimeError, ParseError
from .samplers import AlphaSpherical, CapMixture, Fvml, LowRank, Uniform, Watson, _master
from .statistics import (
    BINGHAM,
    CALIBRATIONS,
    METHODS,
    PACKING,
    RAYLEIGH,
    SUP_DISTANCE,
    _check_tail,
    _null_statistics,
    _replicate,
    p_values,
    sup_cdf_distance,
)

_FAMILIES = ("uniform", "fvml", "watson", "lowrank", "alphaspherical", "capmixture")
_FAMILY_ID = {name: i for i, name in enumerate(_FAMILIES)}
_POWER_FAMILIES = ("uniform", "fvml", "watson", "lowrank")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: int
    alpha: float
    reps: int
    model_family: str
    signal_grid: tuple[float, ...]
    methods: tuple[str, ...]
    seed: int
    tails: dict | None = None
    calibration: str = "asymptotic"

    def __post_init__(self):
        if self.n < 2 or self.p < 2:
            raise ConfigError(f"field n/p: need n >= 2 and p >= 2, got ({self.n}, {self.p})")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"field alpha: must be in (0, 1), got {self.alpha}")
        if self.reps < 100:
            raise ConfigError(f"field reps: need >= 100, got {self.reps}")
        _master(self.seed, ConfigError, "field seed")
        if self.model_family not in _FAMILIES:
            raise ConfigError(f"field model_family: unknown family {self.model_family!r}")
        if not all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                   for t in self.signal_grid):
            raise ConfigError(
                f"field signal_grid: every entry must be a number, got {self.signal_grid!r}"
            )
        grid = tuple(float(t) for t in self.signal_grid)
        if not grid:
            raise ConfigError("field signal_grid: must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("field signal_grid: must be strictly increasing")
        object.__setattr__(self, "signal_grid", grid)
        methods = tuple(self.methods)
        if not methods or any(m not in METHODS for m in methods):
            raise ConfigError(f"field methods: must be a nonempty subset of {METHODS}")
        object.__setattr__(self, "methods", methods)
        if PACKING in methods and self.n < 3:
            raise ConfigError(f"field n: the packing statistic needs n >= 3, got {self.n}")
        for meth, tail in (self.tails or {}).items():
            if meth not in methods:
                raise ConfigError(f"field tails: {meth!r} is not one of methods {methods}")
            try:
                _check_tail(meth, tail)
            except BadTailError as exc:
                raise ConfigError(f"field tails: {exc}") from None
        if self.calibration not in CALIBRATIONS:
            raise ConfigError(f"field calibration: got {self.calibration!r}")
        # mapped parameters must be in-regime for every grid point
        if self.model_family in _POWER_FAMILIES:
            for tau in grid:
                signal_model(self.model_family, self.n, self.p, tau)

    def tail_for(self, method: str) -> str:
        if self.tails and method in self.tails:
            return self.tails[method]
        return "upper"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


_CONFIG_FIELDS = {
    "n": int,
    "p": int,
    "alpha": float,
    "reps": int,
    "model_family": str,
    "signal_grid": list,
    "methods": list,
    "seed": int,
    "tails": (dict, type(None)),
    "calibration": str,
}
_REQUIRED_FIELDS = tuple(
    f.name for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
)


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from JSON, naming the offending field on error."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in _REQUIRED_FIELDS:
        if key not in raw:
            raise ParseError(f"{path}: missing field {key!r}")
    for key, val in raw.items():
        want = _CONFIG_FIELDS.get(key)
        if want is None:
            raise ParseError(f"{path}: unknown field {key!r}")
        # no field is a bool, and JSON's true and false would pass for the ints 1 and 0
        want = want if isinstance(want, tuple) else (want,)
        if isinstance(val, bool) or not isinstance(val, want):
            raise ParseError(f"{path}: field {key!r} has wrong type {type(val).__name__}")
    for x in raw["signal_grid"]:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"{path}: field 'signal_grid' has an entry {json.dumps(x)} "
                             "that is not a number")
    kwargs = {k: raw[k] for k in raw}
    kwargs["signal_grid"] = tuple(float(x) for x in raw["signal_grid"])
    kwargs["methods"] = tuple(raw["methods"])
    return ExperimentConfig(**kwargs)


def signal_model(family: str, n: int, p: int, tau: float):
    """Map a signal value tau to a concrete model of the family.

    fvml:    kappa = tau p^{3/4} / sqrt(n)
    watson:  kappa = p^{3/2} sqrt(tau) / (2 (sqrt(n) + sqrt(tau p)))
    lowrank: k = round(p (1 - tau/n))
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ConfigError(f"field signal_grid: tau must be finite and >= 0, got {tau}")
    if family == "uniform":
        return Uniform(p)
    if family == "fvml":
        kappa = tau * p**0.75 / math.sqrt(n)
        return Fvml(p, kappa) if kappa > 0 else Uniform(p)
    if family == "watson":
        if tau == 0:
            return Uniform(p)
        kappa = p**1.5 * math.sqrt(tau) / (2.0 * (math.sqrt(n) + math.sqrt(tau * p)))
        if kappa >= p / 2.0:
            raise InRegimeError(f"watson kappa={kappa:.2f} >= p/2 at tau={tau}")
        if p < 5.0 * n ** (2.0 / 3.0):
            warnings.warn(
                f"watson regime is marginal at n={n}, p={p}; local-limit "
                "approximations may be loose",
                stacklevel=2,
            )
        return Watson(p, kappa)
    if family == "lowrank":
        k = int(round(p * (1.0 - tau / n)))
        if tau > 0 and k >= p:
            k = p - 1
        if k < 2:
            raise InRegimeError(f"lowrank k={k} < 2 at tau={tau}")
        return LowRank(p, min(k, p))
    raise ConfigError(f"family {family!r} has no signal map; use run_nonlocal_experiment")


# ---------------------------------------------------------------------------
# seeds


def _calibration_seed(master: int) -> int:
    return int.from_bytes(hashlib.sha256(f"calib:{master}".encode()).digest()[:6], "big")


def _cell_rng(master: int, family: str, tau_idx: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master, spawn_key=(_FAMILY_ID[family], tau_idx, rep))
    )


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class PowerCell:
    family: str
    tau: float
    method: str
    rate: float
    se: float
    reps: int


@dataclass(frozen=True)
class PowerCurve:
    cells: tuple[PowerCell, ...]
    seed: int
    config_hash: str
    wall_clock: float = field(compare=False, default=0.0)

    def rate(self, tau: float, method: str) -> float:
        for c in self.cells:
            if c.method == method and math.isclose(c.tau, tau):
                return c.rate
        raise KeyError((tau, method))

    def csv_rows(self):
        for c in self.cells:
            yield f"{c.family},{c.tau:.10g},{c.method},{c.rate:.10g},{c.se:.10g},{c.reps},{self.seed}"

    @staticmethod
    def csv_header() -> str:
        return "family,tau,method,rate,se,reps,seed"


def export_csv(result, path) -> None:
    """Write a result (anything with csv_rows/csv_header) as CSV."""
    lines = [result.csv_header()]
    lines.extend(result.csv_rows())
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiments


def _check_threads(threads: int) -> None:
    """Every experiment runs its replications on `threads` >= 1 threads."""
    if threads < 1:
        raise ConfigError(f"field threads: need >= 1, got {threads}")


def run_power_curve(cfg: ExperimentConfig, threads: int = 1) -> PowerCurve:
    """Rejection rate per (tau, method) over cfg.reps fresh samples each."""
    _check_threads(threads)
    if cfg.model_family not in _POWER_FAMILIES:
        raise ConfigError(
            f"field model_family: power curves support {_POWER_FAMILIES}, "
            f"got {cfg.model_family!r}"
        )
    t0 = time.monotonic()
    null = {}
    if cfg.calibration == "monte-carlo":
        null = _null_statistics(
            cfg.n, cfg.p, cfg.methods, max(1000, cfg.reps), _calibration_seed(cfg.seed),
            threads,
        )
    cells = []
    for tau_idx, tau in enumerate(cfg.signal_grid):
        model = signal_model(cfg.model_family, cfg.n, cfg.p, tau)
        stats = _replicate(
            model, cfg.n, cfg.methods, cfg.reps,
            lambda r: _cell_rng(cfg.seed, cfg.model_family, tau_idx, r), threads,
        )
        for meth in cfg.methods:
            pv = p_values(meth, stats[meth], cfg.n, cfg.tail_for(meth), null.get(meth))
            rate = int(np.count_nonzero(pv <= cfg.alpha)) / cfg.reps
            se = math.sqrt(rate * (1.0 - rate) / cfg.reps)
            cells.append(PowerCell(cfg.model_family, tau, meth, rate, se, cfg.reps))
    return PowerCurve(tuple(cells), cfg.seed, cfg.config_hash(), time.monotonic() - t0)


def run_size_experiment(cfg: ExperimentConfig, threads: int = 1) -> PowerCurve:
    """Null rejection rates: the power curve of the uniform model at tau=0."""
    null_cfg = replace(cfg, model_family="uniform", signal_grid=(0.0,))
    return run_power_curve(null_cfg, threads=threads)


def run_null_distribution_check(n: int, p: int, reps: int, seed, threads: int = 1) -> float:
    """KS distance between the law of the standardized sup statistic over
    `reps` null replications and its Brownian-bridge limit."""
    if reps < 100:
        raise ConfigError(f"field reps: need >= 100, got {reps}")
    _check_threads(threads)
    master = _master(seed, ConfigError, "field seed")
    stats = _replicate(Uniform(p), n, (SUP_DISTANCE,), reps,
                       lambda r: _cell_rng(master, "uniform", 0, r), threads)
    stats = np.sort(stats[SUP_DISTANCE])
    # the limit law's CDF at each statistic is 1 - its asymptotic p-value
    return sup_cdf_distance(stats, 1.0 - p_values(SUP_DISTANCE, stats, n))


@dataclass(frozen=True)
class NonlocalResult:
    kind: str
    n: int
    p: int
    alpha: float
    reps: int
    seed: int
    rates: dict[str, float]
    mean_rayleigh: float
    mean_abs_rayleigh: float
    se_abs_rayleigh: float
    share_bingham_negative: float
    share_packing_below_alpha_quantile: float

    def csv_rows(self):
        for meth, rate in self.rates.items():
            se = math.sqrt(rate * (1.0 - rate) / self.reps)
            yield f"{self.kind},0,{meth},{rate:.10g},{se:.10g},{self.reps},{self.seed}"

    csv_header = staticmethod(PowerCurve.csv_header)


def run_nonlocal_experiment(
    kind: str,
    n: int,
    p: int,
    alpha: float,
    reps: int,
    seed,
    model_param: float | None = None,
    threads: int = 1,
) -> NonlocalResult:
    """All four tests against a non-local alternative, plus diagnostics.

    kind "capmixture" requires p >= 2 n^2; `model_param` is the cap
    width (default 1/(4p)).  Two of the n draws share one of the p + 1
    caps with probability 1 - exp(-n(n-1)/(2(p+1))), and one such pair
    pushes the Bingham and packing statistics past their upper critical
    values.  At the boundary p = 2 n^2 that probability is about 0.22,
    and both tests reject at about that rate; the moment-based and
    packing tests stay near level only when p/n^2 is large (e.g. n = 20,
    p = 5000 gives 0.037).  A UserWarning gives the probability when
    n(n-1)/(2(p+1)) exceeds 0.05.  kind "alphaspherical" takes the tail
    index as `model_param` (default 1.0).  The packing statistic needs
    n >= 3, and the standard error of |Rayleigh| needs reps >= 2.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"field alpha: must be in (0, 1), got {alpha}")
    if reps < 2:
        raise ConfigError(f"field reps: need >= 2, got {reps}")
    _check_threads(threads)
    if n < 3:
        raise ConfigError(f"the packing statistic needs n >= 3, got n={n}")
    master = _master(seed, ConfigError, "field seed")
    if kind == "capmixture":
        if p < 2 * n * n:
            raise ConfigError(f"capmixture needs p >= 2 n^2, got n={n}, p={p}")
        shared = n * (n - 1) / (2.0 * (p + 1))
        if shared > 0.05:
            warnings.warn(
                f"capmixture at n={n}, p={p}: two draws share a cap with probability "
                f"{-math.expm1(-shared):.3f}, and the Bingham and packing tests reject "
                "at about that rate",
                stacklevel=2,
            )
        model = CapMixture(p, model_param)
    elif kind == "alphaspherical":
        model = AlphaSpherical(p, 1.0 if model_param is None else model_param)
    else:
        raise ConfigError(f"unknown nonlocal kind {kind!r}")
    methods = (SUP_DISTANCE, RAYLEIGH, BINGHAM, PACKING)
    stats = _replicate(model, n, methods, reps, lambda r: _cell_rng(master, kind, 0, r), threads)
    pv = {meth: p_values(meth, stats[meth], n) for meth in methods}
    rates = {meth: int(np.count_nonzero(pv[meth] <= alpha)) / reps for meth in methods}
    r_vals, b_vals = stats[RAYLEIGH], stats[BINGHAM]
    return NonlocalResult(
        kind=kind,
        n=n,
        p=p,
        alpha=alpha,
        reps=reps,
        seed=master,
        rates=rates,
        mean_rayleigh=float(np.mean(r_vals)),
        mean_abs_rayleigh=float(np.mean(np.abs(r_vals))),
        se_abs_rayleigh=float(np.std(np.abs(r_vals), ddof=1) / math.sqrt(reps)),
        share_bingham_negative=float(np.mean(b_vals < 0)),
        # below the null's lower alpha-quantile: P(T >= stat) > 1 - alpha
        share_packing_below_alpha_quantile=float(np.mean(pv[PACKING] > 1.0 - alpha)),
    )
