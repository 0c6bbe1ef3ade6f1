"""Test statistics, decision rules, and Monte Carlo calibration."""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    _null_cdf_table,
    kolmogorov_quantile,
    kolmogorov_sf,
    normal_cdf,
    null_inner_cdf,
    packing_gumbel_cdf,
)
from .errors import BadTailError, CalibrationUnavailableError, DomainError
from .points import InnerProductList, UnitPointSet
from .samplers import RngSeed, Uniform, sample, sample_uniform_direction

SUP_DISTANCE = "sup_distance"
RAYLEIGH = "rayleigh"
BINGHAM = "bingham"
PACKING = "packing"
PROJECTION = "projection"
METHODS = (SUP_DISTANCE, RAYLEIGH, BINGHAM, PACKING, PROJECTION)
TAILS = ("upper", "two-sided")
CALIBRATIONS = ("asymptotic", "monte-carlo")


def sup_cdf_distance(values, cdf_values) -> float:
    """Exact sup_t |F_N(t) - F(t)| for a continuous reference CDF F.

    `values` must be sorted ascending and `cdf_values` = F(values).
    Uses the one-sided pair max(i/N - F_i, F_i - (i-1)/N); ties
    contribute a single jump of combined mass automatically.
    """
    f = np.asarray(cdf_values, dtype=float)
    n = len(f)
    if n == 0:
        raise DomainError("need at least one value")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


# (smallest N, block widths): sup_null_distance bounds the blocks of a
# grid of the first width and splits the surviving blocks at each further
# width, down to single values; below 1024 values the grid is every
# value.  Chosen from timings on sorted uniform, FvML and Watson pairwise
# inner products at N from 66 to 500k, with p from 12 to 5000.
_SUP_BLOCKS = ((1 << 16, (64, 8, 1)), (1 << 14, (32, 8, 1)), (1 << 10, (8, 1)), (0, (1,)))
# betainc is monotone in x only to a few ulps; every bound gets this slack
_MONOTONE_SLACK = 1e-12


def sup_null_distance(values, p: int) -> float:
    """Exactly `sup_cdf_distance(values, null_inner_cdf(values, p))`.

    `values` must be sorted ascending.  The per-p table `_null_cdf_table`
    brackets F = null_inner_cdf at any value, lo <= F_j <= hi, without
    betainc.  So the term max((j+1)/N - F_j, F_j - j/N) of value j
    (0-based) is at least max((j+1)/N - hi, lo - j/N) and at most
    u(j) = max((j+1)/N - lo, hi - j/N).  As F is monotone, every term of
    a block v[a..b] is at most (b-a)/N plus the larger of (a+1)/N - lo_a
    and hi_b - b/N.  A block is split, and at the last level bounded
    value by value, only while its bound still reaches the largest lower
    bound found so far.  F is evaluated exactly on the first and last value
    and on the values whose u still reaches it, and the result is the
    maximum of their terms: the same per-value terms as
    `sup_cdf_distance` and so the same float.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n == 0:
        raise DomainError("need at least one value")
    knots, lower, upper = _null_cdf_table(p)
    best = -1.0

    def bounds(j):
        """(j+1)/N - lo and hi - j/N at every index of j; raises `best`
        to the largest lower bound of a term among them."""
        nonlocal best
        i = np.searchsorted(knots, v[j], side="right")
        lo, hi = lower[i], upper[i]
        x, y = (j + 1) / n, j / n
        best = max(best, np.max(x - hi), np.max(lo - y))
        return x - lo, hi - y

    widths = next(w for lo, w in _SUP_BLOCKS if n >= lo)
    width = widths[0]
    j = np.arange(0, n - 1 + width, width)
    j[-1] = n - 1
    over, under = bounds(j)
    for step in widths[1:]:
        # block k runs from j[..., k] to j[..., k+1], at most `width` apart
        keep = np.maximum(over[..., :-1], under[..., 1:]) + width / n >= best - _MONOTONE_SLACK
        j = np.minimum(j[..., :-1][keep][:, None] + np.arange(0, width + 1, step), n - 1)
        over, under = bounds(j)
        width = step
    # the ends also check that every value lies in [-1, 1]
    j = np.append(j[np.maximum(over, under) >= best - _MONOTONE_SLACK], (0, n - 1))
    fj = null_inner_cdf(v[j], p)
    return float(max(np.max((j + 1) / n - fj), np.max(fj - j / n)))


def statistic_sup_distance(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """Sup distance between the empirical pairwise inner-product CDF and
    the exact null CDF.  Always in [0, 1]."""
    ip = ip if ip is not None else s.inner_products
    return sup_null_distance(ip.values, s.p)


def statistic_rayleigh(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """sqrt(2p)/n times the sum of pairwise inner products (N(0,1) null limit)."""
    ip = ip if ip is not None else s.inner_products
    return float(math.sqrt(2.0 * s.p) / s.n * np.sum(ip.values))


def statistic_bingham(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """p/n times the centered sum of squared pairwise inner products."""
    ip = ip if ip is not None else s.inner_products
    v = ip.values
    return float(s.p / s.n * (np.sum(v * v) - len(v) / s.p))


def statistic_packing(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """p max_{i<j} (X_i.X_j)^2 - 4 log n + log log n (Gumbel null limit).

    Needs n >= 3 so that log log n is defined.
    """
    if s.n < 3:
        raise DomainError("packing statistic needs n >= 3")
    ip = ip if ip is not None else s.inner_products
    v = ip.values
    return float(s.p * np.max(v * v) - 4.0 * math.log(s.n) + math.log(math.log(s.n)))


def statistic_projection(s: UnitPointSet, direction) -> float:
    """One-sample sup distance of the projections X_i.u against the null
    coordinate CDF (a fixed unit vector dotted with a uniform point)."""
    u = np.asarray(direction, dtype=float)
    if u.shape != (s.p,) or abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise DomainError("direction must be a unit p-vector")
    proj = np.sort(np.clip(s.data @ u, -1.0, 1.0))
    return sup_null_distance(proj, s.p)


_STAT_FUNCS = {
    SUP_DISTANCE: statistic_sup_distance,
    RAYLEIGH: statistic_rayleigh,
    BINGHAM: statistic_bingham,
    PACKING: statistic_packing,
}


def _scores(s: UnitPointSet, methods, rng) -> dict[str, float]:
    """Each of `methods` on one sample; projection draws its direction
    from `rng`, after whatever drew the sample."""
    return {
        meth: statistic_projection(s, sample_uniform_direction(s.p, rng))
        if meth == PROJECTION
        else _STAT_FUNCS[meth](s)
        for meth in methods
    }


def _replicate(
    model, n: int, methods, reps: int, rng_of, threads: int = 1
) -> dict[str, np.ndarray]:
    """Each of `methods` on `reps` samples of n points from `model`.

    Replication r draws its sample, and then projection's direction,
    from `rng_of(r)`, so the result does not depend on `threads`.
    """
    out = {m: np.empty(reps) for m in methods}

    def one(r):
        rng = rng_of(r)
        for m, v in _scores(sample(model, n, rng), methods, rng).items():
            out[m][r] = v

    if threads <= 1:
        for r in range(reps):
            one(r)
    else:
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(reps)))
    return out


@dataclass(frozen=True)
class TestOutcome:
    """Result of one uniformity test on one sample."""

    method: str
    statistic: float
    standardized: float
    p_value: float
    reject: bool
    alpha: float
    tail: str
    calibration: str

    def csv_row(self) -> str:
        return (
            f"{self.method},{self.statistic:.10g},{self.standardized:.10g},"
            f"{self.p_value:.10g},{int(self.reject)},{self.alpha:.10g},"
            f"{self.tail},{self.calibration}"
        )

    @staticmethod
    def csv_header() -> str:
        return "method,statistic,standardized,p_value,reject,alpha,tail,calibration"


class NullLaw(NamedTuple):
    """A method's asymptotic null law and the tails its test may use.

    `upper(stat, n)` is P(T >= stat) under the null, elementwise on an
    array of statistics from samples of size n.
    """

    upper: Callable
    tails: tuple[str, ...]


NULL_LAWS = {
    SUP_DISTANCE: NullLaw(lambda t, n: kolmogorov_sf(math.sqrt(n * (n - 1) / 2.0) * t), ("upper",)),
    RAYLEIGH: NullLaw(lambda t, n: 1.0 - normal_cdf(t), TAILS),
    BINGHAM: NullLaw(lambda t, n: 1.0 - normal_cdf(t), TAILS),
    PACKING: NullLaw(lambda t, n: 1.0 - packing_gumbel_cdf(t), TAILS),
    PROJECTION: NullLaw(lambda t, n: kolmogorov_sf(math.sqrt(n) * t), ("upper",)),
}


def _check_tail(method: str, tail: str) -> None:
    if tail not in TAILS:
        raise BadTailError(f"{method} tail must be 'upper' or 'two-sided', got {tail!r}")
    if tail not in NULL_LAWS[method].tails:
        raise BadTailError(f"{method} is upper-tailed only")


def p_values(method: str, stats, n: int, tail: str = "upper", null=None):
    """p-values of `method`'s statistics (a scalar or an array) at sample size n.

    The upper p-value is P(T >= t) under the asymptotic law in
    `NULL_LAWS` when `null=None`, and (1 + #{null >= t}) / (R + 1) given
    R null statistics.  Two-sided tails are equal-tailed on both kinds:
    min(1, 2 min(up, low)), with low = P(T < t) asymptotically and
    (1 + #{null <= t}) / (R + 1) for Monte Carlo.  Every test, in
    `run_test` and in the harness, rejects iff its p-value is <= alpha.
    """
    t = np.asarray(stats, dtype=float)
    if null is None:
        up = NULL_LAWS[method].upper(t, n)
        low = 1.0 - up
    else:
        ref = np.sort(null)
        up = (1 + len(ref) - np.searchsorted(ref, t, side="left")) / (len(ref) + 1)
        low = (1 + np.searchsorted(ref, t, side="right")) / (len(ref) + 1)
    out = up if tail == "upper" else np.minimum(1.0, 2.0 * np.minimum(up, low))
    return float(out) if np.ndim(out) == 0 else out


def run_test(
    s: UnitPointSet,
    method: str,
    alpha: float = 0.05,
    tail: str = "upper",
    calibration: str = "asymptotic",
    direction=None,
    mc_reps: int = 2000,
    mc_seed=None,
    rng=None,
) -> TestOutcome:
    """Run one named test at level alpha and package the decision.

    The test rejects iff its p-value (`p_values`) is <= alpha.  For the
    sup-distance test the asymptotic rule is reject iff
    T_n >= sqrt(2) c_alpha / sqrt(n(n-1)).  `calibration="monte-carlo"`
    instead draws `mc_reps` seeded null samples and takes the p-value
    (1 + #{null >= T}) / (mc_reps + 1), equal-tailed for two-sided tails.
    A bad method, alpha, tail, calibration, mc_reps or mc_seed raises
    before any work, so such a call leaves `rng` untouched.
    """
    requests = ((method, tail),)
    return _run_tests(s, requests, alpha, calibration, direction, mc_reps, mc_seed, rng)[0]


def _run_tests(
    s: UnitPointSet, requests, alpha, calibration, direction, mc_reps, mc_seed, rng
) -> list[TestOutcome]:
    """`run_test` for each (method, tail) of `requests`, in order.

    Projection statistics draw their directions from `rng` in request
    order, and one Monte Carlo null pass scores every method, so each
    outcome equals its own `run_test` call made in the same order.
    """
    for method, _ in requests:
        if method not in METHODS:
            raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    for method, tail in requests:
        _check_tail(method, tail)
    if calibration not in CALIBRATIONS:
        raise DomainError(f"calibration must be 'asymptotic' or 'monte-carlo', got {calibration!r}")
    if calibration == "monte-carlo":
        if mc_seed is None:
            raise CalibrationUnavailableError(
                "monte-carlo calibration needs mc_seed for reproducible null draws"
            )
        _mc_master(mc_reps, mc_seed)

    stats = []
    for method, _ in requests:
        if method == PROJECTION:
            u = direction
            if u is None:
                u = sample_uniform_direction(
                    s.p, rng if rng is not None else np.random.default_rng()
                )
            stats.append(statistic_projection(s, u))
        else:
            stats.append(_STAT_FUNCS[method](s))

    nulls, label = {}, "asymptotic"
    if calibration == "monte-carlo":
        # a method listed twice is scored once, as its own pass would score it
        methods = tuple(dict.fromkeys(m for m, _ in requests))
        nulls = _null_statistics(s.n, s.p, methods, mc_reps, mc_seed)
        label = f"monte-carlo(reps={mc_reps},seed={mc_seed})"
    out = []
    for (method, tail), stat in zip(requests, stats):
        standardized = math.sqrt(s.n * (s.n - 1) / 2.0) * stat if method == SUP_DISTANCE else stat
        p_value = p_values(method, stat, s.n, tail, nulls.get(method))
        out.append(TestOutcome(method, stat, standardized, p_value, p_value <= alpha,
                               alpha, tail, label))
    return out


def _mc_master(reps: int, seed) -> int:
    """The master seed of a Monte Carlo null pass of `reps` replications.

    Replication r draws from `RngSeed(master, r)`, so the seed is an int
    or an `RngSeed` of stream 0; both give the same null samples.
    """
    if reps < 1:
        raise DomainError(f"mc_reps must be >= 1, got {reps}")
    if isinstance(seed, RngSeed):
        if seed.stream != 0:
            raise DomainError(
                f"mc_seed: null replication r draws from stream r, so an RngSeed "
                f"must have stream 0, got {seed}"
            )
        return seed.master
    return int(seed)


def _null_statistics(
    n: int, p: int, methods, reps: int, seed, threads: int = 1
) -> dict[str, np.ndarray]:
    """Each of `methods` on `reps` seeded null samples, scored in one pass."""
    master = _mc_master(reps, seed)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown method {unknown[0]!r}; choose from {METHODS}")
    return _replicate(Uniform(p), n, methods, reps,
                      lambda r: RngSeed(master, r).generator(), threads)


def calibrate_critical_value_mc(
    n: int, p: int, method: str, alpha: float, reps: int, seed
) -> float:
    """Empirical (1-alpha) quantile of the null statistic over `reps`
    seeded replications; alpha = 1 returns the smallest observed value."""
    if reps < 1000:
        raise DomainError("calibration needs reps >= 1000")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    stats = _null_statistics(n, p, (method,), reps, seed)[method]
    return float(np.quantile(stats, 1.0 - alpha, method="higher"))


def sup_distance_critical_value(n: int, alpha: float) -> float:
    """sqrt(2) c_alpha / sqrt(n(n-1)), the exact asymptotic threshold."""
    return math.sqrt(2.0) * kolmogorov_quantile(alpha) / math.sqrt(n * (n - 1.0))
