"""Test statistics, decision rules, and Monte Carlo calibration."""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    _CLAMP_SLACK,
    _null_cdf_core,
    _null_cdf_table,
    kolmogorov_quantile,
    kolmogorov_sf,
    normal_cdf,
    packing_gumbel_cdf,
)
from .errors import BadTailError, CalibrationUnavailableError, DomainError, _integer, _real
from .points import InnerProductList, UnitPointSet, _row_norms, _sorted_pairs
from .samplers import RngSeed, Uniform, _draw_block, _master, sample_uniform_direction

SUP_DISTANCE = "sup_distance"
RAYLEIGH = "rayleigh"
BINGHAM = "bingham"
PACKING = "packing"
PROJECTION = "projection"
METHODS = (SUP_DISTANCE, RAYLEIGH, BINGHAM, PACKING, PROJECTION)
OMNIBUS = METHODS[:4]  # the tests of the pairwise inner products
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

    `values` must be sorted ascending.  The one-row case of
    `_sup_null_rows`, which says how the terms are bracketed.
    """
    return float(_sup_null_rows(np.asarray(values, dtype=float)[None], p)[0])


def _sup_null_rows(values: np.ndarray, p: int) -> np.ndarray:
    """`sup_null_distance` of every row of `values` (R, N), each row sorted
    ascending, with one unchecked null CDF evaluation for all R rows.

    The per-p table `_null_cdf_table` brackets F = null_inner_cdf at any
    value, lo <= F_j <= hi, without betainc.  So the term
    max((j+1)/N - F_j, F_j - j/N) of value j (0-based) of a row is at
    least max((j+1)/N - hi, lo - j/N) and at most
    u(j) = max((j+1)/N - lo, hi - j/N).  As F is monotone, every term of
    a block v[a..b] is at most (b-a)/N plus the larger of (a+1)/N - lo_a
    and hi_b - b/N.  A block is split, and at the last level bounded
    value by value, only while its bound still reaches the largest lower
    bound found so far in its own row.  F is evaluated exactly on each
    row's first and last value and on the values whose u still reaches
    that row's lower bound; a row's result is the maximum of their
    terms: the same per-value terms as `sup_cdf_distance` and so the
    same float.  A row is sorted, so its first and last values bound it:
    one more than 1e-12 outside [-1, 1] raises DomainError, as
    `null_inner_cdf` would, before any bound is taken.  A row holding a
    NaN gives NaN.
    """
    rows, n = values.shape
    if n == 0:
        raise DomainError("need at least one value")
    # fmin and fmax skip NaN, so one row's NaN cannot hide another row's end
    first, last = np.fmin.reduce(values[:, 0]), np.fmax.reduce(values[:, -1])
    if first < -1 - _CLAMP_SLACK or last > 1 + _CLAMP_SLACK:
        raise DomainError("t outside [-1, 1]")
    knots, lower, upper = _null_cdf_table(p)
    flat = values.ravel()
    best = np.full(rows, -1.0)

    def bounds(r, j):
        """(j+1)/N - lo and hi - j/N at the indices j (K, m) of the rows r
        (K,), which run in ascending order; raises each row's `best` to
        the largest lower bound of a term among its indices."""
        i = np.searchsorted(knots, flat[(r * n)[:, None] + j], side="right")
        lo, hi = lower[i], upper[i]
        x, y = (j + 1) / n, j / n
        # one max per run of equal r, over its index rows laid end to end
        first = np.empty(len(r), dtype=bool)
        first[0] = True
        np.not_equal(r[1:], r[:-1], out=first[1:])
        first = np.flatnonzero(first)
        low = np.maximum.reduceat(np.maximum(x - hi, lo - y).ravel(), first * j.shape[1])
        np.maximum.at(best, r[first], low)
        return x - lo, hi - y

    widths = next(w for lo, w in _SUP_BLOCKS if n >= lo)
    width = widths[0]
    grid = np.arange(0, n - 1 + width, width)
    grid[-1] = n - 1
    r, j = np.arange(rows), grid[None].repeat(rows, axis=0)
    over, under = bounds(r, j)
    for step in widths[1:]:
        # block k of index row i runs from j[i, k] to j[i, k+1], at most `width` apart
        reach = (best[r] - _MONOTONE_SLACK)[:, None]
        ki, kk = np.nonzero(np.maximum(over[:, :-1], under[:, 1:]) + width / n >= reach)
        r = r[ki]
        j = np.minimum(j[ki, kk][:, None] + np.arange(0, width + 1, step), n - 1)
        over, under = bounds(r, j)
        width = step
    ki, kk = np.nonzero(np.maximum(over, under) >= (best[r] - _MONOTONE_SLACK)[:, None])
    r = np.concatenate([r[ki], np.arange(rows).repeat(2)])
    j = np.concatenate([j[ki, kk], np.tile((0, n - 1), rows)])
    fj = flat[r * n + j]
    _null_cdf_core(fj, p, fj)
    out = np.full(rows, -np.inf)
    np.maximum.at(out, r, np.maximum((j + 1) / n - fj, fj - j / n))
    return out


def _rayleigh(values, n: int, p: int):
    return math.sqrt(2.0 * p) / n * np.sum(values, axis=-1)


def _bingham(values, n: int, p: int):
    return p / n * (np.sum(values * values, axis=-1) - values.shape[-1] / p)


def _packing(values, n: int, p: int):
    if n < 3:
        raise DomainError("packing statistic needs n >= 3")
    return p * np.max(values * values, axis=-1) - 4.0 * math.log(n) + math.log(math.log(n))


def _projections(x: np.ndarray, directions: np.ndarray, p: int) -> np.ndarray:
    """The projection statistic of each sample x[k] (b, n, p) on the unit
    vector directions[k] (b, p)."""
    proj = np.matmul(x, directions[..., None])[..., 0]
    np.clip(proj, -1.0, 1.0, out=proj)
    proj.sort(axis=-1)
    return _sup_null_rows(proj, p)


def _pairwise(method: str, s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """`method`'s `NULL_LAWS` rows of `ip`, or of `s.inner_products`, as a stack of one."""
    ip = ip if ip is not None else s.inner_products
    return float(NULL_LAWS[method].rows(ip.values[None], s.n, s.p)[0])


def statistic_sup_distance(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """Sup distance between the empirical pairwise inner-product CDF and
    the exact null CDF.  Always in [0, 1]."""
    return _pairwise(SUP_DISTANCE, s, ip)


def statistic_rayleigh(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """sqrt(2p)/n times the sum of pairwise inner products (N(0,1) null limit)."""
    return _pairwise(RAYLEIGH, s, ip)


def statistic_bingham(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """p/n times the centered sum of squared pairwise inner products."""
    return _pairwise(BINGHAM, s, ip)


def statistic_packing(s: UnitPointSet, ip: InnerProductList | None = None) -> float:
    """p max_{i<j} (X_i.X_j)^2 - 4 log n + log log n (Gumbel null limit).

    Needs n >= 3 so that log log n is defined.
    """
    return _pairwise(PACKING, s, ip)


def statistic_projection(s: UnitPointSet, direction) -> float:
    """One-sample sup distance of the projections X_i.u against the null
    coordinate CDF (a fixed unit vector dotted with a uniform point)."""
    u = np.asarray(direction, dtype=float)
    if u.shape != (s.p,) or abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise DomainError("direction must be a unit p-vector")
    return float(_projections(s.data[None], u[None], s.p)[0])


# A block of replications shares one workspace of about this many floats
# per stacked array: the (B, n, p) rows and the (B, n, n) Gram.  B = 10
# at n = p = 80 spreads numpy's per-call cost over the block; B = 20 ran
# about 9 % faster but raised power-small's peak RSS by 9 % (two threads,
# two workspaces).  At n = 400, p = 600 it gives B = 1, where blocking
# did not pay.
_REP_BLOCK_ELEMS = 1 << 16


def _replicate(
    model, n: int, methods, reps: int, rng_of, threads: int = 1
) -> dict[str, np.ndarray]:
    """Each of `methods` on `reps` samples of n points from `model`.

    Replications are scored in blocks of B, in a workspace allocated
    once per call and per worker thread: the (B, n, p) rows, a tilt's
    (B, n, p - 1) tangent normals, the (B, n, n) Gram, the sorted values
    and the projection directions.  `_draw_block` draws replication r of
    a block from `rng_of(r)` alone; then a second loop over the block's
    generators draws projection's directions, so each generator is
    called in the order of a one-sample pass.  The block is normalised
    in place and runs one stacked Gram, gather and sort, and one call of
    each statistic over its B rows.  Every statistic is the float that
    `sample` and the `statistic_*` functions give for that replication,
    so the result depends neither on B nor on `threads`; with
    `threads > 1` a thread pool scores the blocks.
    """
    if _integer(n, DomainError, "n") < 2:
        raise DomainError(f"need n >= 2, got {n}")
    p = model.p
    size = max(1, min(_REP_BLOCK_ELEMS // (n * max(n, p)), -(-reps // max(1, threads))))
    pairwise = any(m != PROJECTION for m in methods)
    out = {m: np.empty(reps) for m in methods}
    local = threading.local()

    def score(start):
        if not hasattr(local, "workspace"):
            g = n if pairwise else 0  # projection alone needs no Gram
            local.workspace = (
                np.empty((size, n, p)),
                np.empty((size, n, p - 1)),
                np.empty((size, g, g)),
                np.empty((size, g * (g - 1) // 2)),
                np.empty((size, p)),
            )
        b = min(size, reps - start)
        x, normals, gram, values, directions = (a[:b] for a in local.workspace)
        rngs = [rng_of(start + k) for k in range(b)]
        _draw_block(model, n, rngs, x, normals)
        if PROJECTION in methods:
            for k, rng in enumerate(rngs):
                directions[k] = sample_uniform_direction(p, rng)
        x /= _row_norms(x)[..., None]
        if pairwise:
            _sorted_pairs(x, gram, values)
        for m in methods:
            rows = NULL_LAWS[m].rows
            stat = _projections(x, directions, p) if rows is None else rows(values, n, p)
            out[m][start : start + b] = stat

    starts = range(0, reps, size)
    if threads <= 1:
        for start in starts:
            score(start)
    else:
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(score, starts))
    return out


@dataclass(frozen=True)
class TestOutcome:
    """Result of one uniformity test on one sample; `standardized` is
    `NULL_LAWS[method].scale(n)` times `statistic`, whatever the calibration."""

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
    """A method's statistic, its asymptotic null law and its tails.

    `rows(values, n, p)` is the statistic of each row of sorted pairwise
    inner products (R, N) of samples of n points in dimension p (None
    for projection, which `_projections` scores on a direction).  A
    statistic T of a sample of size n is standardized to z = scale(n) T,
    and `upper(z)` is P(T >= t) under the null at z = scale(n) t,
    elementwise on an array; `tails` are those its test may use.
    """

    rows: Callable | None
    scale: Callable
    upper: Callable
    tails: tuple[str, ...]


NULL_LAWS = {
    SUP_DISTANCE: NullLaw(lambda values, n, p: _sup_null_rows(values, p),
                          lambda n: math.sqrt(n * (n - 1) / 2.0), kolmogorov_sf, ("upper",)),
    RAYLEIGH: NullLaw(_rayleigh, lambda n: 1.0, lambda z: 1.0 - normal_cdf(z), TAILS),
    BINGHAM: NullLaw(_bingham, lambda n: 1.0, lambda z: 1.0 - normal_cdf(z), TAILS),
    PACKING: NullLaw(_packing, lambda n: 1.0, lambda z: 1.0 - packing_gumbel_cdf(z), TAILS),
    PROJECTION: NullLaw(None, math.sqrt, kolmogorov_sf, ("upper",)),
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
        law = NULL_LAWS[method]
        up = law.upper(law.scale(n) * t)
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
    The null law is scored by the first call for its (n, p, mc_reps,
    master seed, method) and then kept for the process
    (`_null_statistics`), so a repeated request does no null work; the
    outcome's label names the master seed, so `mc_seed=7` and
    `RngSeed(7)` give equal outcomes.  A bad method, alpha, tail,
    calibration, mc_reps or mc_seed raises before any work, so such a
    call leaves `rng` untouched.
    """
    requests = ((method, tail),)
    return _run_tests(s, requests, alpha, calibration, direction, mc_reps, mc_seed, rng)[0]


def _run_tests(
    s: UnitPointSet, requests, alpha, calibration, direction, mc_reps, mc_seed, rng
) -> list[TestOutcome]:
    """`run_test` for each (method, tail) of `requests`, in order.

    Projection statistics draw their directions from `rng` in request
    order, and one Monte Carlo null pass scores every method not yet
    memoised, so each outcome equals its own `run_test` call made in the
    same order.
    """
    for method, _ in requests:
        if method not in METHODS:
            raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    if not 0.0 < _real(alpha, DomainError, "alpha") < 1.0:
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
        master = _mc_master(mc_reps, mc_seed)

    stats = []
    for method, _ in requests:
        if method != PROJECTION:
            stats.append(_pairwise(method, s))
            continue
        u = direction
        if u is None:
            u = sample_uniform_direction(s.p, rng if rng is not None else np.random.default_rng())
        stats.append(statistic_projection(s, u))

    nulls, label = {}, "asymptotic"
    if calibration == "monte-carlo":
        # a method listed twice is scored once, as its own pass would score it
        methods = tuple(dict.fromkeys(m for m, _ in requests))
        nulls = _null_statistics(s.n, s.p, methods, mc_reps, master)
        label = f"monte-carlo(reps={mc_reps},seed={master})"
    out = []
    for (method, tail), stat in zip(requests, stats):
        standardized = NULL_LAWS[method].scale(s.n) * stat
        p_value = p_values(method, stat, s.n, tail, nulls.get(method))
        out.append(TestOutcome(method, stat, standardized, p_value, p_value <= alpha,
                               alpha, tail, label))
    return out


def _mc_master(reps: int, seed) -> int:
    """The master seed of a Monte Carlo null pass of `reps` replications,
    whose replication r draws from `RngSeed(master, r)`."""
    if _integer(reps, DomainError, "mc_reps") < 1:
        raise DomainError(f"mc_reps must be >= 1, got {reps}")
    return _master(seed, DomainError, "mc_seed")


# The null memo keeps at most this many floats of null statistics, about
# 32 MB: 4,194 null laws of 1000 replications.
_NULL_MEMO_ELEMS = 1 << 22


class _NullMemo:
    """A least-recently-used map from (n, p, reps, master, method) to a
    read-only null law, holding at most `budget` floats in all."""

    def __init__(self, budget: int):
        self.budget = budget
        self._laws: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._size = 0
        self._lock = threading.Lock()

    def get(self, keys) -> dict[tuple, np.ndarray]:
        """The stored laws among `keys`, each marked as just used."""
        with self._lock:
            found = {k: self._laws[k] for k in keys if k in self._laws}
            for k in found:
                self._laws.move_to_end(k)
        return found

    def put(self, key: tuple, law: np.ndarray) -> None:
        """Store `law` under `key` and evict the least recently used laws
        over the budget; a law larger than the budget is not kept."""
        law.flags.writeable = False
        if law.size > self.budget:
            return
        with self._lock:
            if key in self._laws:  # a racing pass stored the same floats
                return
            self._laws[key] = law
            self._size += law.size
            while self._size > self.budget:
                self._size -= self._laws.popitem(last=False)[1].size

    def clear(self) -> None:
        with self._lock:
            self._laws.clear()
            self._size = 0


_null_memo = _NullMemo(_NULL_MEMO_ELEMS)


def _null_statistics(
    n: int, p: int, methods, reps: int, seed, threads: int = 1
) -> dict[str, np.ndarray]:
    """Each of `methods` on `reps` seeded null samples, as read-only arrays.

    Under the null a method's law is a pure function of (n, p, reps, the
    master seed of `_mc_master`, method), so each is scored once per
    process and kept in `_null_memo`, which drops the least recently
    used law beyond `_NULL_MEMO_ELEMS` floats.  `13` and `RngSeed(13)`
    share an entry, and `threads` is no part of the key, as
    `_replicate`'s result does not depend on it.  The methods not yet
    kept are scored together in one `_replicate` pass, run outside the
    memo's lock; a method's floats are the same whichever methods share
    its pass.
    """
    master = _mc_master(reps, seed)
    if _integer(threads, DomainError, "threads") < 1:
        raise DomainError(f"threads: need >= 1, got {threads}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown method {unknown[0]!r}; choose from {METHODS}")
    keys = {m: (n, p, reps, master, m) for m in methods}
    found = _null_memo.get(keys.values())
    laws = {m: found[k] for m, k in keys.items() if k in found}
    missing = tuple(m for m in keys if m not in laws)
    if missing:
        fresh = _replicate(Uniform(p), n, missing, reps,
                           lambda r: RngSeed(master, r).generator(), threads)
        for m, law in fresh.items():
            _null_memo.put(keys[m], law)
        laws.update(fresh)
    return {m: laws[m] for m in keys}


def calibrate_critical_value_mc(
    n: int, p: int, method: str, alpha: float, reps: int, seed
) -> float:
    """Empirical (1-alpha) quantile of the null statistic over `reps`
    seeded replications; alpha = 1 returns the smallest observed value.

    The replications are those of `run_test`'s Monte Carlo calibration,
    memoised by (n, p, reps, master seed, method): only the first call
    for a key scores them."""
    if _integer(reps, DomainError, "reps") < 1000:
        raise DomainError("calibration needs reps >= 1000")
    if not 0.0 < _real(alpha, DomainError, "alpha") <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    master = _master(seed, DomainError, "seed")
    stats = _null_statistics(n, p, (method,), reps, master)[method]
    return float(np.quantile(stats, 1.0 - alpha, method="higher"))


def sup_distance_critical_value(n: int, alpha: float) -> float:
    """sqrt(2) c_alpha / sqrt(n(n-1)), the exact asymptotic threshold."""
    if _integer(n, DomainError, "n") < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return math.sqrt(2.0) * kolmogorov_quantile(alpha) / math.sqrt(n * (n - 1.0))
