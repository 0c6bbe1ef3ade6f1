"""Exact null distributions and special functions.

Everything here is deterministic: the inner-product null CDF, the
Kolmogorov distribution, the Gumbel null of the packing statistic,
normal CDF/quantile, the FvML normalizing constant, and 1-D marginal
density handles for the tilted coordinate laws used by the
FvML/Watson samplers and quadratures.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .errors import DomainError, _integer, _real

_CLAMP_SLACK = 1e-12


# ---------------------------------------------------------------------------
# beta / null inner-product CDF


# the CPUs this process may run on: its affinity mask where the platform
# has one, which `taskset` or a container's cpuset narrows below cpu_count()
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# an evaluation of at least this many values runs on _CDF_WORKERS threads
# (`_cdf_parts`); below it one part costs less than starting a pool.
# Every evaluation on the power and test-request paths (the sup kernel's
# few values per row, the 16,385 knots of _null_cdf_table, which also run
# in _replicate's worker threads) stays below it, so no pools nest
_CDF_SPLIT = 1 << 16
_CDF_WORKERS = _CPUS


def _cdf_parts(fn, rows: int, width: int = 1) -> None:
    """Call fn(lo, hi) on contiguous row ranges that cover `rows` rows of
    `width` null CDF values each.

    Fewer than `_CDF_SPLIT` values are one range on the calling thread.
    More are cut into near-equal ranges of about `_CDF_SPLIT` values, at
    least one per worker, which a pool of `_CDF_WORKERS` threads made for
    the call runs (betainc releases the GIL); on one worker they run in
    turn on the calling thread.  Each range sees only its own rows, so a
    row's floats do not depend on the cut.
    """
    size = rows * width
    parts = 1 if size < _CDF_SPLIT else min(rows, max(_CDF_WORKERS, -(-size // _CDF_SPLIT)))
    edges = [rows * k // parts for k in range(parts + 1)]
    if parts == 1 or _CDF_WORKERS == 1:
        for lo, hi in zip(edges[:-1], edges[1:]):
            fn(lo, hi)
        return
    with futures.ThreadPoolExecutor(max_workers=_CDF_WORKERS) as pool:
        list(pool.map(fn, edges[:-1], edges[1:]))


def _null_cdf_core(t: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write `null_inner_cdf(t, p)` into `out`, which may be `t`.

    Unchecked and on the calling thread: every t must lie within 1e-12 of
    [-1, 1] or be NaN, and p >= 2.  The same clip((1 + t)/2, 0, 1) and
    betainc(a, a, .) as `null_inner_cdf`, so the same floats.
    """
    np.add(1.0, t, out=out)
    np.divide(out, 2.0, out=out)
    np.clip(out, 0.0, 1.0, out=out)
    a = (p - 1) / 2.0
    special.betainc(a, a, out, out=out)


def null_inner_cdf(t, p: int):
    """CDF of the inner product of two independent uniform points on S^{p-1}.

    Equals I_{(1+t)/2}((p-1)/2, (p-1)/2).  Arguments within 1e-12 of
    [-1, 1] are clamped; larger deviations raise DomainError, before any
    value is computed.  A NaN gives NaN.

    An evaluation of at least `_CDF_SPLIT` (65,536) values is cut into
    contiguous slices of the flattened arguments, at least one per CPU
    the process may run on (`os.sched_getaffinity`), which run on a
    thread pool of that size made for the call (`_cdf_parts`).  betainc
    is elementwise, so every value is the same float whatever the cut.
    A smaller evaluation, or any on one CPU, runs on the calling thread.
    """
    if _integer(p, DomainError, "p") < 2:
        raise DomainError(f"need p >= 2, got {p}")
    t = np.asarray(t, dtype=float)
    if np.any(t < -1 - _CLAMP_SLACK) or np.any(t > 1 + _CLAMP_SLACK):
        raise DomainError("t outside [-1, 1]")
    out = np.empty(t.shape)
    flat, dst = t.ravel(), out.reshape(-1)
    _cdf_parts(lambda lo, hi: _null_cdf_core(flat[lo:hi], p, dst[lo:hi]), t.size)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=32)
def _null_cdf_table(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (knots, lower, upper) that bracket F = `null_inner_cdf(., p)`.

    The 16,385 sorted knots run from -1 to 1: 1,025 F-quantiles
    (`betaincinv`) with 15 knots spaced evenly in t between each pair,
    so a knot cell holds at most 1/1024 of F's mass and usually about
    1/16384.  For i = searchsorted(knots, v, side="right") and any v in
    [-1 - 1e-12, 1 + 1e-12], lower[i] <= F(v) <= upper[i] up to
    betainc's few-ulp non-monotonicity: both are exact F values at
    knots.  A v on a knot gets its own F as lower[i].
    """
    a = (p - 1) / 2.0
    coarse = 2.0 * special.betaincinv(a, a, np.linspace(0.0, 1.0, 1025)) - 1.0
    coarse[0], coarse[-1] = -1.0, 1.0
    step = np.diff(coarse)[:, None] * (np.arange(16) / 16.0)
    knots = np.sort(np.append((coarse[:-1, None] + step).ravel(), 1.0))
    cdf = null_inner_cdf(knots, p)
    table = knots, np.append(cdf[0], cdf), np.append(cdf, cdf[-1])
    for arr in table:
        arr.flags.writeable = False
    return table


def log_coordinate_density_const(p: int) -> float:
    """log of Gamma(p/2) / (sqrt(pi) Gamma((p-1)/2)), the (density-of-
    one-coordinate) normalizing constant in dimension p."""
    return float(
        special.gammaln(p / 2.0) - special.gammaln((p - 1) / 2.0) - 0.5 * math.log(math.pi)
    )


# ---------------------------------------------------------------------------
# Kolmogorov distribution (law of sup |brownian bridge|)


def kolmogorov_sf(x):
    """P(sup_t |B_t| > x) = 2 sum_k (-1)^{k+1} exp(-2 k^2 x^2).

    The alternating series is truncated once a term drops below 1e-16,
    which bounds the truncation error by that term.  x = 0 returns 1
    by convention; negative x raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("x must be >= 0")
    out = np.zeros_like(x)
    todo = x > 0
    xs = x[todo]
    acc = np.zeros_like(xs)
    # each value stops at its own first term below 1e-16, so its result
    # does not depend on the other values in the batch
    live = np.arange(len(xs))
    for k in range(1, 200):
        xl = xs[live]
        term = 2.0 * math.pow(-1.0, k + 1) * np.exp(-2.0 * k * k * xl * xl)
        acc[live] += term
        live = live[np.abs(term) >= 1e-16]
        if not len(live):
            break
    out[todo] = np.clip(acc, 0.0, 1.0)
    out[~todo] = 1.0
    return float(out) if out.ndim == 0 else out


def kolmogorov_cdf(x):
    return 1.0 - kolmogorov_sf(x)


def kolmogorov_quantile(alpha: float) -> float:
    """c with P(sup_t |B_t| > c) = alpha (scipy's inverse Kolmogorov law)."""
    if not 0.0 < _real(alpha, DomainError, "alpha") < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    return float(special.kolmogi(alpha))


# ---------------------------------------------------------------------------
# normal law


def normal_cdf(u):
    out = special.ndtr(np.asarray(u, dtype=float))
    return float(out) if out.ndim == 0 else out


def normal_pdf(u):
    u = np.asarray(u, dtype=float)
    out = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def normal_quantile(q):
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise DomainError("quantile argument must be inside (0, 1)")
    out = special.ndtri(q)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# packing-test Gumbel null


def packing_gumbel_cdf(x):
    """CDF exp(-(8 pi)^{-1/2} e^{-x/2}) of the packing statistic's null limit."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-np.exp(-x / 2.0) / math.sqrt(8.0 * math.pi))
    return float(out) if out.ndim == 0 else out


def packing_gumbel_quantile(alpha: float) -> float:
    """x with exceedance probability alpha under the packing Gumbel null."""
    if not 0.0 < _real(alpha, DomainError, "alpha") < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    return -2.0 * math.log(-math.sqrt(8.0 * math.pi) * math.log1p(-alpha))


# ---------------------------------------------------------------------------
# log-space adaptive quadrature


# subinterval cap of log_quad's adaptive rule: a budget of 20000 nodes at
# 21 Gauss-Kronrod nodes per subinterval
_QUAD_LIMIT = 20000 // 21


def log_quad(logf, lo: float, hi: float, inner_points=()) -> float:
    """log of the integral of exp(logf) over [lo, hi].

    Shifts by the probed maximum of logf and hands the well-scaled
    integrand to an adaptive Gauss-Kronrod rule; `inner_points` should
    list density modes so concentrated peaks are not missed.
    """
    from scipy import integrate  # loaded by the first quadrature, not by import

    pts = [x for x in inner_points if lo < x < hi]
    probe = np.unique(np.concatenate([np.linspace(lo, hi, 257), np.asarray(pts, float)]))
    shift = float(np.max(logf(probe)))
    if not np.isfinite(shift):
        raise DomainError("log-density is not finite anywhere on the window")

    def g(t):
        return float(np.exp(logf(t) - shift))

    val, _ = integrate.quad(
        g, lo, hi, points=pts or None, limit=_QUAD_LIMIT, epsabs=1e-14, epsrel=1e-13
    )
    if val <= 0:
        raise DomainError("integral underflowed to zero after shifting")
    return shift + math.log(val)


def _log_tilted_density(t, kappa: float, power: int, p: int):
    """kappa t^power + (p-3)/2 log(1-t^2), the unnormalized log-density
    of the tilted coordinate law.  At p = 3 the second term is dropped:
    it is 0 on (-1, 1), and 0 x log 0 would be NaN at t = +-1."""
    t = np.asarray(t, dtype=float)
    if p == 3:
        return kappa * t**power
    with np.errstate(divide="ignore"):  # t = +-1 gives log 0 = -inf, fine
        return kappa * t**power + 0.5 * (p - 3) * np.log1p(-t * t)


def _log_norm_integral(kappa: float, power: int, p: int) -> float:
    """log of integral_{-1}^{1} exp(kappa t^power) (1-t^2)^{(p-3)/2} dt."""
    modes = _tilt_modes(kappa, power, p)
    return log_quad(
        lambda t: _log_tilted_density(t, kappa, power, p), -1.0, 1.0, inner_points=modes
    )


def _tilt_modes(kappa: float, power: int, p: int) -> tuple[float, ...]:
    """Modes of exp(kappa t^power)(1-t^2)^{(p-3)/2} on (-1, 1)."""
    if kappa == 0.0:
        return (0.0,)
    if power == 1:
        # kappa (1-t^2) = (p-3) t; at p = 3 the density exp(kappa t) peaks at the end
        c = p - 3.0
        if c <= 0:
            return (math.copysign(1.0 - 1e-9, kappa),)
        t = (-c + math.sqrt(c * c + 4.0 * kappa * kappa)) / (2.0 * kappa)
        return (t,)
    # power == 2: t = 0 always critical; +-sqrt(1-(p-3)/(2 kappa)) when 2k > p-3
    if 2.0 * kappa > p - 3.0 and kappa > 0:
        t = math.sqrt(1.0 - (p - 3.0) / (2.0 * kappa))
        return (-t, 0.0, t)
    return (0.0,)


def fvml_log_normalizer(kappa: float, p: int) -> float:
    """log of the FvML normalizing constant (inverse of E_0 exp(kappa mu.x)).

    Computed by adaptive log-space quadrature of the 1-D coordinate
    integral; log C_p(0) = 0 exactly.
    """
    if _real(kappa, DomainError, "kappa") < 0:
        raise DomainError(f"kappa must be >= 0, got {kappa}")
    if _integer(p, DomainError, "p") < 3:
        raise DomainError(f"need p >= 3, got {p}")
    if kappa == 0.0:
        return 0.0
    return -(log_coordinate_density_const(p) + _log_norm_integral(kappa, 1, p))


# ---------------------------------------------------------------------------
# 1-D coordinate marginals (FvML / Watson tilts of the null coordinate law)


_WINDOW_LOGDROP = 46.0  # exp(-46) ~ 1e-20 of the peak density


@dataclass(frozen=True)
class CoordinateMarginal:
    """Normalized law of mu.X on [-1, 1] under an exponential tilt.

    density(t)  propto  exp(kappa * t^power) * (1 - t^2)^{(p-3)/2}

    power=1 is the FvML marginal, power=2 the Watson marginal and
    kappa=0 the null coordinate law.  Provides the normalized
    log-density, the tilt normalizer E_0[exp(kappa T^power)], and
    moments E[T^k] for k <= 8, all by adaptive quadrature.  The
    normalizing integral is computed on the first call that needs it;
    `log_unnorm` and `window`, which are all that an inverse-CDF table
    and the quadrature pair grid read, run no quadrature.
    """

    p: int
    kappa: float
    power: int

    @cached_property
    def _log_integral(self) -> float:
        # kappa = 0 is one law at either power, and both read its power-2 integral
        return _log_norm_integral(self.kappa, self.power if self.kappa != 0.0 else 2, self.p)

    def logpdf(self, t):
        return self.log_unnorm(t) - self._log_integral

    def log_unnorm(self, t):
        return _log_tilted_density(t, self.kappa, self.power, self.p)

    @property
    def modes(self) -> tuple[float, ...]:
        return _tilt_modes(self.kappa, self.power, self.p)

    @property
    def tilt_normalizer(self) -> float:
        """E under the null coordinate law of exp(kappa T^power)."""
        return math.exp(self._log_integral + log_coordinate_density_const(self.p))

    def moment(self, k: int) -> float:
        """E[T^k] with relative error <= 1e-10."""
        if not 0 <= k <= 8:
            raise DomainError(f"moments available for 0 <= k <= 8, got {k}")
        if k == 0:
            return 1.0
        if k % 2 == 1 and (self.power == 2 or self.kappa == 0.0):
            return 0.0  # symmetric density

        def g(t):
            return float(t**k * np.exp(self.logpdf(t)))

        from scipy import integrate

        val, _ = integrate.quad(
            g, -1.0, 1.0, points=list(self.modes), limit=500, epsabs=1e-15, epsrel=1e-12
        )
        return val

    def window(self) -> tuple[float, float]:
        """Interval outside which the density is below exp(-_WINDOW_LOGDROP) x peak."""
        grid = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, 20001)
        lf = self.log_unnorm(grid)
        peak = lf.max()
        keep = np.nonzero(lf >= peak - _WINDOW_LOGDROP)[0]
        lo = grid[max(keep[0] - 1, 0)]
        hi = grid[min(keep[-1] + 1, len(grid) - 1)]
        return float(lo), float(hi)


# typed, or a law cached for (10, 1.0) would answer (10.0, True) unchecked
@lru_cache(maxsize=128, typed=True)
def _marginal(p: int, kappa: float, power: int) -> CoordinateMarginal:
    if _integer(p, DomainError, "p") < 3:
        raise DomainError(f"need p >= 3, got {p}")
    if not (math.isfinite(_real(kappa, DomainError, "kappa")) and kappa >= 0):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa}")
    return CoordinateMarginal(int(p), float(kappa), power)


def fvml_marginal(kappa: float, p: int) -> CoordinateMarginal:
    """Marginal law of mu.X under FvML(kappa) on S^{p-1}."""
    return _marginal(p, kappa, 1)


def watson_marginal(kappa: float, p: int) -> CoordinateMarginal:
    """Marginal law of mu.X under Watson(kappa) on S^{p-1}."""
    return _marginal(p, kappa, 2)


def null_coordinate_marginal(p: int) -> CoordinateMarginal:
    """Marginal law of one coordinate of a uniform point on S^{p-1}."""
    return _marginal(p, 0.0, 2)
