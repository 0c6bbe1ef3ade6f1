"""Deterministic distance evaluation, local power from the limiting
shifted bridge, and the likelihood-ratio second-moment check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .distributions import (
    _cdf_parts,
    _marginal,
    _null_cdf_core,
    fvml_log_normalizer,
    kolmogorov_quantile,
    log_coordinate_density_const,
    normal_pdf,
    normal_quantile,
    null_inner_cdf,
    packing_gumbel_cdf,
    packing_gumbel_quantile,
)
from .errors import DomainError
from .samplers import LowRank, ModelSpec, Uniform, _as_rng, _Tilt, sample
from .statistics import _MONOTONE_SLACK, sup_null_distance

FVML_SHIFT = "fvml"
QUADRATIC_SHIFT = "quadratic"


@dataclass(frozen=True)
class ShiftFunction:
    """Drift b(t) of the limiting shifted Brownian bridge.

    kind "fvml":       b(t) = tau^2/sqrt(2) phi(Phi^{-1}(t))
    kind "quadratic":  b(t) = tau/(2 sqrt(2)) Phi^{-1}(t) phi(Phi^{-1}(t))

    Both vanish at t = 0 and t = 1.
    """

    kind: str
    tau: float

    def __post_init__(self):
        if self.kind not in (FVML_SHIFT, QUADRATIC_SHIFT):
            raise DomainError(f"unknown shift kind {self.kind!r}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise DomainError(f"tau must be finite and >= 0, got {self.tau}")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > 1):
            raise DomainError("t must lie in [0, 1]")
        out = np.zeros_like(t)
        inside = (t > 0) & (t < 1)
        u = normal_quantile(t[inside])
        if self.kind == FVML_SHIFT:
            out[inside] = self.tau**2 / math.sqrt(2.0) * normal_pdf(u)
        else:
            out[inside] = self.tau / (2.0 * math.sqrt(2.0)) * u * normal_pdf(u)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# model CDF of sqrt(p) X.Y and the distance to uniformity

# Gauss-Legendre nodes per coordinate of the (T, T') grid, in equal panels
_PAIR_NODES = 96
_PAIR_PANELS = 4
# rows per block of the quadrature grid: 2^22 CDF values over the node
# grid.  The matvec's row grouping fixes the last ulp of each row, so the
# distance search evaluates these same blocks
_GRID_BLOCK = (1 << 22) // (_PAIR_NODES * _PAIR_NODES)
# the distance search stops refining once a round improves the gap by less
_REFINE_TOL = 1e-8


def _pair_nodes(marg):
    """Gauss-Legendre nodes and normalized probability weights for the
    coordinate marginal, panels centered on its support window."""
    lo, hi = marg.window()
    edges = np.linspace(lo, hi, _PAIR_PANELS + 1)
    xg, wg = np.polynomial.legendre.leggauss(_PAIR_NODES // _PAIR_PANELS)
    t = np.concatenate([(b + a) / 2 + (b - a) / 2 * xg for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([(b - a) / 2 * wg for a, b in zip(edges[:-1], edges[1:])])
    lf = marg.log_unnorm(t)
    wt = w * np.exp(lf - lf.max())
    return t, wt / wt.sum()


@lru_cache(maxsize=32)
def _pair_grid(p: int, kappa: float, power: int):
    """The (T, T') quadrature grid, stored once per unordered node pair.

    t_i t_j and alpha_i alpha_j are bitwise symmetric in (i, j), since
    IEEE multiplication commutes, so only the upper triangle i <= j is
    kept: `uprod` and `uscale` hold its products, and `lut` maps each
    column of the full row-major n x n grid to its unordered pair.
    `weight` stays the full outer product of the node weights.
    """
    t, wt = _pair_nodes(_marginal(p, kappa, power))
    alpha = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    i, j = np.triu_indices(len(t))
    uprod = t[i] * t[j]
    uscale = alpha[i] * alpha[j]
    pair = np.empty((len(t), len(t)), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    weight = np.multiply.outer(wt, wt).ravel()
    return uprod, uscale, pair.ravel(), weight


def model_inner_cdf(model: ModelSpec, u):
    """P_model(sqrt(p) X.Y <= u) for two i.i.d. draws from the model.

    FvML and Watson use the exact tangent decomposition
    X.Y = T T' + sqrt((1-T^2)(1-T'^2)) Xi with Xi following the null
    inner-product law one dimension down, integrated over (T, T') on a
    mode-centered Gauss-Legendre grid.  Low-rank is closed form.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if isinstance(model, Uniform) or (isinstance(model, _Tilt) and model.kappa == 0.0):
        out = null_inner_cdf(np.clip(u / math.sqrt(model.p), -1, 1), model.p)
    elif isinstance(model, LowRank):
        v = np.clip(u / math.sqrt(model.p), -1.0, 1.0)
        out = null_inner_cdf(v, model.k)
    elif isinstance(model, _Tilt):
        out = _tilted_inner_cdf(u, model.p, model.kappa, model.power)
    else:
        raise DomainError(
            f"no quadrature route for {type(model).__name__}; use estimate_distance_mc"
        )
    out = np.asarray(out, dtype=float)
    return float(out[0]) if scalar else out


def _tilted_inner_cdf(u: np.ndarray, p: int, kappa: float, power: int) -> np.ndarray:
    uprod, uscale, lut, weight = _pair_grid(p, float(kappa), power)
    rt_p = math.sqrt(p)
    out = np.empty(len(u))
    # one C-ordered gather of up to a block's rows, reused for every block
    gather = np.empty((min(len(u), _GRID_BLOCK), len(lut)))
    for b0 in range(0, len(u), _GRID_BLOCK):
        ub = u[b0 : b0 + _GRID_BLOCK, None]

        def chunk(lo, hi):
            # the argument, its null CDF and its gather, in a chunk-sized array
            arg = ub[lo:hi] / rt_p - uprod
            arg /= uscale
            np.clip(arg, -1.0, 1.0, out=arg)
            _null_cdf_core(arg, p - 1, arg)
            # every lut index is in range; the default mode="raise" would
            # gather into a temporary copy of the rows first
            np.take(arg, lut, axis=1, out=gather[lo:hi], mode="clip")

        _cdf_parts(chunk, len(ub), len(uprod))
        # one matvec per block on the calling thread: a row's float depends
        # on the rows BLAS groups it with and on the gather's C order
        out[b0 : b0 + len(ub)] = gather[: len(ub)] @ weight
    return out


def _u_window(model: ModelSpec) -> tuple[float, float]:
    """Window outside which both CDFs are within 1e-12 of 0 or 1."""
    p = model.p
    # null: sqrt(p) X.Y is asymptotically N(0,1); 8 sigma covers 1e-12 tails
    lo, hi = -8.5, 8.5
    if isinstance(model, _Tilt) and model.kappa > 0:
        wlo, whi = model.marginal.window()
        m = max(abs(wlo), abs(whi))
        shift = math.sqrt(p) * m * m  # largest |T T'| contribution
        lo, hi = lo - shift, hi + shift
    return lo, hi


def distance_from_uniformity(model: ModelSpec, grid_size: int = 4096) -> float:
    """sup_u |P_model(sqrt(p) X.Y <= u) - P_uniform(sqrt(p) X.Y <= u)|.

    The search starts from the maximum of the gap on `grid_size` evenly
    spaced points over the union of the two effective supports, then
    refines around it until the improvement falls below `_REFINE_TOL`.

    The grid is cut into the quadrature's blocks of `_GRID_BLOCK` rows.
    Both CDFs increase with u, so on a block from u_s to u_e the gap is
    at most max(F_m(u_e) - F_n(u_s), F_n(u_e) - F_m(u_s)), bracketed
    from one evaluation of both CDFs at every block's first and last
    point.  Blocks are evaluated from the largest bracket down while
    their bracket, plus `_MONOTONE_SLACK` for rounding, still reaches
    the largest gap found; a NaN bracket is always evaluated.  Each
    evaluated block is the same slice of the grid, so the same float,
    as on a full pass, and the argmax takes the first of equal gaps, so
    the result is the full grid's.  A model without a quadrature route
    raises `model_inner_cdf`'s DomainError.

    For FvML and Watson each block's rows (455 x 4,656 null CDF values),
    each 17-point refinement round (79,152) and the 20-point bracket are
    cut into chunks of about `_CDF_SPLIT` (65,536) values, at least one
    per CPU in the process's affinity mask.  A thread per CPU takes each
    chunk from its argument through `betainc` into one reused gather
    buffer of at most 455 x 9,216, and the calling thread reduces each
    block with one matrix-vector product.  A row's float depends only on
    its block, so the distance does not depend on the number of CPUs.
    """
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    null = Uniform(model.p)

    def cdfs(u):
        return np.asarray(model_inner_cdf(model, u)), model_inner_cdf(null, u)

    def gap(u):
        fm, fn = cdfs(u)
        return np.abs(fm - fn)

    lo, hi = _u_window(model)
    u = np.linspace(lo, hi, grid_size)
    starts = np.arange(0, grid_size, _GRID_BLOCK)
    ends = np.minimum(starts + _GRID_BLOCK, grid_size) - 1
    fm, fn = cdfs(u[np.concatenate([starts, ends])])
    k = len(starts)
    bound = np.maximum(fm[k:] - fn[:k], fn[k:] - fm[:k])
    bound[np.isnan(bound)] = np.inf
    g = np.full(grid_size, -np.inf)
    best = -np.inf
    for b in np.argsort(-bound):
        if bound[b] + _MONOTONE_SLACK < best:
            break
        block = slice(starts[b], starts[b] + _GRID_BLOCK)
        g[block] = gap(u[block])
        best = np.fmax(best, np.fmax.reduce(g[block]))
    best_i = int(np.argmax(g))
    best, u_star = float(g[best_i]), float(u[best_i])
    if math.isnan(best):
        return best  # no gap compares greater than NaN, so refining cannot change it
    h = (hi - lo) / (grid_size - 1)
    for _ in range(60):
        uu = np.linspace(u_star - h, u_star + h, 17)
        gg = gap(uu)
        j = int(np.argmax(gg))
        improved = float(gg[j]) - best
        if gg[j] > best:
            best, u_star = float(gg[j]), float(uu[j])
        h /= 4.0
        if improved < _REFINE_TOL and h < 1e-6 * (hi - lo):
            break
    return best


def estimate_distance_mc(model: ModelSpec, pairs: int, seed) -> float:
    """Monte Carlo estimate of the distance: sup over jump points of
    |empirical CDF of `pairs` sampled inner products - null CDF|."""
    if pairs < 10**4:
        raise DomainError("need pairs >= 1e4")
    rng = _as_rng(seed)
    p = model.p
    vals = np.empty(pairs)
    block = max(1, min(pairs, (1 << 21) // p))
    for b0 in range(0, pairs, block):
        b1 = min(pairs, b0 + block)
        xs = sample(model, 2 * (b1 - b0), rng).data
        vals[b0:b1] = np.sum(xs[: b1 - b0] * xs[b1 - b0 :], axis=1)
    vals = np.sort(np.clip(vals, -1.0, 1.0))
    return sup_null_distance(vals, p)


# ---------------------------------------------------------------------------
# shifted Brownian bridge: the local power of the sup-distance test is the
# chance that a Brownian bridge leaves the band b(t) +- c_alpha.  The
# density of Brownian motion is carried through equal time steps on nodes
# that span the band at each step, killing the paths that cross an edge
# (Wang and Poetzelberger 1997, J. Appl. Probab. 34, for piecewise-linear
# boundaries).  Doubling both constants moves a prediction by under 2e-4.

_BRIDGE_STEPS = 100  # time steps of 1/100
_BAND_NODES = 136  # intervals across the band: 137 nodes, 2c/136 apart


def _bridge_stay_probability(drift: np.ndarray, c: float) -> float:
    """P(|B_t - b(t)| < c for all t) for a Brownian bridge B, with b given
    at equally spaced times from 0 to 1 and linear in between; the band
    must hold 0 at both ends.

    Given W_t = x and W_{t+dt} = y, Brownian motion stays below the edge
    piece running from a to a' with chance 1 - exp(-2 (a - x)(a' - y)/dt),
    and likewise above the lower edge.  Each step integrates the Gaussian
    kernel times both chances over the band's nodes by the trapezoid
    rule.  The bridge is W given W_1 = 0, so it stays with chance
    u(1, 0)/phi(0), u being the density of the paths that stayed.
    """
    steps = len(drift) - 1
    dt = 1.0 / steps
    offsets = c * np.linspace(-1.0, 1.0, _BAND_NODES + 1)
    weights = np.full(_BAND_NODES + 1, 2.0 * c / _BAND_NODES)
    weights[[0, -1]] /= 2.0
    x, mass = np.zeros(1), np.ones(1)  # W_0 = 0
    for k in range(steps):
        b0, b1 = drift[k], drift[k + 1]
        y = b1 + offsets if k + 1 < steps else np.zeros(1)
        above = (b0 + c - x) * (b1 + c - y)[:, None]
        below = (x - b0 + c) * (y - b1 + c)[:, None]
        kernel = np.exp(-((y[:, None] - x) ** 2) / (2.0 * dt))
        kernel *= -np.expm1(-2.0 * above / dt) * -np.expm1(-2.0 * below / dt)
        density = kernel @ mass / math.sqrt(2.0 * math.pi * dt)
        x, mass = y, weights * density
    return float(density[0]) * math.sqrt(2.0 * math.pi)


def predict_asymptotic_power(shift: ShiftFunction, alpha: float) -> float:
    """P(sup_t |B_t - b(t)| >= c_alpha) for the drift b of `shift`: the
    local asymptotic power of the level-alpha sup-distance test."""
    c = kolmogorov_quantile(alpha)
    drift = shift.value(np.linspace(0.0, 1.0, _BRIDGE_STEPS + 1))
    return 1.0 - _bridge_stay_probability(drift, c)


# ---------------------------------------------------------------------------
# likelihood-ratio second moment (FvML, randomized location)


def fvml_llr_second_moment(n: int, p: int, kappa: float) -> float:
    """E L_n^2 for the location-mixed FvML likelihood ratio against
    uniformity, by 1-D quadrature over the null inner-product law.

    Uses E L^2 = E_U[ C_p(kappa)^{2n} / C_p(kappa sqrt(2(1+U)))^n ]
    with U the inner product of two uniform points, computed wholly in
    log space.  Raises on overflow (log integrand above 700).
    """
    if kappa < 0:
        raise DomainError("kappa must be >= 0")
    if kappa == 0.0:
        return 1.0
    lck = fvml_log_normalizer(kappa, p)
    lconst = log_coordinate_density_const(p)

    def log_integrand(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        lcs = np.array(
            [fvml_log_normalizer(kappa * math.sqrt(2.0 * (1.0 + uu)), p) for uu in u]
        )
        return n * (2.0 * lck - lcs) + lconst + 0.5 * (p - 3) * np.log1p(-u * u)

    # probe for the peak; the tilt pushes the mode to positive u of
    # order 1/sqrt(p)
    grid = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 2049)
    lg = log_integrand(grid)
    if np.max(lg) > 700.0:
        raise DomainError("log integrand exceeds 700; signal too strong for this check")
    peak = float(grid[int(np.argmax(lg))])
    shift = float(np.max(lg))

    def g(u):
        lc = fvml_log_normalizer(kappa * math.sqrt(2.0 * (1.0 + u)), p)
        logdens = lconst + 0.5 * (p - 3) * math.log1p(-u * u) if abs(u) < 1.0 else -math.inf
        return math.exp(n * (2.0 * lck - lc) + logdens - shift)

    from scipy import integrate  # loaded by this check, not by import

    val, _ = integrate.quad(
        g, -1.0, 1.0, points=[peak], limit=400, epsabs=1e-13, epsrel=1e-9
    )
    return math.exp(shift + math.log(val))


# ---------------------------------------------------------------------------
# closed-form competitor power under the low-rank alternative


def competitor_low_rank_power(method: str, n: int, p: int, k: int, alpha: float) -> float:
    """Asymptotic power prediction for a classical test against the
    low-rank uniform alternative with tau = n (1 - k/p)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if not 2 <= k <= p:
        raise DomainError(f"need 2 <= k <= p, got k={k}")
    tau = n * (1.0 - k / p)
    z = float(normal_quantile(1.0 - alpha))
    if method == "bingham":
        return float(1.0 - special.ndtr(z - tau / 2.0))
    if method == "rayleigh2sided":
        # sqrt(p/k) R_n -> N(0,1); the two-sided level-alpha test keeps
        # asymptotic power alpha at fixed k/p -> 1
        z2 = float(normal_quantile(1.0 - alpha / 2.0))
        s = math.sqrt(k / p)
        return float(1.0 - special.ndtr(z2 / s) + special.ndtr(-z2 / s))
    if method == "packing":
        # (p/k) P_n - (1-k/p)(4 log n - log log n) converges to the same
        # Gumbel family as the null limit of P_n (k = p recovers level alpha)
        drift = (1.0 - k / p) * (4.0 * math.log(n) - math.log(math.log(n)))
        crit = packing_gumbel_quantile(alpha)
        return float(1.0 - packing_gumbel_cdf((p / k) * crit - drift))
    raise DomainError(f"unknown method {method!r}")
