"""Seeded samplers for every data-generating model, plus the simplex frame.

All samplers are pure functions of an explicit RNG state obtained from
an RngSeed, so identical (master, stream) pairs give bit-identical
samples regardless of how many threads the caller runs.  Every model
draws in one frame (a tilt's mean direction is e1, a low-rank subsphere
spans the first k coordinates): the package's statistics, distances and
null laws are invariant under rotations, and `apply_rotation` orients a
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np

from .distributions import CoordinateMarginal, _marginal
from .errors import DomainError, _integer, _real
from .points import _NORM_SCRATCH, UnitPointSet, _norms, _own_unit_point_set

__all__ = [
    "Uniform",
    "Fvml",
    "Watson",
    "LowRank",
    "AlphaSpherical",
    "CapMixture",
    "ModelSpec",
    "RngSeed",
    "sample",
    "sample_uniform_direction",
    "build_simplex_frame",
]


# ---------------------------------------------------------------------------
# model specifications


@dataclass(frozen=True)
class Uniform:
    p: int

    def __post_init__(self):
        _int_fields(self, "p")
        if self.p < 2:
            raise DomainError(f"need p >= 2, got {self.p}")


@dataclass(frozen=True)
class _Tilt:
    """Exponential tilt exp(kappa x_1^power) of the uniform law about the
    mean direction e1: one spec for FvML (power 1) and Watson (power 2)."""

    p: int
    kappa: float
    power: ClassVar[int]

    def __post_init__(self):
        _int_fields(self, "p")
        if self.p < 3:
            raise DomainError(f"need p >= 3, got {self.p}")
        if not (math.isfinite(_real(self.kappa, DomainError, "kappa")) and self.kappa >= 0):
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")

    @property
    def marginal(self) -> CoordinateMarginal:
        """The law of X_1, cached per (p, kappa, power)."""
        return _marginal(self.p, float(self.kappa), self.power)


class Fvml(_Tilt):
    power = 1


class Watson(_Tilt):
    power = 2


@dataclass(frozen=True)
class LowRank:
    p: int
    k: int

    def __post_init__(self):
        _int_fields(self, "p", "k")
        if not 2 <= self.k <= self.p:
            raise DomainError(f"need 2 <= k <= p, got k={self.k}, p={self.p}")


@dataclass(frozen=True)
class AlphaSpherical:
    p: int
    alpha: float

    def __post_init__(self):
        _int_fields(self, "p")
        if self.p < 2:
            raise DomainError(f"need p >= 2, got {self.p}")
        if not 0.0 < _real(self.alpha, DomainError, "alpha") < 2.0:
            raise DomainError(f"alpha must be in (0, 2), got {self.alpha}")


@dataclass(frozen=True)
class CapMixture:
    p: int
    eps: float | None = None

    def __post_init__(self):
        _int_fields(self, "p")
        if self.p < 3:
            raise DomainError(f"need p >= 3, got {self.p}")
        if self.eps is None:
            object.__setattr__(self, "eps", 1.0 / (4.0 * self.p))
        if not 0.0 < _real(self.eps, DomainError, "eps") < math.pi / 4.0:
            raise DomainError(f"need 0 < eps < pi/4, got {self.eps}")


ModelSpec = Union[Uniform, Fvml, Watson, LowRank, AlphaSpherical, CapMixture]


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream index; the pair fully determines a draw."""

    master: int
    stream: int = 0

    def __post_init__(self):
        _master(self.master, DomainError, "RngSeed master")
        _master(self.stream, DomainError, "RngSeed stream")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master, spawn_key=(self.stream,))
        )


def _int_fields(spec, *names: str) -> None:
    """Store each field `names` of the frozen `spec` as an `_integer`."""
    for name in names:
        object.__setattr__(spec, name, _integer(getattr(spec, name), DomainError, name))


def _master(seed, error, field: str) -> int:
    """The int master seed named by `seed`: an integer (`_integer`), or an
    `RngSeed` of stream 0.  Each replication of a seeded pass draws from
    its own stream of the master, so any other stream raises `error`
    naming `field`, as does a negative seed, or one that is not an integer."""
    if isinstance(seed, RngSeed):
        if seed.stream != 0:
            raise error(
                f"{field}: replications draw from their own streams of the master, "
                f"so an RngSeed must have stream 0, got {seed}"
            )
        return seed.master
    seed = _integer(seed, error, field)
    if seed < 0:
        raise error(f"{field}: must be >= 0, got {seed}")
    return seed


def _as_rng(seed, field: str = "seed") -> np.random.Generator:
    """The generator `seed` names: itself, an `RngSeed`'s, or that of the
    integer master seed `seed`, which is checked as `_master` checks it."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    return RngSeed(_master(seed, DomainError, field)).generator()


# ---------------------------------------------------------------------------
# inverse-CDF tables for 1-D marginals


# CDF error an inverse-CDF table's refinement aims at; five passes do not
# always reach it (see InverseCdfTable)
_TABLE_TOL = 1e-10
# share of the mass a refinement pass may lose where zero-mass cells were
# merged into a neighbour before the build gives up on the density
_TABLE_LOST_MASS = 1e-3


class InverseCdfTable:
    """Monotone-cubic inverse CDF of a 1-D density on a refined grid.

    Built once per marginal and cached; lookup maps Uniform(0,1) draws
    to samples.  The interpolant is PCHIP, Fritsch and Butland's monotone
    cubic with Moler's end slopes, in numpy (`_monotone_inverse`); a test
    pins it to the floats of scipy's `PchipInterpolator`.  The build
    re-knots a coarse mass profile at equal CDF steps, then checks the
    inverse at every cell's mid-level against a 16-point quadrature of
    the cell and halves each cell that misses `_TABLE_TOL`.  It stops
    after five passes (four halvings) whether or not every cell met the
    tolerance, so `_TABLE_TOL` is an aim, not a bound.  Measured against
    scipy's `quad` at every cell's mid-level, the FvML p = 80, kappa =
    80^{1/4} table (power-small's tau = 1) and the Watson p = 600 table
    of the n = 400, tau = 2 curve miss it on about 40 % of their ~9,000
    cells: by at most 1.3e-8 at levels within [1e-3, 1 - 1e-3], and by
    1.7e-6 in the widest tail cells, which began as one cell holding the
    whole tail below the first level step of 1/4096 and were halved only
    four times.  A density too concentrated for the table's grids on
    [lo, hi] raises DomainError: one whose cell masses are not finite,
    whose knots cannot carry a finite inverse slope, or whose mode a
    merged cell's rule misses.
    """

    def __init__(self, logpdf, lo: float, hi: float):
        t, cdf = self._build_knots(logpdf, lo, hi, _TABLE_TOL)
        self._inv = _monotone_inverse(cdf, t)
        self.lo, self.hi = lo, hi
        self.knots = t
        self.cdf = cdf

    @staticmethod
    def _build_knots(logpdf, lo, hi, tol):
        xg, wg = np.polynomial.legendre.leggauss(16)

        def cell_masses(a, b):
            # 16-point Gauss-Legendre on each cell [a[i], b[i]], vectorized
            mid = 0.5 * (b + a)
            half = 0.5 * (b - a)
            tt = mid[:, None] + half[:, None] * xg[None, :]
            ww = half[:, None] * wg[None, :]
            return np.sum(ww * np.exp(logpdf(tt) - shift), axis=1)

        # pass 1: coarse mass profile on a uniform grid
        coarse = np.linspace(lo, hi, 1025)
        shift = float(np.max(logpdf(np.linspace(lo, hi, 4097))))
        mass = cell_masses(coarse[:-1], coarse[1:])
        cum = np.concatenate([[0.0], np.cumsum(mass)])
        if not 0.0 < cum[-1] < math.inf:
            raise DomainError(f"the density's mass on [{lo}, {hi}] is not a finite positive number")
        cum /= cum[-1]
        # pass 2: re-knot at equal CDF increments so cells carry equal mass
        levels = np.linspace(0.0, 1.0, 4097)
        edges = np.interp(levels, cum, coarse)
        edges[0], edges[-1] = lo, hi
        edges = np.unique(edges)
        merged = None
        # five passes at most, whatever the error left: more would move
        # every table, and so every draw, that stops short of tol now
        for attempt in range(5):
            mass = cell_masses(edges[:-1], edges[1:])
            cdf = np.concatenate([[0.0], np.cumsum(mass)])
            if merged is not None:
                # a cell that absorbed zero-mass neighbours is integrated
                # whole now; if its rule misses the mode the cell held, the
                # mass is gone and the table would draw from the wrong law
                a, b, share = merged
                again = cdf[np.searchsorted(edges, b)] - cdf[np.searchsorted(edges, a)]
                lost = float(np.max(share - again / total, initial=0.0))
                if lost > _TABLE_LOST_MASS:
                    raise DomainError(
                        f"refining the cells on [{lo}, {hi}] lost {lost:.3g} of the "
                        "density's mass: a mode is narrower than the cells"
                    )
            total = cdf[-1]
            cdf /= total
            keep = np.concatenate([[True], np.diff(cdf) > 0])
            # zero-mass cells join the next cell; the next pass checks its mass
            kept = np.flatnonzero(keep)
            join = np.flatnonzero(np.diff(kept) > 1)
            left, right = kept[join], kept[join + 1]
            merged = (edges[left], edges[right], cdf[right] - cdf[left])
            edges, cdf = edges[keep], cdf[keep]
            if attempt == 4:
                break
            # verify the interpolated inverse at cell mid-levels against
            # the true CDF (cell cdf plus a partial-cell quadrature)
            invp = _monotone_inverse(cdf, edges)
            midlev = 0.5 * (cdf[1:] + cdf[:-1])
            that = invp(midlev)
            idx = np.clip(np.searchsorted(edges, that, side="right") - 1, 0, len(edges) - 2)
            part = cell_masses(edges[idx], that)
            err = np.abs(cdf[idx] + part / total - midlev)
            bad = err > tol
            if not np.any(bad):
                break
            newpts = 0.5 * (edges[idx[bad]] + edges[idx[bad] + 1])
            edges = np.unique(np.concatenate([edges, newpts]))
        return edges, cdf

    def __call__(self, u):
        t = self._inv(np.clip(u, self.cdf[0], self.cdf[-1]))
        return np.clip(t, self.lo, self.hi)


def _monotone_inverse(cdf: np.ndarray, t: np.ndarray):
    """The PCHIP interpolant of t against the increasing cdf: Fritsch and
    Butland's monotone cubic (SIAM J. Sci. Stat. Comput. 5(2), 1984) with
    Moler's one-sided end slopes (Numerical Computing with MATLAB, 2004,
    sec. 3.6), as scipy's `PchipInterpolator(cdf, t, extrapolate=False)`
    builds and evaluates it; a test pins it to scipy's floats.  A level
    outside [cdf[0], cdf[-1]], or NaN, maps to NaN.  Knots that cannot
    carry one, which scipy rejects, raise DomainError: fewer than two, a
    cdf that is not finite and strictly increasing, t not finite, or cdf
    steps so small that the slopes overflow."""
    x, y = np.asarray(cdf, dtype=float), np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = np.diff(x)
        ok = len(x) >= 2 and np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(h > 0)
        if ok:
            m = np.diff(y) / h
            d = _pchip_slopes(h, m)
            ok = np.all(np.isfinite(d))
        if not ok:
            raise DomainError(
                f"{len(t)} knots on [{t[0]}, {t[-1]}] cannot carry a finite inverse CDF"
            )
        # per cell: its left knot, then CubicHermiteSpline's coefficients of
        # s^0 (plus the 0 its evaluation starts from), s^1, s^2 and s^3;
        # the NaN columns 0 and -1 answer levels below and above the knots
        cells = np.full((5, len(x) + 1), np.nan)
        slope = (d[:-1] + d[1:] - 2 * m) / h
        cells[:, 1:-1] = x[:-1], 0.0 + y[:-1], d[:-1], (m - d[:-1]) / h - slope, slope / h
    # cell i holds [x[i], x[i+1]), the last cell [x[-2], x[-1]]: moving the
    # last knot up one float puts x[-1] into it and anything above beyond it
    right = x.copy()
    right[-1] = np.nextafter(x[-1], math.inf)

    def inverse(u):
        u = np.asarray(u, dtype=float)
        left, c0, c1, c2, c3 = np.take(cells, np.searchsorted(right, u, side="right"), axis=1)
        # in scipy's order, c0 + c1 s + c2 (s s) + c3 (s s s), not Horner's
        with np.errstate(over="ignore", invalid="ignore"):
            s = u - left
            out = c1 * s
            out += c0
            power = s * s
            out += c2 * power
            power *= s
            power *= c3
            out += power
        return out

    return inverse


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """scipy's PCHIP slopes at the knots, from the steps h and secants m:
    the weighted harmonic mean of the neighbouring secants where they share
    a sign (0 where they do not), and at each end the one-sided three-point
    estimate, 0 where its sign differs from the end secant's and 3 times
    that secant where it exceeds it and the two end secants differ in sign."""
    if len(m) == 1:
        return np.array([m[0], m[0]])
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end = np.where(np.sign(end) != np.sign(m0), 0.0,
                   np.where((np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0)),
                            3.0 * m0, end))
    return np.concatenate([end[:1], inner, end[1:]])


@lru_cache(maxsize=64)
def _marginal_table(p: int, kappa: float, power: int) -> InverseCdfTable:
    marg = _marginal(p, kappa, power)
    lo, hi = marg.window()
    try:
        return InverseCdfTable(marg.log_unnorm, lo, hi)
    except DomainError as exc:
        raise DomainError(
            f"the coordinate law at p={p}, kappa={kappa} is too concentrated "
            f"to tabulate: {exc}"
        ) from None


@lru_cache(maxsize=64)
def _cap_angle_table(p: int, eps: float) -> InverseCdfTable:
    """Angle inverse-CDF for a cap draw, in the rim coordinate w = (theta/eps)^{p-1}.

    The substitution absorbs the theta^{p-2} area factor, leaving the
    bounded density (sin theta / theta)^{p-2}, well-conditioned for
    every cap width and dimension.
    """

    def logpdf(w):
        w = np.asarray(w, dtype=float)
        theta = eps * np.maximum(w, 1e-300) ** (1.0 / (p - 1))
        return (p - 2) * (np.log(np.sin(theta)) - np.log(theta))

    return InverseCdfTable(logpdf, 0.0, 1.0)


# ---------------------------------------------------------------------------
# elementary sphere draws


def sample_uniform_direction(p: int, rng) -> np.ndarray:
    """One uniform draw on S^{p-1}: a normalized standard Gaussian vector."""
    if _integer(p, DomainError, "p") < 2:
        raise DomainError(f"need p >= 2, got {p}")
    rng = _as_rng(rng, "rng")
    return _unit_normals(rng.standard_normal((1, 1, p)), [rng])[0, 0]


def _unit_normals(x: np.ndarray, rngs) -> np.ndarray:
    """Divide every row of the standard normals x (B, n, q), sample k drawn
    from rngs[k], by its norm in place: rows uniform on S^{q-1}.  A row of
    norm below 1e-12 is first redrawn from its own sample's generator."""
    norms = _norms(x)
    for k in np.flatnonzero(np.any(norms < 1e-12, axis=-1)):  # pragma: no cover - p ~1e-300
        while np.any(bad := norms[k] < 1e-12):
            x[k][bad] = rngs[k].standard_normal((int(bad.sum()), x.shape[-1]))
            norms[k] = _norms(x[k])
    x /= norms[..., None]
    return x


def _tangent_normal_block(model: _Tilt, rngs, out: np.ndarray, normals) -> np.ndarray:
    """Draws X = (T, sqrt(1-T^2) W) from the tilt `model` into every row of
    `out` (B, n, p): T from its marginal, W uniform on S^{p-2}, sample k
    from rngs[k].

    Sample k draws its n uniforms and then its tangent normals into
    `normals[k]` (B, n, p - 1); the table lookup, the normalisations and
    the tangent map then run once over the block, elementwise."""
    b, n, p = out.shape
    u = np.empty((b, n))
    for rng, uk, wk in zip(rngs, u, normals):
        rng.random(out=uk)
        rng.standard_normal(out=wk)
    t = np.asarray(_marginal_table(p, float(model.kappa), model.power)(u))
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, 1.0))[..., None]
    out[..., 0] = t
    np.multiply(_unit_normals(normals, rngs), s, out=out[..., 1:])
    out /= _norms(out)[..., None]
    return out


def _lowrank_block(model: LowRank, rngs, out: np.ndarray) -> np.ndarray:
    """Uniform draws on the k-sphere embedded in the first k coordinates,
    sample j into out[j] from rngs[j]."""
    normals = np.empty((1, out.shape[1], model.k))
    out[..., model.k :] = 0.0
    for rng, x in zip(rngs, out):
        rng.standard_normal(out=normals[0])
        x[:, : model.k] = _unit_normals(normals, [rng])[0]
    return out


def _alpha_block(model: AlphaSpherical, rngs, out: np.ndarray) -> np.ndarray:
    """Normalized vectors of i.i.d. symmetric Pareto(alpha) coordinates,
    sample j into out[j] from rngs[j]: |coordinate| = V^{-1/alpha} with V
    uniform, so the tail index is exactly alpha, and independent Rademacher
    signs, whose uniforms pass through a small buffer in one stream."""
    u = np.empty(min(_NORM_SCRATCH, out[0].size))
    for rng, x in zip(rngs, out):
        x = rng.random(out=x).reshape(-1)
        np.power(np.maximum(x, 1e-300, out=x), -1.0 / model.alpha, out=x)
        for i in range(0, len(x), len(u)):
            part, ui = x[i : i + len(u)], rng.random(out=u[: len(x) - i])
            np.negative(part, out=part, where=ui < 0.5)
    out /= _norms(out)[..., None]
    return out


def _simplex_scalars(p: int) -> tuple[float, float, float]:
    """(s, c, d) of the regular simplex frame in R^p: row i < p is
    s e_i + c 1 and row p is d 1, with s = sqrt((p+1)/p), d = 1/sqrt(p)
    and c = -(s + d)/p, so the rows are unit, sum to zero and have
    pairwise inner products -1/p."""
    s, d = math.sqrt((p + 1) / p), 1.0 / math.sqrt(p)
    return s, -(s + d) / p, d


def _simplex_rows(labels: np.ndarray, s: float, c: float, d: float, out: np.ndarray) -> np.ndarray:
    """Write row labels[r] of the frame (s, c, d) into out[r]: c plus s at
    coordinate labels[r] when it is below p = out.shape[1], and d when it
    is p."""
    p = out.shape[1]
    out[...] = c
    out[labels == p] = d
    i = np.flatnonzero(labels < p)
    out[i, labels[i]] += s
    return out


def build_simplex_frame(p: int) -> np.ndarray:
    """(p+1) unit vectors in R^p with pairwise inner products -1/p."""
    if _integer(p, DomainError, "p") < 3:
        raise DomainError(f"need p >= 3, got {p}")
    return _simplex_rows(np.arange(p + 1), *_simplex_scalars(p), np.empty((p + 1, p)))


def _cap_block(eps: float, rngs, out: np.ndarray, s: float, c: float, d: float) -> np.ndarray:
    """Draws from the equal-weight mixture of uniform caps of angular
    radius eps centered on the p + 1 rows s e_i + c 1 (i < p) and d 1 of
    the frame (s, c, d), sample j into out[j] from rngs[j]; a model's
    draw passes `_simplex_scalars(p)`.  Each row starts as normals g and
    becomes cos(theta) m + sin(theta) g', m its center and g' the unit
    part of g orthogonal to m, a few rows at a time."""
    _, n, p = out.shape
    tbl, step = _cap_angle_table(p, float(eps)), max(1, _NORM_SCRATCH // p)
    scratch = np.empty((2, min(step, n), p))
    for rng, x in zip(rngs, out):
        labels = rng.integers(0, p + 1, size=n)
        theta = eps * np.maximum(tbl(rng.random(n)), 1e-300) ** (1.0 / (p - 1))
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        rng.standard_normal(out=x)
        for b0 in range(0, n, step):
            g, at = x[b0 : b0 + step], slice(b0, b0 + step)
            centres, proj = scratch[:, : len(g)]
            _simplex_rows(labels[at], s, c, d, centres)
            dots = np.add.reduce(np.multiply(g, centres, out=proj), axis=1)
            g -= np.multiply(centres, dots[:, None], out=proj)
            g /= _norms(g)[:, None]
            g *= sin[at]
            g += np.multiply(centres, cos[at], out=centres)
            g /= _norms(g)[:, None]
    return out


# ---------------------------------------------------------------------------
# dispatcher


def sample(model: ModelSpec, n: int, seed) -> UnitPointSet:
    """n i.i.d. draws from `model`, wrapped as a UnitPointSet."""
    n = _integer(n, DomainError, "n")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    x = _draw_block(model, n, [_as_rng(seed)], np.empty((1, n, model.p)))
    return _own_unit_point_set(x[0], normalize=True)


def _draw_block(model: ModelSpec, n: int, rngs, out: np.ndarray, normals=None) -> np.ndarray:
    """Fill `out` (B, n, p) with B = len(rngs) samples of n rows from
    `model`: the rows `sample` draws, before it normalises them.

    Sample k is written into out[k] from rngs[k] alone, with the calls
    and in the order of a block of one, and every transform after the
    draws runs in place on the block, elementwise or row by row.  So
    sample k is the same floats whatever B is and whichever samples
    share its block.  A tilt draws its tangent normals into `normals`
    (B, n, p - 1) when given, and into a fresh array otherwise.
    """
    if isinstance(model, Uniform):
        for rng, x in zip(rngs, out):
            rng.standard_normal(out=x)
        return _unit_normals(out, rngs)
    if isinstance(model, _Tilt):
        normals = np.empty(out.shape[:-1] + (model.p - 1,)) if normals is None else normals
        return _tangent_normal_block(model, rngs, out, normals)
    if isinstance(model, LowRank):
        return _lowrank_block(model, rngs, out)
    if isinstance(model, AlphaSpherical):
        return _alpha_block(model, rngs, out)
    if isinstance(model, CapMixture):
        return _cap_block(model.eps, rngs, out, *_simplex_scalars(model.p))
    raise DomainError(f"unknown model spec: {model!r}")
