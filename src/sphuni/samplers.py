"""Seeded samplers for every data-generating model, plus the simplex frame.

All samplers are pure functions of an explicit RNG state obtained from
an RngSeed, so identical (master, stream) pairs give bit-identical
samples regardless of how many threads the caller runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np

from .distributions import CoordinateMarginal, _marginal
from .errors import DomainError
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


@dataclass(frozen=True, eq=False)
class Uniform:
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise DomainError(f"need p >= 2, got {self.p}")


@dataclass(frozen=True, eq=False)
class _Tilt:
    """Exponential tilt exp(kappa (mu.x)^power) of the uniform law: one
    spec for FvML (power 1) and Watson (power 2)."""

    p: int
    kappa: float
    mu: np.ndarray | None = None
    power: ClassVar[int]

    def __post_init__(self):
        if self.p < 3:
            raise DomainError(f"need p >= 3, got {self.p}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa}")
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=float)
            if mu.shape != (self.p,):
                raise DomainError(f"mu must have shape ({self.p},)")
            if abs(np.linalg.norm(mu) - 1.0) > 1e-8:
                raise DomainError("mu must be unit-norm within 1e-8")
            object.__setattr__(self, "mu", mu)

    @property
    def marginal(self) -> CoordinateMarginal:
        """The law of mu.X, cached per (p, kappa, power)."""
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
        if not 2 <= self.k <= self.p:
            raise DomainError(f"need 2 <= k <= p, got k={self.k}, p={self.p}")


@dataclass(frozen=True)
class AlphaSpherical:
    p: int
    alpha: float

    def __post_init__(self):
        if self.p < 2:
            raise DomainError(f"need p >= 2, got {self.p}")
        if not 0.0 < self.alpha < 2.0:
            raise DomainError(f"alpha must be in (0, 2), got {self.alpha}")


@dataclass(frozen=True)
class CapMixture:
    p: int
    eps: float | None = None

    def __post_init__(self):
        if self.p < 3:
            raise DomainError(f"need p >= 3, got {self.p}")
        if self.eps is None:
            object.__setattr__(self, "eps", 1.0 / (4.0 * self.p))
        if not 0.0 < self.eps < math.pi / 4.0:
            raise DomainError(f"need 0 < eps < pi/4, got {self.eps}")


ModelSpec = Union[Uniform, Fvml, Watson, LowRank, AlphaSpherical, CapMixture]


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream index; the pair fully determines a draw."""

    master: int
    stream: int = 0

    def __post_init__(self):
        if self.master < 0 or self.stream < 0:
            raise DomainError(f"master and stream must be >= 0, got {self}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master, spawn_key=(self.stream,))
        )


def _master(seed, error, field: str) -> int:
    """The int master seed named by `seed`: an int, or an `RngSeed` of
    stream 0.  Each replication of a seeded pass draws from its own stream
    of the master, so any other stream, or a negative seed, raises `error`
    naming `field`."""
    if isinstance(seed, RngSeed):
        if seed.stream != 0:
            raise error(
                f"{field}: replications draw from their own streams of the master, "
                f"so an RngSeed must have stream 0, got {seed}"
            )
        return seed.master
    if int(seed) < 0:
        raise error(f"{field}: must be >= 0, got {seed}")
    return int(seed)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return (seed if isinstance(seed, RngSeed) else RngSeed(int(seed))).generator()


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
    to samples.  The build re-knots a coarse mass profile at equal CDF
    steps, then checks the inverse at every cell's mid-level against a
    16-point quadrature of the cell and halves each cell that misses
    `_TABLE_TOL`.  It stops after five passes (four halvings) whether or
    not every cell met the tolerance, so `_TABLE_TOL` is an aim, not a
    bound.  Measured against scipy's `quad` at every cell's mid-level,
    the FvML p = 80, kappa = 80^{1/4} table (power-small's tau = 1) and
    the Watson p = 600 table of the n = 400, tau = 2 curve miss it on
    about 40 % of their ~9,000 cells: by at most 1.3e-8 at levels within
    [1e-3, 1 - 1e-3], and by 1.7e-6 in the widest tail cells, which
    began as one cell holding the whole tail below the first level step
    of 1/4096 and were halved only four times.  A density too
    concentrated for the table's grids on [lo, hi] raises DomainError:
    one whose cell masses are not finite, whose knots cannot carry a
    finite inverse slope, or whose mode a merged cell's rule misses.
    """

    def __init__(self, logpdf, lo: float, hi: float):
        t, cdf = self._build_knots(logpdf, lo, hi, _TABLE_TOL)
        self._inv = _monotone_inverse(cdf, t)
        self.lo, self.hi = lo, hi
        self.knots = t
        self.cdf = cdf

    @staticmethod
    def _cell_masses(logpdf, lo, hi, shift):
        # 16-point Gauss-Legendre on each cell [lo[i], hi[i]], vectorized
        xg, wg = np.polynomial.legendre.leggauss(16)
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        tt = mid[:, None] + half[:, None] * xg[None, :]
        ww = half[:, None] * wg[None, :]
        return np.sum(ww * np.exp(logpdf(tt) - shift), axis=1)

    def _build_knots(self, logpdf, lo, hi, tol):
        # pass 1: coarse mass profile on a uniform grid
        coarse = np.linspace(lo, hi, 1025)
        shift = float(np.max(logpdf(np.linspace(lo, hi, 4097))))
        mass = self._cell_masses(logpdf, coarse[:-1], coarse[1:], shift)
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
            mass = self._cell_masses(logpdf, edges[:-1], edges[1:], shift)
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
            that = np.asarray(invp(midlev))
            idx = np.clip(np.searchsorted(edges, that, side="right") - 1, 0, len(edges) - 2)
            part = self._cell_masses(logpdf, edges[idx], that, shift)
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
    """The PCHIP interpolant of t against the increasing cdf.  Knots that
    cannot carry one, which scipy rejects, raise DomainError: fewer than
    two, a cdf that is not finite and increasing, or cdf steps so small
    that the slopes overflow."""
    from scipy.interpolate import PchipInterpolator  # loaded by the first table

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            return PchipInterpolator(cdf, t, extrapolate=False)
        except ValueError:
            raise DomainError(
                f"{len(t)} knots on [{t[0]}, {t[-1]}] cannot carry a finite inverse CDF"
            ) from None


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
    rng = _as_rng(rng)
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
    """Draws X = T mu + sqrt(1-T^2) W from the tilt `model` into every row
    of `out` (B, n, p): T from its marginal, W uniform on the unit sphere
    orthogonal to mu (e1 when mu is None), sample k from rngs[k].

    Sample k draws its n uniforms and then its tangent normals into
    `normals[k]` (B, n, p - 1); the table lookup, the normalisations and
    the tangent map then run once over the block.  With mu given, W is
    the reflection exchanging e1 and -/+mu of the row [0, w]; with mu =
    e1 that reflection fixes the row, so W is [0, w] itself."""
    b, n, p = out.shape
    u = np.empty((b, n))
    for rng, uk, wk in zip(rngs, u, normals):
        rng.random(out=uk)
        rng.standard_normal(out=wk)
    t = np.asarray(_marginal_table(p, float(model.kappa), model.power)(u))
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, 1.0))[..., None]
    w = _unit_normals(normals, rngs)
    if model.mu is None:
        out[..., 0] = t
        np.multiply(w, s, out=out[..., 1:])
    else:
        mu = model.mu
        sign = 1.0 if mu[0] >= 0 else -1.0
        v = mu.copy()
        v[0] += sign  # v = mu + sign*e1; reflection sends e1 -> -sign*mu
        vnorm2 = 2.0 * (1.0 + sign * mu[0])
        out[..., 0] = 0.0
        out[..., 1:] = w
        # numpy runs one matrix-vector product per sample, as for a block of one
        coef = (out @ v) * (2.0 / vnorm2)
        out -= coef[..., None] * v
        out *= s
        out += t[..., None] * mu
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
    if p < 3:
        raise DomainError(f"need p >= 3, got {p}")
    return _simplex_rows(np.arange(p + 1), *_simplex_scalars(p), np.empty((p + 1, p)))


def _cap_block(eps: float, rngs, out: np.ndarray, s: float, c: float, d: float) -> np.ndarray:
    """Draws from the equal-weight mixture of uniform caps of angular
    radius eps centered on the p + 1 rows s e_i + c 1 (i < p) and d 1 of
    the frame (s, c, d), sample j into out[j] from rngs[j]; a model's
    draw passes `_simplex_scalars(p)`.  Each row starts as normals g and
    becomes cos(theta) mu + sin(theta) g', mu its center and g' the unit
    part of g orthogonal to mu, a few rows at a time."""
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
            mus, proj = scratch[:, : len(g)]
            _simplex_rows(labels[at], s, c, d, mus)
            dots = np.add.reduce(np.multiply(g, mus, out=proj), axis=1)
            g -= np.multiply(mus, dots[:, None], out=proj)
            g /= _norms(g)[:, None]
            g *= sin[at]
            g += np.multiply(mus, cos[at], out=mus)
            g /= _norms(g)[:, None]
    return out


# ---------------------------------------------------------------------------
# dispatcher


def sample(model: ModelSpec, n: int, seed) -> UnitPointSet:
    """n i.i.d. draws from `model`, wrapped as a UnitPointSet."""
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
