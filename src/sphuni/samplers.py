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
from scipy.interpolate import PchipInterpolator

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
    rotate: bool = False

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

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master, spawn_key=(self.stream,))
        )


def _master(seed, error, field: str) -> int:
    """The int master seed named by `seed`: an int, or an `RngSeed` of
    stream 0.  Each replication of a seeded pass draws from its own stream
    of the master, so any other stream raises `error` naming `field`."""
    if isinstance(seed, RngSeed):
        if seed.stream != 0:
            raise error(
                f"{field}: replications draw from their own streams of the master, "
                f"so an RngSeed must have stream 0, got {seed}"
            )
        return seed.master
    return int(seed)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return (seed if isinstance(seed, RngSeed) else RngSeed(int(seed))).generator()


# ---------------------------------------------------------------------------
# inverse-CDF tables for 1-D marginals


_TABLE_TOL = 1e-10  # CDF error bound of an inverse-CDF table


class InverseCdfTable:
    """Monotone-cubic inverse CDF of a 1-D density on a refined grid.

    Built once per marginal and cached; lookup maps Uniform(0,1) draws
    to samples with CDF error below `_TABLE_TOL`.
    """

    def __init__(self, logpdf, lo: float, hi: float):
        t, cdf = self._build_knots(logpdf, lo, hi, _TABLE_TOL)
        self._inv = PchipInterpolator(cdf, t, extrapolate=False)
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
        cum /= cum[-1]
        # pass 2: re-knot at equal CDF increments so cells carry equal mass
        levels = np.linspace(0.0, 1.0, 4097)
        edges = np.interp(levels, cum, coarse)
        edges[0], edges[-1] = lo, hi
        edges = np.unique(edges)
        for attempt in range(5):
            mass = self._cell_masses(logpdf, edges[:-1], edges[1:], shift)
            cdf = np.concatenate([[0.0], np.cumsum(mass)])
            total = cdf[-1]
            cdf /= total
            keep = np.concatenate([[True], np.diff(cdf) > 0])
            edges, cdf = edges[keep], cdf[keep]
            if attempt == 4:
                break
            # verify the interpolated inverse at cell mid-levels against
            # the true CDF (cell cdf plus a partial-cell quadrature)
            invp = PchipInterpolator(cdf, edges, extrapolate=False)
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


@lru_cache(maxsize=64)
def _marginal_table(p: int, kappa: float, power: int) -> InverseCdfTable:
    marg = _marginal(p, kappa, power)
    lo, hi = marg.window()
    return InverseCdfTable(marg.log_unnorm, lo, hi)


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
    sample j into out[j] from rngs[j], optionally pushed through one
    random rotation that sample j draws first."""
    _, n, p = out.shape
    normals, rows = np.empty((1, n, model.k)), np.zeros((n, p))
    for rng, x in zip(rngs, out):
        if model.rotate:
            q, r = np.linalg.qr(rng.standard_normal((p, p)))
            q *= np.sign(np.diag(r))
        rng.standard_normal(out=normals[0])
        rows[:, : model.k] = _unit_normals(normals, [rng])[0]
        if model.rotate:
            np.matmul(rows, q.T, out=x)
        else:
            x[...] = rows
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


def build_simplex_frame(p: int) -> np.ndarray:
    """(p+1) unit vectors in R^p with pairwise inner products -1/p.

    The centered standard-basis simplex in R^{p+1}, rescaled to unit
    norm, then reflected so the zero-sum hyperplane lands on the first
    p coordinates.
    """
    if p < 3:
        raise DomainError(f"need p >= 3, got {p}")
    m = p + 1
    # rows: sqrt((p+1)/p) (e_i - 1/(p+1))
    u = -np.full((m, m), 1.0 / m)
    u[np.diag_indices(m)] += 1.0
    u *= math.sqrt(m / p)
    # Householder sending 1/sqrt(m) -> e_m; zero-sum vectors land with
    # last coordinate 0
    v = np.full(m, 1.0 / math.sqrt(m))
    v[-1] -= 1.0
    v /= np.linalg.norm(v)
    frame = u - 2.0 * np.outer(u @ v, v)
    return np.ascontiguousarray(frame[:, :p])


@lru_cache(maxsize=8)
def _cached_frame(p: int) -> np.ndarray:
    frame = build_simplex_frame(p)
    frame.setflags(write=False)
    return frame


def _cap_block(eps: float, rngs, out: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Draws from the equal-weight mixture of uniform caps of angular
    radius eps centered on the p + 1 rows of `frame`, sample j into out[j]
    from rngs[j]; a model's draw passes its simplex frame.  Each row starts
    as normals g and becomes cos(theta) mu + sin(theta) g', mu its center
    and g' the unit part of g orthogonal to mu, a few rows at a time."""
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
            # "clip" lets take write into mus unbuffered; every label is in range
            np.take(frame, labels[at], axis=0, out=mus, mode="clip")
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
        return _cap_block(model.eps, rngs, out, _cached_frame(model.p))
    raise DomainError(f"unknown model spec: {model!r}")
