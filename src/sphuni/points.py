"""Point sets on the unit sphere and their pairwise inner products."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadShapeError, NotOrthogonalError, NotUnitError, ParseError, ZeroRowError

_NORM_TOL = 1e-6
_ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class UnitPointSet:
    """Sample of n unit vectors in R^p, one observation per row.

    Rows are renormalized on construction; the backing array is
    read-only so a set can be shared freely.
    """

    data: np.ndarray

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def inner_products(self) -> InnerProductList:
        """`pairwise_inner_products(self)`, computed on first use and kept
        while the set lives (8 n(n-1)/2 bytes).

        Kept in the instance dict rather than a dataclass field, so that
        building a set costs nothing extra, and without a lock: threads
        that race on the first use compute the same values, and
        `dict.setdefault` hands every one of them the object stored first.
        """
        ip = self.__dict__.get("_inner_products")
        if ip is None:
            ip = self.__dict__.setdefault("_inner_products", pairwise_inner_products(self))
        return ip


@dataclass(frozen=True, eq=False)
class InnerProductList:
    """All n(n-1)/2 pairwise inner products of a sample, sorted ascending."""

    values: np.ndarray
    n: int

    def __len__(self) -> int:
        return len(self.values)


def make_unit_point_set(raw, normalize: bool = False) -> UnitPointSet:
    """Validate an (n, p) array of directions and wrap it as a UnitPointSet.

    Parameters
    ----------
    raw : array_like, shape (n, p)
        One observation per row, n >= 2 and p >= 2.
    normalize : bool
        If True, rescale every row to unit norm.  If False, rows must
        already be unit within 1e-6; they are still renormalized exactly.

    Raises
    ------
    BadShapeError, ZeroRowError, NotUnitError
    """
    # a copy in the input's own memory order, which keeps the summation
    # order of its row norms
    return _own_unit_point_set(np.array(raw, dtype=float, order="K"), normalize)


def _own_unit_point_set(arr: np.ndarray, normalize: bool = False) -> UnitPointSet:
    """`make_unit_point_set` of a float array that the caller hands over:
    after the same checks, its rows are divided by their norms in place
    and it is marked read-only."""
    if arr.ndim != 2:
        raise BadShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
    n, p = arr.shape
    if n < 2 or p < 2:
        raise BadShapeError(f"need n >= 2 and p >= 2, got shape ({n}, {p})")
    arr /= _row_norms(arr, normalize)[:, None]
    arr.setflags(write=False)
    return UnitPointSet(arr)


def _row_norms(arr: np.ndarray, normalize: bool = True) -> np.ndarray:
    """The norm of every row of `arr` (last axis, any leading shape), by
    `_norms`, so with no array of squares for C-contiguous rows, after
    `make_unit_point_set`'s checks on the rows; a row index in an error
    counts within its own sample."""
    norms = _norms(arr)
    # a non-finite value makes its row's norm non-finite, so the rows are
    # searched only when a norm is
    if not np.all(np.isfinite(norms)) and not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.isfinite(arr).all(axis=-1))[0][-1])
        raise BadShapeError(f"non-finite value in row {bad}")
    if np.any(norms < _ZERO_TOL):
        at = tuple(np.argwhere(norms < _ZERO_TOL)[0])
        raise ZeroRowError(f"row {at[-1]} has norm {norms[at]:.3e} < {_ZERO_TOL}")
    if not normalize:
        dev = np.abs(norms - 1.0)
        if np.any(dev > _NORM_TOL):
            at = tuple(np.argwhere(dev > _NORM_TOL)[0])
            raise NotUnitError(
                f"row {at[-1]} has norm {norms[at]:.8f}; pass normalize=True to rescale"
            )
    return norms


# `_norms` squares rows through a scratch buffer of about this many floats
_NORM_SCRATCH = 1 << 14


def _norms(x: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(x, axis=-1)`, the same floats, without its array of
    squares as large as x.

    For real x that is sqrt(np.add.reduce(x * x, axis=-1)); each row's
    squares are summed along the row, pairwise, whatever other rows share
    the call.  So for C-contiguous x the squares of a few rows at a time
    go through one scratch buffer of `_NORM_SCRATCH` floats.  Other
    layouts keep `np.linalg.norm`, whose squares take x's memory order
    and, for a Fortran-ordered x, are summed in another order.
    """
    if not x.flags.c_contiguous:
        return np.linalg.norm(x, axis=-1)
    p = x.shape[-1]
    rows = x.reshape(-1, p)
    out = np.empty(len(rows))
    step = max(1, _NORM_SCRATCH // p)
    scratch = np.empty((min(step, len(rows)), p))
    for i in range(0, len(rows), step):
        chunk = rows[i : i + step]
        squares = scratch[: len(chunk)]
        np.multiply(chunk, chunk, out=squares)
        np.add.reduce(squares, axis=-1, out=out[i : i + step])
    return np.sqrt(out, out=out).reshape(x.shape[:-1])


@lru_cache(maxsize=4)
def _upper_flat_indices(n: int) -> np.ndarray:
    """Row-major flat indices of the strict upper triangle of an n x n matrix.

    Shared by every caller and never written.  It is left writeable
    because `np.take` copies a read-only index on every call."""
    return np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))


def pairwise_inner_products(s: UnitPointSet) -> InnerProductList:
    """All inner products X_i . X_j for i < j, clamped to [-1, 1], sorted.

    Computed afresh on every call; `s.inner_products` keeps one copy.
    """
    n = s.n
    # the Gram is allocated before the values it leaves, so that once freed
    # its block lies below them and the next call reuses it; freed from the
    # heap top, glibc would trim it and fault it back in on every call
    gram = np.empty((1, n, n))
    vals = _sorted_pairs(s.data[None], gram, np.empty((1, n * (n - 1) // 2)))[0]
    vals.setflags(write=False)
    return InnerProductList(vals, n)


def _sorted_pairs(x: np.ndarray, gram: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`pairwise_inner_products` of a stack of samples x (b, n, p): row k
    of `out` (b, n(n-1)/2) gets sample k's values, through the stacked
    Gram in `gram` (b, n, n).  numpy runs each sample's Gram as its own
    BLAS call, so every value is the float of a one-sample call."""
    b, n, _ = x.shape
    np.matmul(x, x.transpose(0, 2, 1), out=gram)
    np.take(gram.reshape(b, n * n), _upper_flat_indices(n), axis=1, out=out, mode="clip")
    np.clip(out, -1.0, 1.0, out=out)
    out.sort(axis=1)
    return out


def apply_rotation(s: UnitPointSet, q) -> UnitPointSet:
    """Rotate every observation by the orthogonal matrix q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (s.p, s.p):
        raise BadShapeError(f"rotation must be ({s.p}, {s.p}), got {q.shape}")
    if np.max(np.abs(q.T @ q - np.eye(s.p))) > 1e-8:
        raise NotOrthogonalError("q'q deviates from the identity by more than 1e-8")
    # rotations preserve norms only up to rounding; restore exactly
    return _own_unit_point_set(s.data @ q.T, normalize=True)


def load_points_csv(path, normalize: bool = False) -> UnitPointSet:
    """Read a sample from CSV, one observation per line, optional header.

    Raises ParseError when a line has the wrong field count or a field
    does not parse as a number; the message carries the line number.
    """
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, rec in enumerate(reader, start=1):
            if not rec or all(not c.strip() for c in rec):
                continue
            try:
                vals = [float(c) for c in rec]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ParseError(f"line {lineno}: non-numeric field in {rec!r}") from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ParseError(
                    f"line {lineno}: expected {width} fields, got {len(vals)}"
                )
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return _own_unit_point_set(np.asarray(rows, dtype=float), normalize)
