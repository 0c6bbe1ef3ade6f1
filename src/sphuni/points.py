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
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2:
        raise BadShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
    n, p = arr.shape
    if n < 2 or p < 2:
        raise BadShapeError(f"need n >= 2 and p >= 2, got shape ({n}, {p})")
    if not np.all(np.isfinite(arr)):
        bad = int(np.nonzero(~np.isfinite(arr).all(axis=1))[0][0])
        raise BadShapeError(f"non-finite value in row {bad}")

    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms < _ZERO_TOL):
        bad = int(np.nonzero(norms < _ZERO_TOL)[0][0])
        raise ZeroRowError(f"row {bad} has norm {norms[bad]:.3e} < {_ZERO_TOL}")
    if not normalize:
        dev = np.abs(norms - 1.0)
        if np.any(dev > _NORM_TOL):
            bad = int(np.nonzero(dev > _NORM_TOL)[0][0])
            raise NotUnitError(
                f"row {bad} has norm {norms[bad]:.8f}; pass normalize=True to rescale"
            )

    out = arr / norms[:, None]
    out.setflags(write=False)
    return UnitPointSet(out)


@lru_cache(maxsize=4)
def _upper_flat_indices(n: int) -> np.ndarray:
    """Row-major flat indices of the strict upper triangle of an n x n matrix."""
    idx = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    idx.setflags(write=False)
    return idx


def pairwise_inner_products(s: UnitPointSet) -> InnerProductList:
    """All inner products X_i . X_j for i < j, clamped to [-1, 1], sorted.

    Computed afresh on every call; `s.inner_products` keeps one copy.
    """
    gram = s.data @ s.data.T
    vals = gram.ravel()[_upper_flat_indices(s.n)]
    np.clip(vals, -1.0, 1.0, out=vals)
    vals.sort()
    vals.setflags(write=False)
    return InnerProductList(vals, s.n)


def apply_rotation(s: UnitPointSet, q) -> UnitPointSet:
    """Rotate every observation by the orthogonal matrix q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (s.p, s.p):
        raise BadShapeError(f"rotation must be ({s.p}, {s.p}), got {q.shape}")
    if np.max(np.abs(q.T @ q - np.eye(s.p))) > 1e-8:
        raise NotOrthogonalError("q'q deviates from the identity by more than 1e-8")
    out = s.data @ q.T
    # rotations preserve norms only up to rounding; restore exactly
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    out.setflags(write=False)
    return UnitPointSet(out)


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
    return make_unit_point_set(np.asarray(rows), normalize=normalize)
