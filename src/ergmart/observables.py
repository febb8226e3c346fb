"""Vector-valued observables and their integral norms.

An observable maps the N points of a space into R^d. Point norms are l^q
norms on R^d (q >= 1, q = inf allowed); integral norms weight the point
norms by the masses. The log-regularized functional used for integrability
bookkeeping uses natural log with the inner truncation max(1, .).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import MeasureSpace

__all__ = [
    "NormSpec",
    "VectorObservable",
    "row_norms",
    "point_norms",
    "point_norm_field",
    "lp_norm",
    "lp_of_norms",
    "linf_norm",
    "llog_norm",
    "mean",
    "integral",
]


@dataclass(frozen=True)
class NormSpec:
    """Exponent of the l^q norm applied pointwise on R^d."""

    q: float = 2.0

    def __post_init__(self):
        if not (self.q >= 1.0 or math.isinf(self.q)):
            raise ValueError("q must be >= 1 (q = inf allowed)")


@dataclass(frozen=True, eq=False, repr=False)
class VectorObservable:
    """Function from the points of a space into R^d, stored as an N x d array."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] != self.space.size:
            raise ValueError("values must be an N x d array matching the space")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def __add__(self, other: "VectorObservable") -> "VectorObservable":
        if not isinstance(other, VectorObservable):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("observables live on different spaces")
        return VectorObservable(self.space, self.values + other.values)

    def __sub__(self, other: "VectorObservable") -> "VectorObservable":
        if not isinstance(other, VectorObservable):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("observables live on different spaces")
        return VectorObservable(self.space, self.values - other.values)

    def __mul__(self, c: float) -> "VectorObservable":
        return VectorObservable(self.space, self.values * float(c))

    __rmul__ = __mul__

    def __repr__(self):
        return f"VectorObservable(size={self.space.size}, dim={self.dim})"


def row_norms(values: np.ndarray, q: float) -> np.ndarray:
    """l^q norms over the last axis of an array of point values, as the
    reduction gives them: inf where the sum of powers overflows, 0 where it
    underflows (point_norms mends those rows).

    numpy sums fewer than 8 entries of an axis one after the other, so below 8
    components the powers are added column by column, with the same floats
    and without the per-element cost of a reduction over a short axis; from 8
    on, the reduction (pairwise there) is kept.
    """
    dim = values.shape[-1]
    if dim == 1:
        return np.abs(values[..., 0])
    inf = math.isinf(q)
    powers = values * values if q == 2.0 else np.abs(values)
    if not (inf or q in (1.0, 2.0)):
        powers = powers**q
    if dim >= 8:
        total = powers.max(axis=-1) if inf else powers.sum(axis=-1)
    else:
        combine = np.maximum if inf else np.add
        total = combine(powers[..., 0], powers[..., 1])
        for j in range(2, dim):
            combine(total, powers[..., j], out=total)
    if q == 2.0:
        return np.sqrt(total, out=total)
    return total if inf or q == 1.0 else total ** (1.0 / q)


def point_norms(values: np.ndarray, q: float) -> np.ndarray:
    """row_norms, finite wherever the norm is: a row whose sum of powers
    leaves the float range, or underflows to 0 though the row is not 0, is
    divided by its largest |component| first, as lp_of_norms does. Every
    other row keeps row_norms' float."""
    if values.shape[-1] == 1 or math.isinf(q):
        return row_norms(values, q)  # no powers taken
    try:
        # the floating-point flags find the rare call with such a row
        with np.errstate(over="raise", under="raise"):
            return row_norms(values, q)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", under="ignore"):
        norms = row_norms(values, q)
        bad = (norms == 0.0) | (norms == math.inf)
        rows = values[bad]
        top = np.abs(rows).max(axis=-1)
        norms[bad] = top * row_norms(rows / np.where(top > 0.0, top, 1.0)[:, None], q)
    return norms


def point_norm_field(f: VectorObservable, ns: NormSpec = NormSpec()) -> VectorObservable:
    """Scalar field of pointwise l^q norms of f."""
    return VectorObservable(f.space, point_norms(f.values, ns.q))


def lp_norm(f: VectorObservable, p: float, ns: NormSpec = NormSpec()) -> float:
    """(sum_w mu_w |f(w)|_q^p)^(1/p) for finite p >= 1."""
    return lp_of_norms(point_norms(f.values, ns.q), f.space.weights, p)


def lp_of_norms(norms: np.ndarray, mu: np.ndarray, p: float):
    """(sum_w mu_w norms_w^p)^(1/p) of point norms already taken, for finite
    p >= 1, over the last axis: a float for one row of N norms, an array of
    the leading shape for a stack of rows. When a row's sum of powers leaves
    the float range (large p), its norms are divided by its largest one
    first, so the result is finite whenever the norm is."""
    if not p >= 1.0 or math.isinf(p):
        raise ValueError("p must be a finite real >= 1")
    with np.errstate(over="ignore", under="ignore"):
        if norms.ndim == 1:
            return float(_root(norms, (mu * norms**p).sum(), mu, p))
        # C order, so every row is summed as a one-row call sums it
        rows = np.ascontiguousarray(norms).reshape(-1, norms.shape[-1])
        out = [_root(row, total, mu, p)
               for row, total in zip(rows, (mu * rows**p).sum(axis=-1))]
    return np.array(out).reshape(norms.shape[:-1])


def _root(row: np.ndarray, total, mu: np.ndarray, p: float):
    """The L_p norm of one row of norms from its sum of powers `total`, or
    from the row divided by its largest norm when `total` left the float
    range. The root is a scalar power: the array power may round
    differently."""
    if not 0.0 < total < math.inf:
        top = row.max()
        if 0.0 < top < math.inf:
            return top * (mu * (row / top) ** p).sum() ** (1.0 / p)
    return total ** (1.0 / p)


def linf_norm(f: VectorObservable, ns: NormSpec = NormSpec()) -> float:
    """Essential sup of the point norms; equals the max since all masses are positive."""
    return float(point_norms(f.values, ns.q).max())


def llog_norm(f: VectorObservable, m: int, ns: NormSpec = NormSpec()) -> float:
    """Integral of |f|_q * (ln max(1, |f|_q))^m; the L log^+ L type functional."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    norms = point_norms(f.values, ns.q)
    if m == 0:
        return float(np.sum(f.space.weights * norms))
    logs = np.log(np.maximum(1.0, norms))
    with np.errstate(over="ignore"):  # a power past the float range is inf
        return float(np.sum(f.space.weights * norms * logs**m))


def integral(f: VectorObservable) -> np.ndarray:
    """Raw vector integral sum_w mu_w f(w)."""
    return (f.space.weights[:, None] * f.values).sum(axis=0)


def mean(f: VectorObservable) -> np.ndarray:
    """Integral divided by the total mass (the normalized expectation)."""
    return integral(f) / f.space.total_mass
