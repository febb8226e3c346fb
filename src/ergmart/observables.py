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
    "point_norm_field",
    "lp_norm",
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
        if not np.all(np.isfinite(arr)):
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
    """l^q norms over the last axis of an array of point values."""
    if values.shape[-1] == 1:
        return np.abs(values[..., 0])
    a = np.abs(values)
    if math.isinf(q):
        return a.max(axis=-1)
    if q == 1.0:
        return a.sum(axis=-1)
    if q == 2.0:
        return np.sqrt((values * values).sum(axis=-1))
    return (a**q).sum(axis=-1) ** (1.0 / q)


def point_norm_field(f: VectorObservable, ns: NormSpec = NormSpec()) -> VectorObservable:
    """Scalar field of pointwise l^q norms of f."""
    return VectorObservable(f.space, row_norms(f.values, ns.q))


def lp_norm(f: VectorObservable, p: float, ns: NormSpec = NormSpec()) -> float:
    """(sum_w mu_w |f(w)|_q^p)^(1/p) for finite p >= 1. When the sum of
    powers leaves the float range (large p), the point norms are divided by
    the largest one first, so the result is finite whenever the norm is."""
    if not p >= 1.0 or math.isinf(p):
        raise ValueError("p must be a finite real >= 1")
    norms = row_norms(f.values, ns.q)
    mu = f.space.weights
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(mu * norms**p)
        if not np.isfinite(total) or total == 0.0:
            top = norms.max()
            if 0.0 < top < math.inf:
                return float(top * np.sum(mu * (norms / top) ** p) ** (1.0 / p))
    return float(total ** (1.0 / p))


def linf_norm(f: VectorObservable, ns: NormSpec = NormSpec()) -> float:
    """Essential sup of the point norms; equals the max since all masses are positive."""
    return float(row_norms(f.values, ns.q).max())


def llog_norm(f: VectorObservable, m: int, ns: NormSpec = NormSpec()) -> float:
    """Integral of |f|_q * (ln max(1, |f|_q))^m; the L log^+ L type functional."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    norms = row_norms(f.values, ns.q)
    if m == 0:
        return float(np.sum(f.space.weights * norms))
    logs = np.log(np.maximum(1.0, norms))
    return float(np.sum(f.space.weights * norms * logs**m))


def integral(f: VectorObservable) -> np.ndarray:
    """Raw vector integral sum_w mu_w f(w)."""
    return (f.space.weights[:, None] * f.values).sum(axis=0)


def mean(f: VectorObservable) -> np.ndarray:
    """Integral divided by the total mass (the normalized expectation)."""
    return integral(f) / f.space.total_mass
