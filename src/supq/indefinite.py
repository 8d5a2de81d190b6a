"""Signature-(p, q) geometry on C^n.

The sesquilinear pairing <x, y> = sum_{i<=p} x_i conj(y_i) - sum_{j>p} x_j conj(y_j),
the induced dagger involution A -> J A* J, the timelike / null / spacelike
cone trichotomy, and reproducible sampling from each cone component.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, SupqError, ZeroVector
from .kernel import DEFAULT_TOL, as_cmatrix, as_cvector


@dataclass(frozen=True)
class Signature:
    """The pair (p, q), p >= 1 and q >= 1, fixing the form diag(+1 x p, -1 x q)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"signature needs p >= 1 and q >= 1, got ({self.p}, {self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    @cached_property
    def j_diag(self) -> np.ndarray:
        """Diagonal of J as a real vector (+1 x p, -1 x q). Read-only."""
        j = np.ones(self.n)
        j[self.p :] = -1.0
        j.setflags(write=False)
        return j

    @cached_property
    def J(self) -> np.ndarray:
        """The matrix J = diag(+1 x p, -1 x q) as complex128. Read-only."""
        J = np.diag(self.j_diag).astype(np.complex128)
        J.setflags(write=False)
        return J


class ConeClass(enum.Enum):
    TIMELIKE = "timelike"
    NULL = "null"
    SPACELIKE = "spacelike"


def _check_vector(x, sig: Signature) -> np.ndarray:
    v = as_cvector(x)
    if v.shape[0] != sig.n:
        raise DimensionMismatch(f"vector of length {v.shape[0]} does not match n={sig.n}")
    return v


def _check_matrix(M, sig: Signature, mismatch: type[SupqError] = DimensionMismatch) -> np.ndarray:
    """``M`` as a validated n x n complex matrix; a wrong size raises ``mismatch``."""
    A = as_cmatrix(M, square=True)
    if A.shape[0] != sig.n:
        raise mismatch(f"matrix of size {A.shape[0]} does not match n={sig.n}")
    return A


def pairing(x, y, sig: Signature) -> complex:
    """The indefinite pairing <x, y>, linear in x and conjugate-linear in y."""
    return _pairing(_check_vector(x, sig), _check_vector(y, sig), sig.j_diag)


def _pairing(x: np.ndarray, y: np.ndarray, j: np.ndarray) -> complex:
    """:func:`pairing` of validated vectors, ``j`` the signature's :attr:`Signature.j_diag`."""
    return complex(np.sum(j * x * np.conj(y)))


def _cone_margin(x: np.ndarray, p: int) -> tuple[float, float, int]:
    """``(<y, y>, ||y||_2^2, k)`` for ``y = 2**-k x``, x already validated;
    k is 0 unless the sums of squares of x overflow or leave the normal
    range.  The power-of-two scaling is exact, so the pair gives x's cone
    class and relative margin at any scale.  Raises NonFiniteInput for a
    NaN or Inf entry."""
    mags = x.real**2 + x.imag**2
    e2, k = float(np.sum(mags)), 0
    if not sys.float_info.min <= e2 < math.inf:
        top = float(np.max(np.abs([x.real, x.imag]), initial=0.0))
        if not math.isfinite(top):
            raise NonFiniteInput("vector contains NaN or Inf entries")
        k = math.frexp(top)[1]
        y = _scaled(x, k)
        mags = y.real**2 + y.imag**2
        e2 = float(np.sum(mags))
    return float(np.sum(mags[:p]) - np.sum(mags[p:])), e2, k


def _scaled(x: np.ndarray, k: int) -> np.ndarray:
    """``2**-k x``, exact while no entry leaves the normal range."""
    return np.ldexp(x.real, -k) + 1j * np.ldexp(x.imag, -k)


def norm_sq(x, sig: Signature) -> float:
    """<x, x> as a real number: ||x[:p]||^2 - ||x[p:]||^2, ±inf if it overflows."""
    ns, _, k = _cone_margin(_check_vector(x, sig), sig.p)
    return float(np.ldexp(ns, 2 * k))


def classify(x, sig: Signature, tol: float = DEFAULT_TOL) -> ConeClass:
    """Cone trichotomy of a nonzero vector.

    The comparison is scale-relative: x is Null when
    ``|norm_sq(x)| <= tol * ||x||_2^2``, so the verdict does not change
    under rescaling of x.
    """
    return _classify(_check_vector(x, sig), sig.p, tol)


def _classify(x: np.ndarray, p: int, tol: float) -> ConeClass:
    """:func:`classify` of an already validated vector."""
    ns, e2, _ = _cone_margin(x, p)
    if e2 == 0.0:
        raise ZeroVector("cannot classify the zero vector")
    if ns > tol * e2:
        return ConeClass.TIMELIKE
    if ns < -tol * e2:
        return ConeClass.SPACELIKE
    return ConeClass.NULL


def dagger(A, sig: Signature) -> np.ndarray:
    """The involution A -> J A* J, the adjoint for the indefinite pairing.

    Satisfies pairing(A x, y) = pairing(x, dagger(A) y).
    """
    return _dagger(_check_matrix(A, sig), sig.j_diag)


def _dagger(A: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`dagger` of a validated or library-built n x n complex matrix,
    with ``j`` the signature's :attr:`Signature.j_diag`."""
    return (j[:, None] * A.conj().T) * j[None, :]


def sample_cone(cls: ConeClass, sig: Signature, rng_seed: int | np.random.Generator) -> np.ndarray:
    """Reproducibly sample one vector of cone class ``cls``.

    ``rng_seed`` is an int or a ``numpy.random.Generator``, which is drawn
    from in place.  Null vectors are returned with unit Euclidean norm and
    satisfy ``|norm_sq(x)| <= 1e-12``; timelike and spacelike samples sit
    well away from the cone boundary.
    """
    rng = np.random.default_rng(rng_seed)
    p = sig.p
    z = rng.standard_normal(sig.n) + 1j * rng.standard_normal(sig.n)
    mags = z.real**2 + z.imag**2
    pos = float(np.sum(mags[:p]))
    neg = float(np.sum(mags[p:]))
    if cls is ConeClass.NULL:
        # timelike part + spacelike part rescaled to exact cancellation
        z[p:] *= np.sqrt(pos / neg)
        return z / np.linalg.norm(z)
    margin = rng.uniform(0.1, 0.6) * (pos + neg)
    if cls is ConeClass.TIMELIKE:
        z[:p] *= np.sqrt((margin + neg) / pos)
    else:
        z[p:] *= np.sqrt((margin + pos) / neg)
    return z
