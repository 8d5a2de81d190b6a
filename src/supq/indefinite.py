"""Signature-(p, q) geometry on C^n.

The sesquilinear pairing <x, y> = sum_{i<=p} x_i conj(y_i) - sum_{j>p} x_j conj(y_j),
the induced dagger involution A -> J A* J, the timelike / null / spacelike
cone trichotomy, and reproducible sampling from each cone component.
Every cone verdict and margin comes from one scale-safe ``_cone_margins``.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, SupqError, ZeroVector
from .kernel import DEFAULT_TOL, _finite, _quiet, as_cmatrix


@dataclass(frozen=True)
class Signature:
    """The pair (p, q), p >= 1 and q >= 1, fixing the form diag(+1 x p, -1 x q).

    p and q are stored as ints; a numpy integer is accepted, and a value
    that is not an integer (2.0 included) raises ``TypeError``.  The arrays
    that every call at this signature reads (:attr:`j_diag`, :attr:`J` and
    :attr:`lower_mask`) are built on first use, cached and read-only."""

    p: int
    q: int

    def __post_init__(self):
        for name in ("p", "q"):  # a non-integer raises TypeError here, not at a later use
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.p < 1 or self.q < 1:
            raise ValueError(f"signature needs p >= 1 and q >= 1, got ({self.p}, {self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    @cached_property
    def j_diag(self) -> np.ndarray:
        """Diagonal of J as a real vector (+1 x p, -1 x q). Read-only."""
        return _read_only(np.repeat([1.0, -1.0], [self.p, self.q]))

    @cached_property
    def J(self) -> np.ndarray:
        """The matrix J = diag(+1 x p, -1 x q) as complex128. Read-only, and
        one array for every Signature of (p, q), so that many signatures of
        one shape do not each keep an n x n copy."""
        return _J.setdefault((self.p, self.q), _read_only(np.diag(self.j_diag).astype(np.complex128)))

    @cached_property
    def lower_mask(self) -> np.ndarray:
        """Boolean n x n mask of the strictly lower triangle, which AN and N
        hold at zero. Read-only."""
        return _read_only(np.tri(self.n, k=-1, dtype=bool))


_J: dict[tuple[int, int], np.ndarray] = {}  # Signature.J by (p, q)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ConeClass(enum.Enum):
    TIMELIKE = "timelike"
    NULL = "null"
    SPACELIKE = "spacelike"


def _check_vector(x, sig: Signature) -> np.ndarray:
    """``x`` as a validated complex vector of length n."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d array, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise NonFiniteInput("vector contains NaN or Inf entries")
    if v.shape[0] != sig.n:
        raise DimensionMismatch(f"vector of length {v.shape[0]} does not match n={sig.n}")
    return v


def _check_matrix(M, sig: Signature, mismatch: type[SupqError] = DimensionMismatch) -> np.ndarray:
    """``M`` as a validated n x n complex matrix; a wrong size raises ``mismatch``."""
    A = as_cmatrix(M, square=True)
    if A.shape[0] != sig.n:
        raise mismatch(f"matrix of size {A.shape[0]} does not match n={sig.n}")
    return A


@_quiet
def pairing(x, y, sig: Signature) -> complex:
    """The indefinite pairing <x, y>, linear in x and conjugate-linear in y; NonFiniteInput on overflow."""
    return _pairing(_check_vector(x, sig), _check_vector(y, sig), sig.j_diag)


def _pairing(x: np.ndarray, y: np.ndarray, j: np.ndarray) -> complex:
    """:func:`pairing` of validated vectors, ``j`` the signature's :attr:`Signature.j_diag`."""
    value = complex(np.sum(j * x * np.conj(y)))
    if not np.isfinite(value):
        raise NonFiniteInput("the pairing overflows")
    return value


def _cone_margins(x: np.ndarray, p: int) -> tuple[np.ndarray | float, np.ndarray | float, np.ndarray | int]:
    """``(<y, y>, ||y||_2^2, k)`` of each row ``y = 2**-k x`` of a vector or stack of
    rows x, k = 0 unless the row's sum of squares overflows or leaves the normal
    range.  The scaling is exact, so each pair gives its row's cone class and
    relative margin at any scale; a NaN or Inf row gets a non-finite ``||y||^2``.
    The two block sums are dot products over x made C-contiguous, so a row
    gets the same bits alone, inside a stack and whatever its memory layout.
    One vector whose sum of squares is normal gets the same bits as Python
    floats and ``k = 0``, through one scalar comparison."""
    x = np.ascontiguousarray(x)
    head, tail = x[..., :p], x[..., p:]
    pos, neg = np.vecdot(head, head).real, np.vecdot(tail, tail).real
    e2 = pos + neg
    if x.ndim == 1 and sys.float_info.min <= e2 < math.inf:
        return float(pos - neg), float(e2), 0
    k = np.zeros(e2.shape, int)
    normal = (e2 >= sys.float_info.min) & (e2 < math.inf)
    if not normal.all():  # frexp gives a zero exponent to a zero, NaN or Inf peak
        k = np.where(normal, k, np.frexp(np.maximum(abs(x.real), abs(x.imag)).max(axis=-1))[1])
        y = _scaled(x, k[..., None])
        pos, neg = np.vecdot(y[..., :p], y[..., :p]).real, np.vecdot(y[..., p:], y[..., p:]).real
        e2 = pos + neg
    return pos - neg, e2, k


def _scaled(x: np.ndarray, k) -> np.ndarray:
    """``2**-k x``, exact while no entry leaves the normal range; ``k`` broadcasts against x."""
    return np.ldexp(x.real, -k) + 1j * np.ldexp(x.imag, -k)


@_quiet
def norm_sq(x, sig: Signature) -> float:
    """<x, x> as a real number: ||x[:p]||^2 - ||x[p:]||^2, ±inf if it overflows."""
    ns, _, k = _cone_margins(_check_vector(x, sig), sig.p)
    return float(np.ldexp(ns, 2 * k))


@_quiet
def classify(x, sig: Signature, tol: float = DEFAULT_TOL) -> ConeClass:
    """Cone trichotomy of a nonzero vector.

    The comparison is scale-relative: x is Null when
    ``|norm_sq(x)| <= tol * ||x||_2^2``, so the verdict does not change
    under rescaling of x, even where the squares of its entries overflow.
    """
    ns, e2, _ = _cone_margins(_check_vector(x, sig), sig.p)
    return _classify(ns, e2, tol)


def _classify(ns: float, e2: float, tol: float) -> ConeClass:
    """:func:`classify` of a vector whose :func:`_cone_margins` pair is ``(ns, e2)``."""
    if not math.isfinite(e2):
        raise NonFiniteInput("vector contains NaN or Inf entries")
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


def _sym(b: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The symmetrization dagger(b) b of a validated or library-built n x n
    complex matrix.  A product that overflows raises the
    :class:`NonFiniteInput` that validating it would have raised."""
    return _finite(_dagger(b, j) @ b)


def _gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weighted Gram ``x* diag(w) x`` in one product, unchecked for
    finiteness.  With ``w`` the signature's :attr:`Signature.j_diag` it is
    ``J dagger(x) x``, equal in value to ``j[:, None] * _sym(x, j)``: every
    sign flip of J is exact, but a zero can come out with the other sign."""
    return x.conj().T @ (w[:, None] * x)


def sample_cone(cls: ConeClass | str, sig: Signature, rng_seed: int | np.random.Generator) -> np.ndarray:
    """Reproducibly sample one vector of cone class ``cls``.

    ``cls`` is a :class:`ConeClass` or its value, such as ``"timelike"``;
    anything else raises ``ValueError``.  ``rng_seed`` is an int or a
    ``numpy.random.Generator``, which is drawn from in place.  Null vectors
    are returned with unit Euclidean norm and satisfy ``|norm_sq(x)| <=
    1e-12``; timelike and spacelike samples sit well away from the cone
    boundary.
    """
    return _sample_cones([ConeClass(cls)], sig, np.random.default_rng(rng_seed))[0]


def _sample_cones(classes: list[ConeClass], sig: Signature, rng: np.random.Generator) -> np.ndarray:
    """Row i is ``sample_cone(classes[i], sig, rng)``, drawn by the same generator calls in the same order."""
    n, p = sig.n, sig.p
    draws, u = np.empty((len(classes), 2 * n)), np.zeros(len(classes))
    for i, cls in enumerate(classes):
        rng.standard_normal(out=draws[i])  # the n real parts, then the n imaginary parts
        u[i] = 0.0 if cls is ConeClass.NULL else rng.uniform(0.1, 0.6)
    z = draws[:, :n] + 1j * draws[:, n:]
    mags = z.real**2 + z.imag**2
    pos, neg = mags[:, :p].sum(axis=1), mags[:, p:].sum(axis=1)
    margin, timelike = u * (pos + neg), np.array([cls is ConeClass.TIMELIKE for cls in classes], bool)
    # a null row (u = 0) gets its spacelike part rescaled to exact cancellation, then unit norm
    z[:, :p] *= np.where(timelike, np.sqrt((margin + neg) / pos), 1.0)[:, None]
    z[:, p:] *= np.where(timelike, 1.0, np.sqrt((margin + pos) / neg))[:, None]
    z[u == 0] /= np.linalg.norm(z[u == 0], axis=1)[:, None]
    return z
