"""Membership predicates for the subgroups of SL(n, C) tied to a signature,
and reproducible random generation of test elements.

Sets
----
G   SL(n, C)
G0  SU(p, q): dagger(M) M = I, det 1
A   positive real diagonal, det 1
N   unit upper triangular
AN  upper triangular with positive real diagonal, det 1
Q   dagger-fixed (dagger(M) = M), det 1
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotInAN, NotInG, NotInG0, NotInQ
from .indefinite import Signature, _check_matrix, _dagger, _quiet, dagger
from .kernel import DEFAULT_TOL, _frobenius, mat_exp


class GroupTag(enum.Enum):
    G = "g"
    G0 = "g0"
    A = "a"
    N = "n"
    AN = "an"
    Q = "q"


def _det_is_one(M: np.ndarray, tol: float) -> bool:
    """Whether det(M) = 1, allowing for the accuracy a determinant can
    actually be computed to: the LU determinant of a matrix with condition
    number kappa carries a relative error of order eps * kappa, so the
    acceptance window widens with conditioning (capped so that clearly
    wrong determinants are still rejected)."""
    miss = abs(np.linalg.det(M) - 1.0)
    # The allowance below is never less than tol (numpy reports the cond of
    # a finite singular matrix as inf, not NaN), so the SVD is needed only
    # for a determinant outside the plain window.
    if miss <= tol:
        return True
    try:
        cond = float(np.linalg.cond(M))
    except np.linalg.LinAlgError:
        cond = np.inf
    allowance = tol * float(np.clip(cond, 1.0, 1e6))
    return miss <= allowance


@_quiet
def is_member(M, tag: GroupTag, sig: Signature, tol: float = DEFAULT_TOL) -> bool:
    """Tolerance-based membership test for ``tag``.

    Structural zeros (below-diagonal entries for the triangular family) and
    symmetry defects are compared against ``tol * max(1, ||M||_F)``, the
    imaginary part of a diagonal entry against ``tol`` times its modulus,
    and the determinant against a conditioning-aware window around 1.  The
    Frobenius norms are taken so that they do not overflow, so an entry
    near 1e200 is judged like a moderate one.  The determinant window (an
    LU, plus an SVD when it misses 1 by more than ``tol``) is evaluated
    last, and only for the sets that constrain it.
    """
    return bool(_in_set(_check_matrix(M, sig), tag, sig, tol))


def _in_set(M: np.ndarray, tag: GroupTag, sig: Signature, tol: float) -> bool:
    """:func:`is_member` of a validated n x n complex matrix."""
    n = sig.n
    if tag is GroupTag.G:
        return _det_is_one(M, tol)
    scale = max(1.0, _frobenius(M))
    if tag is GroupTag.G0:
        defect = _frobenius(_dagger(M, sig.j_diag) @ M - np.eye(n))
        return defect <= tol * scale and _det_is_one(M, tol)
    if tag is GroupTag.Q:
        return _frobenius(_dagger(M, sig.j_diag) - M) <= tol * scale and _det_is_one(M, tol)

    strictly_lower_ok = _frobenius(np.tril(M, -1)) <= tol * scale
    diag = np.diagonal(M)
    diag_pos = bool(np.all(diag.real > 0) and np.all(np.abs(diag.imag) <= tol * np.abs(diag)))

    if tag is GroupTag.N:
        return strictly_lower_ok and bool(np.all(np.abs(diag - 1.0) <= tol))
    if tag is GroupTag.A:
        off = _frobenius(M - np.diag(diag))
        return off <= tol * scale and diag_pos and _det_is_one(M, tol)
    if tag is GroupTag.AN:
        return strictly_lower_ok and diag_pos and _det_is_one(M, tol)
    raise ValueError(f"unknown group tag {tag!r}")


_NOT_IN = {GroupTag.G: NotInG, GroupTag.G0: NotInG0, GroupTag.Q: NotInQ, GroupTag.AN: NotInAN}


def _require(M, tag: GroupTag, sig: Signature, tol: float) -> np.ndarray:
    """The input guard of a membership-gated public call: ``M`` as a
    validated complex matrix in ``tag``'s set, else that set's
    :class:`~supq.errors.MembershipError` (a wrong size included)."""
    M = _check_matrix(M, sig, _NOT_IN[tag])
    if not _in_set(M, tag, sig, tol):
        raise _NOT_IN[tag]()
    return M


@dataclass(frozen=True)
class AdmissibleDiagonal:
    """Exponent vector (lambda_1..lambda_p, mu_1..mu_q).

    Both blocks are non-increasing, min(lambda) > max(mu) strictly, and the
    entries sum to zero, so exp of the corresponding diagonal matrix lands
    in A and is admissible.
    """

    lambdas: tuple[float, ...]
    mus: tuple[float, ...]

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        mu = np.asarray(self.mus, dtype=float)
        if lam.size < 1 or mu.size < 1:
            raise ValueError("need at least one entry in each block")
        if np.any(np.diff(lam) > 0) or np.any(np.diff(mu) > 0):
            raise ValueError("blocks must be non-increasing")
        if not lam.min() > mu.max():
            raise ValueError("min(lambda) must strictly exceed max(mu)")
        total = float(lam.sum() + mu.sum())
        span = max(1.0, float(np.abs(lam).max()), float(np.abs(mu).max()))
        if abs(total) > 1e-9 * span:
            raise ValueError(f"entries must sum to zero, got {total}")
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lam))
        object.__setattr__(self, "mus", tuple(float(v) for v in mu))

    @property
    def entries(self) -> np.ndarray:
        return np.asarray(self.lambdas + self.mus, dtype=float)

    @property
    def gap(self) -> float:
        return min(self.lambdas) - max(self.mus)

    def matrix(self) -> np.ndarray:
        """diag(lambda, mu) as a complex matrix (an element of the Lie algebra of A)."""
        return np.diag(self.entries).astype(np.complex128)

    def exp_matrix(self) -> np.ndarray:
        """exp of :meth:`matrix`: the corresponding element of A."""
        return np.diag(np.exp(self.entries)).astype(np.complex128)


def random_g0(sig: Signature, seed: int | np.random.Generator, spread: float = 1.0) -> np.ndarray:
    """Random element of SU(p, q): exp of a traceless dagger-antisymmetric X
    with ||X||_F = spread.

    ``seed`` is an int or a ``numpy.random.Generator``; a Generator is drawn
    from (and so advanced) in place.
    """
    rng = np.random.default_rng(seed)
    n = sig.n
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = 0.5 * (Z - dagger(Z, sig))
    # trace of a dagger-antisymmetric matrix is imaginary, so this recentering
    # keeps dagger(X) = -X while making X traceless
    X -= (np.trace(X) / n) * np.eye(n)
    nrm = np.linalg.norm(X)
    if nrm > 0:
        X *= spread / nrm
    return mat_exp(X)


def random_an(sig: Signature, seed: int | np.random.Generator, spread: float = 1.0) -> np.ndarray:
    """Random element of AN: log-uniform diagonal renormalized to det 1,
    Gaussian strict upper part scaled by ``spread``.  Below-diagonal zeros
    are exact.  ``seed`` is an int or a Generator."""
    rng = np.random.default_rng(seed)
    n = sig.n
    diag = np.exp(rng.uniform(-spread, spread, n))
    diag /= np.prod(diag) ** (1.0 / n)
    M = np.diag(diag).astype(np.complex128)
    rows, cols = np.triu_indices(n, 1)
    vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    M[rows, cols] = spread * vals / np.sqrt(2.0)
    return M


def random_admissible_diag(
    sig: Signature, seed: int | np.random.Generator, gap: float = 1e-3, scale: float = 1.0
) -> AdmissibleDiagonal:
    """Random admissible exponent vector with min(lambda) - max(mu) >= gap
    and zero sum; ``scale`` is the standard deviation of the raw exponents.
    ``seed`` is an int or a Generator."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.normal(0.0, scale, sig.p))[::-1]
    mu = np.sort(rng.normal(0.0, scale, sig.q))[::-1]
    need = gap - (lam.min() - mu.max())
    if need > 0:
        lam += 0.5 * need
        mu -= 0.5 * need
    center = (lam.sum() + mu.sum()) / sig.n
    lam -= center
    mu -= center
    return AdmissibleDiagonal(tuple(lam), tuple(mu))
