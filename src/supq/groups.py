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

import numpy as np

from .errors import NotInAN, NotInG, NotInG0, NotInQ
from .indefinite import Signature, _check_matrix, _gram, dagger
from .kernel import DEFAULT_TOL, _frobenius, _lapack, _quiet, _rounding_bound, mat_exp


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
    wrong determinants are still rejected).  ``tol`` is floored at the
    rounding bound of an n x n elimination, ``kernel._rounding_bound(n)``,
    so that ``tol = 0`` still accepts a determinant rounded off 1.  Every window
    is capped at 0.5, because one that reaches 1 can no longer tell det = 1
    from det = 0; at the default tol the window is at most 1e-3."""
    tol = max(tol, _rounding_bound(M.shape[0]))
    miss = abs(_lapack.det(M, signature="D->D") - 1.0)
    # The allowance below is never less than the plain window (a singular
    # or failed SVD reads cond inf, not NaN), so the SVD is needed only for a
    # determinant outside it.
    if miss <= min(tol, 0.5):
        return True
    s = _lapack.svd(M, signature="D->d")  # the singular values np.linalg.cond divides; NaN if LAPACK failed
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    return miss <= min(tol * min(max(cond, 1.0), 1e6), 0.5)


@_quiet
def is_member(M, tag: GroupTag, sig: Signature, tol: float = DEFAULT_TOL) -> bool:
    """Tolerance-based membership test for ``tag``.

    Structural zeros (below-diagonal entries for the triangular family) are
    compared against ``tol * max(1, ||M||_F)``, the Q symmetry defect against
    ``max(tol, kernel._rounding_bound(n)) * max(1, ||M||_F)``, the imaginary
    part of a diagonal entry against ``tol`` times its modulus, and the
    determinant against a conditioning-aware window around 1.  The
    G0 defect ``||dagger(M) M - I||_F`` is also allowed the rounding of the
    product, ``kernel._rounding_bound(n) * max(1, ||M||_F)^2``, and a window
    that overflows accepts nothing.  The
    Frobenius norms are taken so that they do not overflow, so an entry
    near 1e200 is judged like a moderate one.  The determinant window (an
    LU, plus an SVD when it misses 1 by more than ``tol``) is evaluated
    last, and only for the sets that constrain it.
    """
    return bool(_in_set(_check_matrix(M, sig), tag, sig, tol))


def _unitary_defect(M: np.ndarray, sig: Signature, tol: float) -> tuple[np.ndarray, float]:
    """``(J (dagger(M) M - I), window)``: the SU(p, q) defect matrix of M, up
    to the sign of each row, and the bound on its Frobenius norm, ``tol *
    scale + kernel._rounding_bound(n) * scale^2`` with ``scale = max(1,
    ||M||_F)``.  The second term is the rounding of the product, so ``tol =
    0`` still accepts a computed factor.  The matrix is ``M* (J M) - J``: the
    Gram ``indefinite._gram`` with one sign pass, and ``sig.J`` subtracted in
    place.  Every sign flip of J is exact, so row i is row i of ``dagger(M) @
    M - np.eye(n)`` times ``j_i`` in value, though a zero can come out with
    the other sign, and the Frobenius norm and column norms have the bits of
    that matrix's."""
    scale = max(1.0, _frobenius(M))
    gram = _gram(M, sig.j_diag)
    gram -= sig.J
    return gram, tol * scale + _rounding_bound(sig.n) * scale * scale


def _pseudo_unitary(M: np.ndarray, sig: Signature, tol: float) -> bool:
    """Whether dagger(M) M = I within the window of :func:`_unitary_defect`; a
    window that overflows accepts nothing.  The one acceptor of G0's defect and
    of the factor s that either decomposition route returns."""
    gram, window = _unitary_defect(M, sig, tol)
    return _frobenius(gram) <= window < np.inf


def _in_set(M: np.ndarray, tag: GroupTag, sig: Signature, tol: float) -> bool:
    """:func:`is_member` of a validated n x n complex matrix."""
    if tag is GroupTag.G:
        return _det_is_one(M, tol)
    if tag is GroupTag.G0:
        return _pseudo_unitary(M, sig, tol) and _det_is_one(M, tol)
    scale = max(1.0, _frobenius(M))
    if tag is GroupTag.Q:
        floor = max(tol, _rounding_bound(sig.n))
        jm = sig.j_diag[:, None] * M  # (J M)* - J M is J (dagger(M) - M), row by row an exact sign
        return _frobenius(jm.conj().T - jm) <= floor * scale and _det_is_one(M, tol)

    strictly_lower_ok = _frobenius(M[sig.lower_mask]) <= tol * scale
    diag = M.diagonal()
    diag_pos = bool((diag.real > 0).all() and (np.abs(diag.imag) <= tol * np.abs(diag)).all())

    if tag is GroupTag.N:
        return strictly_lower_ok and bool((np.abs(diag - 1.0) <= tol).all())
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
) -> np.ndarray:
    """Random admissible exponent vector ``(lambda_1..lambda_p, mu_1..mu_q)``
    as a float64 array of length n: both blocks non-increasing,
    min(lambda) - max(mu) >= gap, and zero sum, so ``np.diag(np.exp(d))`` is
    an admissible element of A.  ``scale`` is the standard deviation of the
    raw exponents.  ``seed`` is an int or a Generator.

    Raises ValueError unless 0 < gap < inf and 0 <= scale < inf, or if the
    gap is lost to the rounding of exponents of that scale."""
    if not (0 < gap < np.inf and 0 <= scale < np.inf):
        raise ValueError(f"need 0 < gap < inf and 0 <= scale < inf, got gap={gap}, scale={scale}")
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
    if not lam.min() > mu.max():
        raise ValueError(f"gap {gap} is lost to the rounding of exponents of scale {scale}")
    return np.concatenate([lam, mu])
