"""Dense complex linear-algebra kernel.

Input validation, the matrix exponential, eigenpairs, an *unpivoted*
signed LDL* factorization, and triangular solves, all on numpy
``complex128`` arrays.
Everything here is signature-agnostic; the indefinite geometry lives in
:mod:`supq.indefinite`.  All functions are pure.

scipy is imported on the first call of :func:`mat_exp` or
:func:`solve_upper_triangular`, not with the module: the decomposition,
membership and admissibility paths run on numpy alone.

Sizes are desk scale (the eigensolver is capped at n = 32), so
the emphasis is on exact contracts and sharp failure modes, not throughput.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NotHermitian,
    SingularDiagonal,
    SingularMinor,
)

#: Default relative tolerance for structural checks (membership, pivots, ...).
DEFAULT_TOL = 1e-9

#: Default relative tolerance on eigenpair residuals.
DEFAULT_TOL_EIG = 1e-10

#: Size cap for the dense eigensolver.
EIG_SIZE_CAP = 32


def as_cmatrix(A, square: bool = False) -> np.ndarray:
    """Validate ``A`` and return it as a dense complex128 matrix.

    Rejects non-2d input, non-square input when ``square`` is set, and any
    NaN/Inf entry.
    """
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim={M.ndim}")
    if square and M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    return M


def as_cvector(x) -> np.ndarray:
    """Validate ``x`` and return it as a dense complex128 vector."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("vector contains NaN or Inf entries")
    return v


def _frobenius(x: np.ndarray, axis: int | None = None):
    """||x||_F as a float, or with ``axis`` the 2-norms along it: ``np.linalg.norm``
    wherever that is finite, else taken of x / max|x| and rescaled (as in Blue's
    safe norm, ACM TOMS 4(1), 1978), so ``tol * _frobenius(M)`` is finite for
    every finite M.  An infinite entry still gives inf."""
    norm = np.linalg.norm(x, axis=axis)
    if axis is None and not math.isinf(norm):
        return float(norm)
    over = np.isinf(norm)
    if over.any():
        peak = np.clip(np.max(np.abs(x), axis=axis, keepdims=True), sys.float_info.min, sys.float_info.max)
        norm = np.where(over, np.squeeze(peak, axis) * np.linalg.norm(x / peak, axis=axis), norm)
    return norm if axis is not None else float(norm)


def mat_exp(X) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy)."""
    import scipy.linalg

    X = as_cmatrix(X, square=True)
    return scipy.linalg.expm(X)


@dataclass(frozen=True)
class EigenResult:
    """Right eigenpairs of a square complex matrix.

    ``values`` are sorted by descending real part, ties broken by descending
    imaginary part; ``vectors[:, k]`` is the unit eigenvector paired with
    ``values[k]``.  ``max_residual`` is max_k ||M v_k - lambda_k v_k||_2.
    """

    values: np.ndarray
    vectors: np.ndarray
    max_residual: float


def eig(M, tol_eig: float = DEFAULT_TOL_EIG) -> EigenResult:
    """Eigenpairs of a general (possibly defective) complex matrix.

    Parameters
    ----------
    M : array_like
        Square complex matrix, n <= ``EIG_SIZE_CAP``.
    tol_eig : float
        Residual acceptance threshold, relative to ||M||_F.  The residuals
        and ||M||_F are taken with a norm that does not overflow, so the
        bound stays finite at any scale.

    Raises
    ------
    NoConvergence
        If the QR iteration fails or the verified residual exceeds
        ``tol_eig * ||M||_F``.
    """
    M = as_cmatrix(M, square=True)
    n = M.shape[0]
    if n > EIG_SIZE_CAP:
        raise DimensionMismatch(f"eigensolver is capped at n={EIG_SIZE_CAP}, got n={n}")
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"QR iteration did not converge: {exc}") from exc
    order = np.lexsort((-vals.imag, -vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    residuals = _frobenius(M @ vecs - vecs * vals, axis=0)
    max_residual = float(residuals.max()) if n else 0.0
    bound = tol_eig * _frobenius(M)
    if max_residual > bound:
        raise NoConvergence(
            f"eigenpair residual {max_residual:.3e} exceeds {tol_eig:.1e} * ||M||_F = {bound:.3e}"
        )
    return EigenResult(values=vals, vectors=vecs, max_residual=max_residual)


def signed_ldl(H, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Unpivoted LDL* factorization of a Hermitian matrix.

    Returns ``(L, d)`` with L unit lower triangular and d a real vector such
    that ``H = L @ diag(d) @ L.conj().T``.  The diagonal may be indefinite;
    no pivoting is performed, so the running products ``prod(d[:k])`` equal
    the leading principal minors of H.  Each pivot is compared against the
    magnitude of the terms whose cancellation produced it (``|H_kk|`` plus
    the subtracted ``|L|^2 |d|`` mass): a pivot below ``tol`` times that
    cancellation scale is indistinguishable from a vanishing leading minor
    and aborts the factorization.  A small pivot that clears the test is
    fine -- the ratio of a moderate minor to a large preceding one is still
    computed to full relative accuracy.

    Raises
    ------
    NotHermitian
        If ``||H - H*||_F > tol * ||H||_F``, both norms taken so that they
        do not overflow.
    SingularMinor
        If the k-th pivot is zero to tolerance (1-based k).
    """
    H = as_cmatrix(H, square=True)
    if _frobenius(H - H.conj().T) > tol * _frobenius(H):
        raise NotHermitian("signed_ldl needs a Hermitian input")
    return _signed_ldl(H, tol)


def _signed_ldl(H: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`signed_ldl` on a square, finite complex128 ``H`` that is
    Hermitian up to roundoff, such as one the library built as ``J dagger(g) g``.

    Judges no symmetry: it factors the Hermitian part ``(H + H*) / 2``, so a
    roundoff-level asymmetry never fails a call made with ``tol`` below
    roundoff.
    """
    n = H.shape[0]
    Hs = 0.5 * (H + H.conj().T)
    L = np.eye(n, dtype=np.complex128)
    d = np.zeros(n)
    for k in range(n):
        subtracted = (L[k, :k] * L[k, :k].conj() * d[:k]).real
        pivot = float(Hs[k, k].real - subtracted.sum())
        cancel = abs(Hs[k, k]) + float(np.abs(subtracted).sum())
        if abs(pivot) <= tol * max(1.0, cancel):
            raise SingularMinor(k + 1)
        d[k] = pivot
        if k + 1 < n:
            col = Hs[k + 1 :, k] - L[k + 1 :, :k] @ (L[k, :k].conj() * d[:k])
            L[k + 1 :, k] = col / pivot
    return L, d


def solve_upper_triangular(U, B, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve ``U @ X = B`` by back-substitution, U upper triangular.

    Only the upper triangle of U is referenced.  Dividing by a diagonal
    entry with ``|U_kk| <= tol * ||U||_F`` raises :class:`SingularDiagonal`
    (1-based index).
    """
    import scipy.linalg

    U = as_cmatrix(U, square=True)
    B = as_cmatrix(B)
    if U.shape[0] != B.shape[0]:
        raise DimensionMismatch(f"shapes {U.shape} and {B.shape} do not align")
    if U.shape[0] == 0:
        return B.copy()
    diag = np.abs(np.diagonal(U))
    limit = tol * _frobenius(np.triu(U))
    small = np.flatnonzero(diag <= limit)
    if small.size:
        raise SingularDiagonal(int(small[0]) + 1)
    return scipy.linalg.solve_triangular(U, B, lower=False)
