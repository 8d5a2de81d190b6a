"""Dense complex linear-algebra kernel.

Input validation, the matrix exponential, eigenpairs, an *unpivoted*
signed LDL* factorization, the certified Cholesky that its blocked
J-Cholesky form and the admissibility certificates share, and triangular
solves, all on numpy ``complex128`` arrays.  ``eig``, ``EigenResult``,
``DEFAULT_TOL_EIG``, ``signed_ldl`` and ``solve_upper_triangular`` are
called by no library path and are not exported by ``supq``; they stay
here because the benchmark's tracer names them.
The signed LDL* loop returns every pivot with its cancellation scale and
judges none; :func:`signed_ldl` and the Gauss step each judge them with
the one pivot rule :func:`_pivot_clears`.  Apart from the J-Cholesky,
which takes the number p of positive pivots, everything here is
signature-agnostic; the indefinite geometry lives in
:mod:`supq.indefinite`.  All functions are pure.

The package runs on numpy alone: the matrix exponential is a Padé
scaling-and-squaring kernel written here.  Every LAPACK call goes
through ``_lapack``, numpy's own LAPACK gufuncs (``numpy.linalg._umath_linalg``,
loaded by ``import numpy``), called with an explicit complex signature:
the same routines as numpy.linalg's wrappers, so the same bits, without
their Python-level conversions and errstate.  A LAPACK failure is read
from the output, which the gufunc fills with NaN exactly when LAPACK
reports info != 0, raising only the floating-point invalid flag that the
public call's ``_quiet`` ignores.

Sizes are desk scale: the eigensolver is capped at n = 32.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

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

_quiet = np.errstate(over="ignore", invalid="ignore")  # entered by each public call that judges overflow itself


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
    return _finite(M)


def _finite(h: np.ndarray) -> np.ndarray:
    if not np.isfinite(h).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    return h


def _frobenius(x: np.ndarray, axis: int | None = None):
    """||x||_F as a float, or with ``axis`` the 2-norms along it, so that
    ``tol * _frobenius(M)`` is finite for every finite M.  Without ``axis`` it
    is ``sqrt(vdot(x, x))``, one BLAS dot that agrees with ``np.linalg.norm``
    to rounding (within ``2 n eps`` relative, n entries); with ``axis`` it is
    ``np.linalg.norm``.  Where that result is not finite (an overflowing
    complex ``vdot`` gives NaN, not inf), the norm is taken of x / max|x| and
    rescaled, as in Blue's safe norm (ACM TOMS 4(1), 1978).  An infinite entry
    still gives inf, and a NaN entry NaN."""
    if axis is None and math.isfinite(norm := math.sqrt(np.vdot(x, x).real)):
        return norm
    norm = np.linalg.norm(x, axis=axis)
    over = np.isinf(norm)
    if over.any():
        peak = np.clip(np.max(np.abs(x), axis=axis, keepdims=True), sys.float_info.min, sys.float_info.max)
        norm = np.where(over, np.squeeze(peak, axis) * np.linalg.norm(x / peak, axis=axis), norm)
    return norm if axis is not None else float(norm)


def _pade(m: int) -> tuple[int, np.ndarray, tuple[tuple[int, int], ...]]:
    """The degree m, the coefficients of the diagonal Padé approximant
    r_m(x) = p_m(x) / p_m(-x) of exp, and the products that stack its powers.
    Row 1 of the table holds the coefficients c_j = (2m-j)! m! / ((2m)! j!
    (m-j)!), j = 0..m, of p_m(x), row 0 those of p_m(-x).  A product (r, j)
    writes X^(j+1) .. X^(j+r) as X^1 .. X^r times X^j: ceil(log2 m) of them
    reach X^m."""
    f = math.factorial
    c = [f(2 * m - j) * f(m) / (f(2 * m) * f(j) * f(m - j)) for j in range(m + 1)]
    steps, j = [], 1
    while j < m:
        steps.append((min(j, m - j), j))
        j += steps[-1][0]
    return m, np.array([[(-1) ** j * x for j, x in enumerate(c)], c]), tuple(steps)


# r_m of the k-th degree is used while ||X||_1 <= _THETA[k], the largest
# 1-norm at which its backward error stays below the unit roundoff (Higham,
# SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE = tuple(_pade(m) for m in (3, 5, 7, 9, 13))
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068e0,
          5.371920351148152e0)


def mat_exp(X) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005, Alg. 2.3): the diagonal Padé approximant r_m of
    the least degree m in {3, 5, 7, 9, 13} whose theta_m bounds ||X||_1,
    else r_13 of X / 2^s, s = ceil(log2(||X||_1 / theta_13)), squared s
    times.  The powers I, X, ..., X^m are stacked in one array, and both
    p_m(X) and p_m(-X) come from one real product of that stack with the
    coefficient table.  A 0 x 0 or 1 x 1 input is exponentiated entrywise.
    Where exp(X) overflows, entries are inf or NaN, with numpy's overflow
    warning."""
    X = as_cmatrix(X, square=True)
    n = X.shape[0]
    if n < 2:
        return np.exp(X)
    norm = max(np.abs(X).sum(axis=0).tolist())
    k, s = bisect_left(_THETA, norm), 0
    if k == len(_THETA):
        k -= 1
        s = math.ceil(math.log2(min(norm, sys.float_info.max) / _THETA[k]))  # finite if the sum overflowed
        X = X * 2.0**-s
    m, C, steps = _PADE[k]
    P = np.zeros((m + 1, 2 * n * n))  # row j: X^j, in the float view of complex128
    F = P.view(np.complex128).reshape(-1, n)
    P[0, :: 2 * n + 2] = 1.0
    F[n : 2 * n] = X
    for r, j in steps:
        np.dot(F[n : (r + 1) * n], F[j * n : (j + 1) * n], out=F[(j + 1) * n : (j + r + 1) * n])
    QN = C.dot(P).view(np.complex128).reshape(2, n, n)
    R = _lapack.solve(QN[0], QN[1], signature="DD->D")
    for _ in range(s):
        R = R.dot(R)
    return R


def _spectrum(M: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """LAPACK's eigenvalues of a square, finite complex128 ``M``, sorted by
    descending real part with ties broken by descending imaginary part, and,
    when ``vectors`` is set, the unit eigenvectors as columns in the same
    order (else None).  Every general eigensolve of the library is this one
    call, so the eigensolver's size cap (:class:`DimensionMismatch` above
    ``EIG_SIZE_CAP``) and its failure (:class:`NoConvergence`) live here.
    Its callers: :func:`eig`, which adds a residual check; the top
    eigenvalues of ``selftest``'s criterion 6; the spectra of
    ``admissible._gap_certificate``, for the admissibility check and the cone
    check, which need no vectors and no residual check because the
    certificate proves the gap itself; the eigenpairs that name a refused
    admissibility check; and the eigenpairs of ``q_log``, which its
    reconstruction window judges.  ``M`` must be finite: LAPACK's QR
    iteration is not guarded against NaN or Inf, and a NaN eigenvalue is
    read as its failure."""
    n = M.shape[0]
    if n > EIG_SIZE_CAP:
        raise DimensionMismatch(f"eigensolver is capped at n={EIG_SIZE_CAP}, got n={n}")
    vals, vecs = _lapack.eig(M, signature="D->DD") if vectors else (_lapack.eigvals(M, signature="D->D"), None)
    if np.isnan(vals).any():  # the gufunc's NaN fill: LAPACK reported a failure
        raise NoConvergence("QR iteration did not converge")
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order], None if vecs is None else vecs[:, order]


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


@_quiet
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
    vals, vecs = _spectrum(M, vectors=True)
    residuals = _frobenius(M @ vecs - vecs * vals, axis=0)
    max_residual = float(residuals.max()) if vals.size else 0.0
    bound = tol_eig * _frobenius(M)
    if max_residual > bound:
        raise NoConvergence(
            f"eigenpair residual {max_residual:.3e} exceeds {tol_eig:.1e} * ||M||_F = {bound:.3e}"
        )
    return EigenResult(values=vals, vectors=vecs, max_residual=max_residual)


@_quiet
def signed_ldl(H, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Unpivoted LDL* factorization of a Hermitian matrix.

    Returns ``(L, d)`` with L unit lower triangular and d a real vector such
    that ``H = L @ diag(d) @ L.conj().T``.  The diagonal may be indefinite;
    no pivoting is performed, so the running products ``prod(d[:k])`` equal
    the leading principal minors of H.  Each pivot is judged by
    :func:`_pivot_clears` against the magnitude of the terms whose
    cancellation produced it (``|H_kk|`` plus the subtracted ``|L|^2 |d|``
    mass): a pivot below ``tol`` times that cancellation scale is
    indistinguishable from a vanishing leading minor, and the first such
    pivot refuses the factorization.  A small pivot that clears the test is
    fine -- the ratio of a moderate minor to a large preceding one is still
    computed to full relative accuracy.

    Raises
    ------
    NotHermitian
        If ``||H - H*||_F > tol * ||H||_F``, both norms taken so that they
        do not overflow.
    SingularMinor
        If the k-th pivot is zero to tolerance (1-based k, the first such).
    """
    H = as_cmatrix(H, square=True)
    if _frobenius(H - H.conj().T) > tol * _frobenius(H):
        raise NotHermitian("signed_ldl needs a Hermitian input")
    L, d, cancels = _signed_ldl(H)
    singular = np.flatnonzero(~_pivot_clears(d, cancels, tol))
    if singular.size:
        raise SingularMinor(int(singular[0]) + 1)
    return L, d


def _signed_ldl(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(L, d, cancels)``: the unpivoted LDL* of the Hermitian part ``(H +
    H*) / 2`` of a square, finite complex128 ``H``, such as one the library
    built as ``J dagger(g) g``, with ``cancels[k]`` the cancellation scale
    of pivot ``d[k]``, ``|H_kk|`` plus the subtracted mass.  It judges
    neither the symmetry nor any pivot: its callers judge the pivots with
    :func:`_pivot_clears`.  The loop stops only at a pivot that is exactly
    zero or NaN, which clears no tolerance; that pivot and every later entry
    of d and cancels read 0, and the later columns of L are the identity's.
    Past a pivot that does not clear, later entries can overflow, so its
    callers run under ``_quiet``."""
    n = H.shape[0]
    Hs = 0.5 * (H + H.conj().T)
    L = np.eye(n, dtype=np.complex128)
    d = np.zeros(n)
    cancels = np.zeros(n)
    for k in range(n):
        # the mass |L_ki|^2 |d_i| is squared only after scaling, as |b_ik|^2
        scaled = np.abs(L[k, :k]) * np.sqrt(np.abs(d[:k]))
        subtracted = np.copysign(scaled * scaled, d[:k])
        pivot = float(Hs[k, k].real - subtracted.sum())
        if not abs(pivot) > 0.0:  # zero or NaN
            break
        d[k], cancels[k] = pivot, abs(Hs[k, k]) + float(np.abs(subtracted).sum())
        col = Hs[k + 1 :, k] - L[k + 1 :, :k] @ (L[k, :k].conj() * d[:k])
        L[k + 1 :, k] = col / pivot
    return L, d, cancels


def _pivot_clears(pivot, cancel, tol: float):
    """The pivot rule of :func:`signed_ldl`, the Gauss step and :func:`_definite`, elementwise:
    true where ``|pivot|`` exceeds ``tol`` times its cancellation scale, the
    magnitudes whose difference produced it.  The rule is relative, so it
    gives the same verdict at every scale; a zero pivot (zero scale
    included) and a NaN pivot do not clear it."""
    return abs(pivot) > tol * cancel


def _rounding_bound(n: int) -> float:
    """``8 n eps``, the a-priori relative error of an n-term sum of products in
    double precision: the ``c n u`` of the Cholesky backward error (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 10).
    Passed as ``tol`` to :func:`_pivot_clears`, it certifies a pivot whose sign
    no rounding of the input's n x n products can flip."""
    return 8.0 * n * sys.float_info.epsilon


def _definite(A: np.ndarray, scale: np.ndarray, tol: float) -> np.ndarray | None:
    """The library's one certified Cholesky: the factor L of a Hermitian ``A``
    (lower triangle read) when every pivot ``L_kk^2`` clears :func:`_pivot_clears`
    against ``scale_k + sum_{i<k} |L_ki|^2``, with ``scale_k`` the magnitudes that
    formed ``A_kk`` and the sum read off ``A_kk = L_kk^2 + sum_{i<k} |L_ki|^2``;
    else None.  Where LAPACK finds a pivot <= 0 the factor is all NaN, which
    clears no pivot, so a failure needs no exception."""
    L = _lapack.cholesky_lo(A, signature="D->D")
    d = L.diagonal().real
    pivot = d * d
    return L if _pivot_clears(pivot, scale + (A.diagonal().real - pivot), tol).all() else None


def _j_cholesky(H: np.ndarray, p: int, tol: float) -> np.ndarray | None:
    """``sqrt|d| L*`` of :func:`_signed_ldl` on ``H`` when d > 0 exactly on
    the first p pivots, by one blocked J-Cholesky (Higham, SIAM Rev. 45(3),
    2003): ``b = [[C1*, X], [0, C2*]]`` with ``C1 C1* = Hs11``, ``C1 X =
    Hs12`` and ``C2 C2* = X* X - Hs22``, Hs = (H + H*) / 2, so that
    ``b* J b = Hs``.  Both blocks are :func:`_definite`, with scales
    ``|Hs_kk|`` and ``|Hs_kk| + (X* X)_kk``, so pivot k is ``b_kk^2`` with
    cancellation scale ``|Hs_kk| + sum_{i<k} |b_ik|^2``.  None unless both
    certify; the Gauss step then names the refusal from the pivots of
    :func:`_signed_ldl`.

    ``H``, which the caller built for this call, is overwritten by Hs; Hs is
    exactly Hermitian, so ``(Hs + Hs*) / 2`` has its bits and the loop whose
    pivots name a refusal sees the same matrix.  C1* and C2* are conjugated
    straight into their blocks of b.  X is solved by :func:`_solve_lower` and
    copied into an array of its own, because ``X* X`` of a strided view can
    round differently (a q = 1 column is a strided dot product)."""
    H += H.conj().T
    H *= 0.5
    h = abs(H.diagonal().real)
    C1 = _definite(H[:p, :p], h[:p], tol)
    if C1 is None:
        return None
    X = _solve_lower(C1, H[:p, p:]).copy()
    XX = X.conj().T @ X
    C2 = _definite(XX - H[p:, p:], h[p:] + XX.diagonal().real, tol)
    if C2 is None:
        return None
    b = np.zeros(H.shape, H.dtype)
    np.conjugate(C1.T, out=b[:p, :p])
    b[:p, p:] = X
    np.conjugate(C2.T, out=b[p:, p:])
    return b


def _solve_lower(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``L^{-1} R`` for a lower-triangular ``L`` with a nonzero diagonal, by
    back substitution: reversing the rows of ``L X = R`` and the columns of L
    makes it the upper triangle ``L[::-1, ::-1]``, on which LAPACK's LU swaps
    no row and eliminates nothing, where partial pivoting on L itself swaps
    rows and eliminates.  It is backward stable row by row (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 8).
    The result is a reversed view."""
    return _lapack.solve(L[::-1, ::-1], R[::-1], signature="DD->D")[::-1]


def solve_upper_triangular(U, B, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve ``U @ X = B`` by back-substitution, U upper triangular.

    Only the upper triangle of U is referenced.  Dividing by a diagonal
    entry with ``|U_kk| <= tol * ||U||_F`` raises :class:`SingularDiagonal`
    (1-based index).  The solve is LAPACK's LU solve of ``triu(U)``: partial
    pivoting swaps no row of a triangle whose diagonal is nonzero and
    eliminates nothing, so it is a plain back substitution.
    """
    U = as_cmatrix(U, square=True)
    B = as_cmatrix(B)
    if U.shape[0] != B.shape[0]:
        raise DimensionMismatch(f"shapes {U.shape} and {B.shape} do not align")
    if U.shape[0] == 0:
        return B.copy()
    diag = np.abs(U.diagonal())
    T = np.triu(U)
    small = np.flatnonzero(diag <= tol * _frobenius(T))
    if small.size:
        raise SingularDiagonal(int(small[0]) + 1)
    return _lapack.solve(T, B, signature="DD->D")
