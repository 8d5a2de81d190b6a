"""Factorization of SL(n, C) elements into SU(p, q) times the triangular
subgroup AN, and the operations built on top of it.

Two independent routes compute the same factors (the factorization is
unique when it exists):

* :func:`decompose_gs` runs modified Gram-Schmidt on the columns against
  the indefinite pairing, demanding a timelike residual on the first p
  columns and a spacelike one afterwards.
* :func:`decompose_gauss` forms h = dagger(g) g, takes the unpivoted
  signed LDL* of J h, and reads the triangular factor off the pivots.
  The pivot sign pattern (+ for the first p, - for the rest) is exactly
  the obstruction; a wrong sign raises :class:`~supq.errors.WrongInertia`.

The Gauss route is the default everywhere a decomposition is consumed
(dressing, admissibility of general elements) because its failure taxonomy
is sharper.  All functions are deterministic in their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import _admissibility_report
from .errors import NoConvergence, NonFiniteInput, NotAdmissible, NotDecomposable, WrongInertia
from .groups import GroupTag, _require
from .indefinite import Signature, _cone_margin, _dagger, _quiet, _sym
from .kernel import DEFAULT_TOL, _frobenius, _signed_ldl, eig, mat_exp


@dataclass
class DecompPair:
    """A factorization g = s @ b.

    ``s`` is pseudo-unitary, ``b`` upper triangular with positive real
    diagonal ``a`` and unit-triangular part ``n_factor`` (b = diag(a) @
    n_factor).  ``residual`` is ||g - s b||_F.
    """

    s: np.ndarray
    b: np.ndarray
    a: np.ndarray
    n_factor: np.ndarray
    residual: float


@dataclass
class DressResult:
    """Outcome of the dressing action: b g = g_prime b_prime, with
    ``residual`` = ||b g - g_prime b_prime||_F."""

    g_prime: np.ndarray
    b_prime: np.ndarray
    residual: float


def sym(b, sig: Signature, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symmetrization dagger(b) b of a triangular factor.

    Maps AN into the dagger-fixed set Q, is injective there, and turns the
    dressing action into conjugation.  A product that overflows the float
    range raises NonFiniteInput.
    """
    return _sym(_require(b, GroupTag.AN, sig, tol), sig.j_diag)


@_quiet
def decompose_gs(g, sig: Signature, tol: float = DEFAULT_TOL) -> DecompPair:
    """Factor g = s b by pseudo-orthonormalizing the columns of g.

    Modified Gram-Schmidt against the indefinite pairing, right-looking:
    each accepted direction u_k is projected out of all later columns at
    once, so column k has been reduced against u_1..u_{k-1} in order by the
    time it is reached.  The coefficient for u_l is <v, u_l> divided by
    <u_l, u_l> = +1 (l <= p) or -1 (l > p).  The residual must be strictly
    timelike for k <= p and strictly spacelike afterwards; its indefinite
    length becomes the diagonal entry b_kk > 0.

    Raises
    ------
    NotInG
        If g is not n x n with det(g) = 1 to tolerance.
    NotDecomposable
        With ``kind="null_boundary"`` when a residual is null to tolerance
        (|norm_sq| <= tol * ||r||_2^2), or ``kind="wrong_cone"`` when it has
        the wrong causal type.  ``index`` is the offending column, 1-based.
    NonFiniteInput
        If a diagonal entry of b exceeds the float range.
    """
    g = _require(g, GroupTag.G, sig, tol)
    n, p = sig.n, sig.p
    j = sig.j_diag
    # Columns are reduced and then normalised in place: R ends as s.
    R = g.copy()
    B = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        r = R[:, k]
        ns, e2, scale = _cone_margin(r, p)
        if abs(ns) <= tol * e2:
            raise NotDecomposable(
                f"column {k + 1}: residual is null to tolerance (factorization boundary)",
                index=k + 1,
                kind="null_boundary",
            )
        if (ns > 0) != (k < p):
            raise NotDecomposable(
                f"column {k + 1}: residual has the wrong causal type",
                index=k + 1,
                kind="wrong_cone",
            )
        try:
            rk = math.ldexp(math.sqrt(abs(ns)), scale)
        except OverflowError:
            raise NonFiniteInput(f"column {k + 1}: b_kk overflows") from None
        B[k, k] = rk
        r /= rk
        if k == n - 1:
            break
        c = (j * r.conj()) @ R[:, k + 1:]
        if k >= p:
            c = -c
        R[:, k + 1:] -= np.outer(r, c)
        B[k, k + 1:] = c
    a = np.diagonal(B).real.copy()
    n_factor = B / a[:, None]
    np.fill_diagonal(n_factor, 1.0)
    return DecompPair(s=R, b=B, a=a, n_factor=n_factor, residual=_frobenius(g - R @ B))


def decompose_gauss(g, sig: Signature, tol: float = DEFAULT_TOL) -> DecompPair:
    """Factor g = s b through the triangular factorization of dagger(g) g.

    With h = dagger(g) g, the matrix J h is Hermitian; its unpivoted signed
    LDL* gives h = dagger(n) a^2 n with n = L* unit upper triangular and
    a_k = sqrt(|d_k|).  Existence demands d_k > 0 for k <= p and d_k < 0
    after, i.e. the running pivot products match the leading principal
    minors of J h in the inertia forced by J.  Then b = diag(a) n, and
    s = g b^{-1} is recovered and verified to be pseudo-unitary.

    Raises
    ------
    NotInG
        If g is not n x n with det(g) = 1 to tolerance.
    SingularMinor
        If a pivot of J h vanishes to tolerance (boundary case).
    WrongInertia
        If a pivot has the wrong sign (g lies in another cell).
    NotDecomposable
        Of kind ``unitary_check`` if s is not pseudo-unitary (index: worst column).
    """
    return _gauss(_require(g, GroupTag.G, sig, tol), sig, tol)


def _gauss(g: np.ndarray, sig: Signature, tol: float) -> DecompPair:
    """The Gauss route on a validated det-1 ``g`` (see :func:`decompose_gauss`)."""
    n, p = sig.n, sig.p
    j = sig.j_diag
    jh = j[:, None] * _sym(g, j)
    L, d = _signed_ldl(jh, tol)
    for k in range(n):
        if (d[k] > 0) != (k < p):
            raise WrongInertia(k + 1)
    a = np.sqrt(np.abs(d))
    n_factor = L.conj().T
    b = a[:, None] * n_factor
    # _signed_ldl certified every a_k > 0, so tol * ||b||_F must not re-judge
    # a_k, and partial pivoting swaps no rows of this upper triangular b: the
    # LU inverse is a plain back-substitution.
    b_inv = np.linalg.inv(b)
    s = g @ b_inv
    # A wrong factorization leaves an O(1) pseudo-unitarity defect; an
    # honest one leaves roughly eps * cond(b)^2, so the acceptance window
    # widens with the conditioning of the triangular factor (capped well
    # below O(1)).  det(s) = det(g) / prod(a), prod(a) > 0: g's det window covers s.
    cond_b = _frobenius(b) * _frobenius(b_inv)
    unitary_tol = min(max(100.0 * tol, 64.0 * float(np.finfo(float).eps) * cond_b**2), 1e-2)
    gram_defect = _dagger(s, j) @ s - np.eye(n)
    defect = _frobenius(gram_defect)
    window = unitary_tol * max(1.0, _frobenius(s))
    if not defect <= window:
        raise NotDecomposable(
            f"recovered factor failed the pseudo-unitarity check: defect {defect:.3e} > {window:.3e}",
            index=int(np.argmax(np.linalg.norm(gram_defect, axis=0))) + 1, kind="unitary_check",
        )
    return DecompPair(s=s, b=b, a=a, n_factor=n_factor, residual=_frobenius(g - s @ b))


def dress(b, g, sig: Signature, tol: float = DEFAULT_TOL) -> DressResult:
    """Right dressing action: factor b g = g_prime b_prime.

    Defined whenever b g is decomposable; for admissible b it always is.

    Raises
    ------
    NotInAN, NotInG0
        If an input is not n x n or fails its membership precondition.
    NotDecomposable
        If b g lies outside the identity cell.
    """
    b = _require(b, GroupTag.AN, sig, tol)
    g = _require(g, GroupTag.G0, sig, tol)
    pair = _gauss(b @ g, sig, tol)
    return DressResult(g_prime=pair.s, b_prime=pair.b, residual=pair.residual)


def q_log(s, sig: Signature, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Logarithm of an admissible dagger-fixed matrix.

    Computed through the eigendecomposition (admissible implies real
    positive spectrum and a well-conditioned eigenbasis), then projected
    back onto the traceless dagger-fixed subspace to clear rounding.

    Raises
    ------
    NotInQ, NotAdmissible
        If ``s`` is not in Q to tolerance, or is not admissible; the report
        is attached to NotAdmissible.
    NoConvergence
        If exp of the result does not reproduce ``s`` to tolerance.
    """
    s = _require(s, GroupTag.Q, sig, tol)
    result = eig(s)
    report = _admissibility_report(result, sig, tol)
    if not report.admissible:
        raise NotAdmissible(f"q_log needs an admissible element: {report.reason}", report)
    V = result.vectors
    logw = np.log(result.values.real)
    X = np.linalg.solve(V.T, (V * logw).T).T
    X = 0.5 * (X + _dagger(X, sig.j_diag))
    X -= (np.trace(X).real / sig.n) * np.eye(sig.n)
    defect = _frobenius(mat_exp(X) - s)
    if defect > 10.0 * tol * max(1.0, _frobenius(s)):
        raise NoConvergence(f"log reconstruction defect {defect:.3e} exceeds tolerance")
    return X


def decompose_g_admissible(
    g, sig: Signature, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Admissible factorization g = s b of a general element.

    Succeeds when g is decomposable *and* the triangular factor is
    admissible.  Returns ``(s, b, singular_spectrum)`` where the singular
    spectrum lists the square roots of the eigenvalues of dagger(g) g in
    descending order (real and positive in the admissible case).  They are
    read off the admissibility report of sym(b) = dagger(b) b, which equals
    dagger(g) g because dagger(s) s = I.

    Raises
    ------
    NotInG, NotDecomposable
        If g is not n x n with det 1 to tolerance, or lies outside the identity cell.
    NotAdmissible
        If the triangular factor fails the admissibility check.
    """
    pair = decompose_gauss(g, sig, tol)
    report = _admissibility_report(eig(_sym(pair.b, sig.j_diag)), sig, tol)
    if not report.admissible:
        raise NotAdmissible(f"triangular factor is not admissible: {report.reason}", report)
    spectrum = np.sqrt(np.maximum(report.eigenvalues.real, 0.0))
    return pair.s, pair.b, spectrum
