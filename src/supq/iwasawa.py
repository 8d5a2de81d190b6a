"""Factorization of SL(n, C) elements into SU(p, q) times the triangular
subgroup AN, and the operations built on top of it.

Two independent routes compute the same factors (the factorization is
unique when it exists):

* :func:`decompose_gs` runs modified Gram-Schmidt on the columns against
  the indefinite pairing, demanding a timelike residual on the first p
  columns and a spacelike one afterwards.
* :func:`decompose_gauss` forms h = dagger(g) g and factors J h as
  dagger(b) J b by a blocked J-Cholesky: the unpivoted signed LDL* of J h
  with the pivot signs J forces (+ for the first p, - for the rest), which
  are exactly the obstruction.  Every factor it returns is that
  J-Cholesky's, its pivots judged at the rounding bound
  ``kernel._rounding_bound(n)``.  When it does not certify them, the
  pivots of the signed LDL* loop, judged by the same rule in the route's
  step, only name the refusal: the first pivot, in order, that vanishes to
  rounding (:class:`~supq.errors.SingularMinor`) or has the wrong sign
  (:class:`~supq.errors.WrongInertia`).  Then s = g b^{-1} is
  solved by back substitution, never multiplied by an inverse, so the
  residual ``||g - s b||_F`` stays of order ``n eps ||s||_F ||b||_F``
  however ill-conditioned b is.

Each route is one step that returns (s, b), and one acceptor: s must pass
``groups._pseudo_unitary``, the defect half of ``is_member(s, G0)``, at
once or after the same step has run once more on s.  Otherwise the route
raises ``NotDecomposable(kind="unitary_check")``.  The determinant half is
not judged again, so a returned s can fail ``is_member(s, G0)`` on its
determinant window; the README gives the counts (ROADMAP item 3).

The Gauss route is the default everywhere a decomposition is consumed
(dressing, admissibility of general elements) because its failure taxonomy
is sharper.  All functions are deterministic in their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import _admissibility_report
from .errors import NoConvergence, NonFiniteInput, NotAdmissible, NotDecomposable, SingularMinor, WrongInertia
from .groups import GroupTag, _pseudo_unitary, _require, _unitary_defect
from .indefinite import ConeClass, Signature, _classify, _cone_margins, _dagger, _gram, _sym
from .kernel import (DEFAULT_TOL, _finite, _frobenius, _j_cholesky, _lapack, _pivot_clears, _quiet,
                     _rounding_bound, _signed_ldl, _solve_lower, _spectrum, mat_exp)


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

    @classmethod
    def of(cls, g: np.ndarray, s: np.ndarray, b: np.ndarray) -> DecompPair:
        """The pair (s, b) of ``g``, with b split as diag(a) @ n_factor."""
        a = b.diagonal().real.copy()
        n_factor = b / a[:, None]
        n_factor.flat[:: a.size + 1] = 1.0
        return cls(s=s, b=b, a=a, n_factor=n_factor, residual=_frobenius(g - s @ b))


@dataclass
class DressResult:
    """Outcome of the dressing action: b g = g_prime b_prime, with
    ``residual`` = ||b g - g_prime b_prime||_F."""

    g_prime: np.ndarray
    b_prime: np.ndarray
    residual: float


@_quiet
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
    time it is reached.  The loop runs on a row-major copy of g, which it
    leaves unchanged: each column is a contiguous row, so projecting u_k out
    of the later columns is one matrix-vector product and one rank-1 update
    (Björck, Linear Algebra Appl. 197-198, 1994).  The coefficient for u_l
    is <v, u_l> divided by <u_l, u_l> = +1 (l <= p) or -1 (l > p).  The
    residual must be strictly timelike for k <= p and strictly spacelike
    afterwards; its indefinite length becomes the diagonal entry b_kk > 0.
    The factor s, a fresh C-contiguous array, is returned
    only through ``groups._pseudo_unitary``, the defect half of
    ``is_member(s, G0)`` (the determinant is not judged again); when one
    pass misses it, the loop runs once more on s ("twice is enough":
    Giraud, Langou and Rozložník, Comput. Math. Appl. 50, 2005).

    Raises
    ------
    NotInG
        If g is not n x n with det(g) = 1 to tolerance.
    NotDecomposable
        With ``kind="null_boundary"`` when :func:`~supq.indefinite.classify`
        finds a residual null (|norm_sq| <= tol * ||r||_2^2; a zero residual
        is null too), or ``kind="wrong_cone"`` when it has the wrong causal
        type.  ``index`` is the offending column, 1-based.
        Of kind ``unitary_check`` if s misses the SU(p, q) defect window
        after the second pass (index: worst column).
    NonFiniteInput
        If a residual has a NaN or Inf entry, or a diagonal entry of b
        exceeds the float range.
    """
    g = _require(g, GroupTag.G, sig, tol)
    return DecompPair.of(g, *_certified(g, sig, tol, lambda x: _gs_step(x, sig, tol)))


def _gs_step(R: np.ndarray, sig: Signature, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """One pass of :func:`decompose_gs`'s column loop on ``R``, which it only
    reads: ``(s, b)`` with s a fresh C-contiguous array.  Column k of R is the
    contiguous row ``C[k]`` of a row-major copy, so projecting u_k out of the
    later columns is one matrix-vector product, written straight into row k
    of b, and one in-place rank-1 update.  ``conj(u_k) * ±j`` is formed in
    one buffer per pass, with the sign vectors built once; the column test
    reads Python floats from :func:`_cone_margins`."""
    n, p = sig.n, sig.p
    signs = (sig.j_diag, -sig.j_diag)
    C = R.T.copy()
    B = np.zeros((n, n), dtype=np.complex128)
    w = np.empty(n, dtype=np.complex128)
    for k in range(n):
        r = C[k]
        ns, e2, scale = _cone_margins(r, p)
        # _classify refuses a zero vector; a zero residual is the boundary
        cone = _classify(ns, e2, tol) if e2 else ConeClass.NULL
        if cone is ConeClass.NULL:
            raise NotDecomposable(
                f"column {k + 1}: residual is null to tolerance (factorization boundary)",
                index=k + 1,
                kind="null_boundary",
            )
        if cone is not (ConeClass.TIMELIKE if k < p else ConeClass.SPACELIKE):
            raise NotDecomposable(
                f"column {k + 1}: residual has the wrong causal type",
                index=k + 1,
                kind="wrong_cone",
            )
        try:
            rk = math.ldexp(math.sqrt(abs(ns)), int(scale))
        except OverflowError:
            raise NonFiniteInput(f"column {k + 1}: b_kk overflows") from None
        B[k, k] = rk
        r /= rk
        if k == n - 1:
            break
        np.conjugate(r, out=w)
        np.multiply(w, signs[k >= p], out=w)
        rest = C[k + 1:]
        rest -= np.matmul(rest, w, out=B[k, k + 1:])[:, None] * r
    return C.T.copy(), B


@_quiet
def decompose_gauss(g, sig: Signature, tol: float = DEFAULT_TOL) -> DecompPair:
    """Factor g = s b through the triangular factorization of dagger(g) g.

    With h = dagger(g) g, the matrix J h is Hermitian; its unpivoted signed
    LDL* gives h = dagger(n) a^2 n with n = L* unit upper triangular and
    a_k = sqrt(|d_k|).  Existence demands d_k > 0 for k <= p and d_k < 0
    after, i.e. the running pivot products match the leading principal
    minors of J h in the inertia forced by J, so b = diag(a) n comes from
    one Cholesky of the leading p x p block and one of minus its Schur
    complement; b is always that blocked J-Cholesky's factor.  Its pivots
    are judged at the rounding bound ``kernel._rounding_bound(n) = 8 n eps``,
    not at ``tol``.  When it does not certify them, the pivots of the
    signed LDL* loop, judged at the same bound, only name the refusal.
    Then s = g b^{-1}, solved by substitution, is returned only through
    ``groups._pseudo_unitary``, the defect half of ``is_member(s, G0)``; its
    determinant is not judged again, so s can fail the determinant window of
    ``is_member`` (ROADMAP item 3).  When s misses the defect window, one
    more step factors s the same way, s <- s b2^{-1} and b <- b2 b
    (CholeskyQR2: Yamamoto et al., ETNA 44, 2015).

    Raises
    ------
    NotInG
        If g is not n x n with det(g) = 1 to tolerance.
    SingularMinor
        If a pivot of J h vanishes to rounding (boundary case).  When
        every pivot of the loop clears with its forced sign where the
        J-Cholesky did not (the two orders of summation rounded apart), the
        refusal names the pivot with the smallest ratio to its cancellation
        scale.
    WrongInertia
        If a pivot has the wrong sign (g lies in another cell).  ``index`` is
        the first pivot, in order, that vanishes or has the wrong sign.
    NotDecomposable
        Of kind ``unitary_check`` if s misses the SU(p, q) defect window
        after the second step (index: worst column).
    """
    g = _require(g, GroupTag.G, sig, tol)
    return DecompPair.of(g, *_gauss(g, sig, tol))


def _gauss(g: np.ndarray, sig: Signature, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(s, b)`` of the Gauss route on a validated det-1 ``g`` (see :func:`decompose_gauss`)."""
    return _certified(g, sig, tol, lambda x: _gauss_step(x, sig))


def _gauss_step(x: np.ndarray, sig: Signature) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss step: ``(x b^{-1}, b)`` with b the blocked J-Cholesky factor
    of ``J dagger(x) x``, every pivot judged at the rounding bound.  ``x
    b^{-1}`` is solved by substitution, not multiplied by an inverse, whose
    product carries an error of order ``eps ||x|| ||b^{-1}||``: ``s b = x``
    is ``b^T s^T = x^T``, solved by ``kernel._solve_lower``.  s comes back
    as a fresh C-contiguous array.

    When the J-Cholesky declines, the pivots d of the signed LDL* loop,
    judged by ``kernel._pivot_clears`` at the same bound, name the refusal:
    the first pivot, in order, that does not clear (:class:`SingularMinor`)
    or clears with the wrong sign (:class:`WrongInertia`, d > 0 exactly on
    the first p).  If every pivot clears with its forced sign, the two
    summation orders rounded apart, and the refusal is :class:`SingularMinor`
    at the pivot with the smallest ``|d_k| / cancel_k``."""
    bound = _rounding_bound(sig.n)
    jh = _finite(_gram(x, sig.j_diag))
    b = _j_cholesky(jh, sig.p, bound)
    if b is None:
        _, d, cancels = _signed_ldl(jh)
        clears = _pivot_clears(d, cancels, bound)
        refused = ~clears | ((d > 0) != (np.arange(sig.n) < sig.p))
        if refused.any():
            k = int(np.argmax(refused))
            raise (WrongInertia if clears[k] else SingularMinor)(k + 1)
        raise SingularMinor(int(np.argmin(np.abs(d) / cancels)) + 1)
    return _solve_lower(b.T, x.T).T.copy(), b


def _certified(g: np.ndarray, sig: Signature, tol: float, step) -> tuple[np.ndarray, np.ndarray]:
    """The factors ``(s, b)`` of ``g`` from ``step(g)``, accepted only when s
    passes ``groups._pseudo_unitary``, the defect half of ``is_member(s,
    G0)``.  Otherwise ``step`` runs once more on s, s <- s b2^{-1} and b <-
    b2 b, refining s itself rather than starting again from g, which stalls
    at high cond(g).  The determinant det(s) = det(g) / prod(a) is not judged
    again, so an s accepted near the edge of the window can miss det 1 by
    about its defect, and fail ``is_member(s, G0)`` (ROADMAP item 3).  The
    caller builds its result from the factors: ``decompose_*`` a
    :class:`DecompPair`, :func:`dress` only the residual."""
    s, b = step(g)
    if not _pseudo_unitary(s, sig, tol):
        s, b2 = step(s)
        b = b2 @ b
        if not _pseudo_unitary(s, sig, tol):
            gram, window = _unitary_defect(s, sig, tol)
            raise NotDecomposable(
                f"recovered factor failed the pseudo-unitarity check: defect {_frobenius(gram):.3e} > {window:.3e}",
                index=int(np.argmax(_frobenius(gram, axis=0))) + 1, kind="unitary_check",
            )
    return s, b


@_quiet
def dress(b, g, sig: Signature, tol: float = DEFAULT_TOL) -> DressResult:
    """Right dressing action: factor b g = g_prime b_prime.

    Defined whenever b g is decomposable; for admissible b it always is.
    The factors are the Gauss route's on ``b g``, with the same bits as
    :func:`decompose_gauss` of that product; only the residual is formed
    from them, since the action needs neither the diagonal nor the
    unit-triangular part of b_prime.

    Raises
    ------
    NotInAN, NotInG0
        If an input is not n x n or fails its membership precondition.
    NotDecomposable
        If b g lies outside the identity cell.
    """
    b = _require(b, GroupTag.AN, sig, tol)
    g = _require(g, GroupTag.G0, sig, tol)
    bg = b @ g
    s, b_prime = _gauss(bg, sig, tol)
    return DressResult(g_prime=s, b_prime=b_prime, residual=_frobenius(bg - s @ b_prime))


@_quiet
def q_log(s, sig: Signature, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Logarithm of an admissible dagger-fixed matrix.

    The verdict is :func:`~supq.admissible.check_admissible_q`'s, reached
    through the same call; an admissible s has a real positive spectrum.
    The eigenpairs are computed once: their eigenvalues place the
    certificate's shift, the pair names a refusal, and for an admissible s
    the log is taken through them, then projected back onto the traceless
    dagger-fixed subspace to clear rounding.  The certificate reads no
    eigenvalue's sign, so an
    eigensolver that returns a small eigenvalue as 0 or below (as for
    ``diag(1e250, 1e-250)``) leaves no log to take, and the call raises
    NoConvergence.  The eigenpairs of the small eigenvalues carry an
    absolute error of order eps ||s||, so at wide spectra (exponents spread
    over tens of units) exp of the result can miss ``s``, and the call
    raises NoConvergence rather than return that log.

    Raises
    ------
    NotInQ, NotAdmissible
        If ``s`` is not in Q to tolerance, or is not admissible; the report
        is attached to NotAdmissible.
    NoConvergence
        If the eigensolver fails or returns an eigenvalue <= 0 of an
        admissible ``s``, if LAPACK finds the eigenvector basis singular (a
        non-finite log), or if exp of the result misses ``s`` by more than
        ``10 * max(tol, kernel._rounding_bound(n)) * max(1, ||s||_F)``.
    """
    s = _require(s, GroupTag.Q, sig, tol)
    vals, V = _spectrum(s, vectors=True)
    report = _admissibility_report(s, sig, tol, spectrum=(vals, V))
    if not report.admissible:
        raise NotAdmissible(f"q_log needs an admissible element: {report.reason}", report)
    if vals.real[-1] <= 0:
        raise NoConvergence(f"the eigensolver lost an eigenvalue of this admissible element: {vals.real[-1]:.3e}")
    X = _lapack.solve(V.T, (V * np.log(vals.real)).T, signature="DD->D").T
    if not np.isfinite(X).all():  # NaN where LAPACK found the eigenvector basis singular
        raise NoConvergence("the eigenvector basis is singular to working precision")
    X = 0.5 * (X + _dagger(X, sig.j_diag))
    X -= (np.trace(X).real / sig.n) * np.eye(sig.n)
    defect = _frobenius(mat_exp(X) - s)
    if defect > 10.0 * max(tol, _rounding_bound(sig.n)) * max(1.0, _frobenius(s)):
        raise NoConvergence(f"log reconstruction defect {defect:.3e} exceeds tolerance")
    return X


@_quiet
def decompose_g_admissible(
    g, sig: Signature, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Admissible factorization g = s b of a general element.

    Succeeds when g is decomposable *and* the triangular factor is
    admissible.  Returns ``(s, b, singular_spectrum)`` where the singular
    spectrum lists the square roots of the eigenvalues of dagger(g) g in
    descending order (real and positive in the admissible case).  They are
    read off the admissibility report of sym(b) = dagger(b) b, which equals
    dagger(g) g because dagger(s) s = I; an eigenvalue that the eigensolver
    returns <= 0 (lost below the rounding of the largest) reads 0.

    Raises
    ------
    NotInG, NotDecomposable
        If g is not n x n with det 1 to tolerance, or lies outside the identity cell.
    NotAdmissible
        If the triangular factor fails the admissibility check.
    """
    s, b = _gauss(_require(g, GroupTag.G, sig, tol), sig, tol)
    report = _admissibility_report(_sym(b, sig.j_diag), sig, tol, sylvester=True)
    if not report.admissible:
        raise NotAdmissible(f"triangular factor is not admissible: {report.reason}", report)
    spectrum = np.sqrt(np.maximum(report.eigenvalues.real, 0.0))
    return s, b, spectrum
