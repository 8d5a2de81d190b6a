"""Admissibility: strict spectral-gap predicates.

A diagonal exponent vector is admissible when every timelike exponent
strictly exceeds every spacelike exponent.  A dagger-fixed matrix is
admissible when its spectrum is real, positive, and splits into p values
carried by timelike eigenvectors and q values carried by spacelike ones,
with min(timelike) > max(spacelike).  A triangular factor b is admissible
exactly when its symmetrization dagger(b) b is.

Both verdicts here rest on one certificate, :func:`_gap_certificate`: a
Hermitian pencil ``(H, J)`` is positive definite at the positive midpoint
t of the gap at index p of its sorted spectrum, proved by one Cholesky of
``H - t J`` whose pivots clear the rounding bound of double precision.
For admissibility the pencil is ``(J s, J)``, so the certificate is the
definite pencil ``J(s - cI) > 0``, with ``In(J s) = (p, q)`` (Gohberg,
Lancaster and Rodman, *Indefinite Linear Algebra and Its Applications*,
2005), and it is the only way to an admissible verdict.  It proves the
spectrum real and positive, so the eigenvalues only say where to shift:
the verdict reads no eigenvalue's sign and no imaginary part.  The
eigenvectors, their labelling by the pairing, and the imaginary parts and
signs of the eigenvalues only name the refusal of an element it does not
certify.  For cone preservation the pencil is ``(s* J s, J)``, so the
certificate is the strict S-lemma ``s* J s - tau J > 0`` (Polik and
Terlaky, SIAM Rev. 49(3), 2007); an element it does not settle goes on to
the Monte-Carlo cone sampler.  Every eigensolve here is
:func:`~supq.kernel._spectrum`'s, so all three calls share the
eigensolver's cap of n = 32.

Also here: the pseudo Rayleigh quotient and leading principal minors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput, NotTimelike
from .groups import GroupTag, _require
from .indefinite import (ConeClass, Signature, _check_matrix, _check_vector, _classify, _cone_margins, _gram,
                         _pairing, _sample_cones, _scaled, _sym)
from .kernel import DEFAULT_TOL, _definite, _j_cholesky, _lapack, _quiet, _rounding_bound, _spectrum, as_cmatrix

#: Floor for the relative "eigendirection is pairing-null" threshold of the
#: labelling, which names refusals and decides no verdict.  A defective
#: eigenvalue splits numerically by about sqrt(eps), leaving each computed
#: eigenvector with an indefinite norm of that same noise order, so a
#: refusal below this floor is named "null eigenvector" rather than read
#: off rounding error as a spectral gap.
NULL_FLOOR = 1e-7


@dataclass
class AdmissibilityReport:
    """Outcome of an admissibility check.

    ``eigenvalues`` holds the full spectrum (descending).  When the spectrum
    is real positive, ``timelike_values`` / ``spacelike_values`` list, in
    descending order, the eigenvalues attached to timelike / spacelike
    eigenvectors (repeated eigenvalues appear once per attached eigenvector);
    a "null eigenvector" verdict carries the labels read before the null
    direction.  ``margin`` is min(timelike) - max(spacelike) when both
    families are present, else 0; for a certified element it is the width
    of the certified gap, ``lambda_p - max(0, lambda_{p+1})``, and the
    reported eigenvalues may read <= 0 where the eigensolver lost a small
    one.  ``reason`` is "admissible" for a
    certified element; otherwise it names the refusal: "complex
    eigenvalues", "nonpositive eigenvalues", "null eigenvector", "inertia
    mismatch: ...", "gap violated" (margin <= 0) or "gap not certified",
    whose labels are in order with a positive margin that the certificate
    could not prove in double precision.
    """

    admissible: bool
    eigenvalues: np.ndarray
    timelike_values: list[float] = field(default_factory=list)
    spacelike_values: list[float] = field(default_factory=list)
    margin: float = 0.0
    reason: str = ""


def is_admissible_diag(d, sig: Signature) -> bool:
    """True when min of the first p entries strictly exceeds max of the rest.
    ``d`` is validated as a vector of length n (DimensionMismatch for another
    shape, NonFiniteInput for a NaN or Inf entry); an entry with a nonzero
    imaginary part raises ValueError (a complex array that is exactly real
    passes)."""
    v = _check_vector(d, sig)
    if v.imag.any():
        raise ValueError("exponents must be real")
    return bool(v.real[: sig.p].min() > v.real[sig.p :].max())


@_quiet
def check_admissible_q(s, sig: Signature, tol: float = DEFAULT_TOL) -> AdmissibilityReport:
    """Admissibility of a dagger-fixed matrix.

    The verdict is a certificate, which reads the eigenvalues only to place
    its shift: with the real parts ``lambda`` of the spectrum sorted
    descending and the gap ``(lo, hi) = (max(0, lambda_{p+1}), lambda_p)``,
    ``s`` is admissible exactly when ``lo < hi``, the gap ``hi - lo``
    exceeds ``tol * hi``, ``J(s - cI)`` at the midpoint ``c > 0`` passes
    one Cholesky (:func:`_gap_certificate`) and the blocked J-Cholesky of
    ``J s`` gives ``In(J s) = (p, q)``, both with every pivot clearing the
    rounding bound ``kernel._rounding_bound(n)``.  A definite ``J(s - cI)`` proves the
    spectrum real, with the p timelike values above c and the q spacelike
    ones below it, and the inertia then proves the spacelike ones positive.
    So neither the imaginary parts that the eigensolver leaves near a double
    eigenvalue nor the sign of a small eigenvalue that it loses decides
    anything.  These tests are relative, so the verdict does not depend on
    the scale of the entries while the shift and ``J s`` are finite.

    An element without a certificate is refused, and only then are its
    eigenpairs computed, to name the refusal.  Eigenvalues with ``|imag| >
    max(tol, kernel._rounding_bound(n)) * (1 + |real|)`` name it "complex
    eigenvalues"; that window only names a refusal.  Otherwise the
    eigenvectors are labelled: one Hermitian Gram matrix of the
    indefinite pairing on all eigenvectors is re-diagonalized per block of
    a near-degenerate cluster, so each eigenvalue is attached to
    pairing-definite directions; a pairing-null direction gives "null
    eigenvector" with margin 0.  The null test compares the indefinite norm
    of each direction against ``max(tol, NULL_FLOOR)`` times its Euclidean
    norm, so that the noise left by a defective (non-diagonalizable) element
    is named a null direction.  Labels in order with a positive margin give
    "gap not certified": double precision cannot prove that gap.

    Raises
    ------
    NotInQ
        If ``s`` is not an n x n dagger-fixed matrix with unit determinant to tolerance.
    """
    return _admissibility_report(_require(s, GroupTag.Q, sig, tol), sig, tol)


def _admissibility_report(s: np.ndarray, sig: Signature, tol: float, sylvester: bool = False,
                          spectrum: tuple[np.ndarray, np.ndarray] | None = None) -> AdmissibilityReport:
    """:func:`check_admissible_q`'s verdict on a validated or library-built Q element
    ``s``, from its eigenvalues alone (:func:`~supq.kernel._spectrum`): the pencil
    ``(J s, J)`` passes :func:`_gap_certificate` at ``rel = tol``, whose width is the
    margin, and ``In(J s) = (p, q)``.  Only a refusal computes the eigenvectors,
    through the same ``_spectrum``, and :func:`_labelled_report` names it from them.
    ``sylvester`` says that ``s = dagger(b) b``, so that ``In(J s) = In(b* J b) =
    (p, q)`` needs no J-Cholesky.  A caller that needs the eigenpairs anyway, as
    ``q_log`` does, passes ``spectrum = kernel._spectrum(s, vectors=True)``: its
    eigenvalues place the shift and the pair names a refusal, so ``s`` is solved once."""
    vals = _spectrum(s)[0] if spectrum is None else spectrum[0]
    js, p = sig.j_diag[:, None] * s, sig.p
    margin = _gap_certificate(js, vals, sig, tol)
    if margin and (sylvester or _j_cholesky(js, p, _rounding_bound(sig.n)) is not None):
        return AdmissibilityReport(True, vals, vals.real[:p].tolist(), vals.real[p:].tolist(), margin, "admissible")
    return _labelled_report(*(spectrum or _spectrum(s, vectors=True)), sig, tol)


def _labelled_report(vals: np.ndarray, V: np.ndarray, sig: Signature, tol: float) -> AdmissibilityReport:
    """:func:`check_admissible_q`'s refusal of an element the certificate did not
    prove, named from its eigenpairs ``vals, V = kernel._spectrum(s, vectors=True)``;
    never admissible.  The first name is "complex eigenvalues", for an imaginary part
    above ``max(tol, kernel._rounding_bound(n)) * (1 + |real|)``; that window only
    names the refusal.  A spectrum real to it is named from the eigenvectors' pairing
    labels.  A failed Hermitian eigensolve of the pairing Gram (LAPACK's all-NaN
    output) labels no direction, so it names the refusal "inertia mismatch: 0
    timelike directions"."""
    if np.any(np.abs(vals.imag) > max(tol, _rounding_bound(sig.n)) * (1.0 + np.abs(vals.real))):
        return AdmissibilityReport(False, vals, reason="complex eigenvalues")
    lam = vals.real
    if np.any(lam <= 0):
        return AdmissibilityReport(False, vals, reason="nonpositive eigenvalues")

    # Clusters of near-equal eigenvalues are contiguous, so the masked pairing Gram is
    # block-diagonal: LAPACK's Householder reduction keeps its zero blocks and its
    # tridiagonal solver splits there, so each eigh direction lies in one block, named by
    # its largest entry.  Directions are read in (cluster, ascending gamma) order.
    cluster = np.concatenate(([0], np.cumsum(lam[:-1] - lam[1:] > tol * (1.0 + np.abs(lam[1:])))))
    gram = np.where(cluster[:, None] == cluster, _gram(V, sig.j_diag), 0.0)
    gamma, U = _lapack.eigh_lo(0.5 * (gram + gram.conj().T), signature="D->dD")
    owner = cluster[np.argmax(np.abs(U), axis=0)]
    order = np.argsort(owner, kind="stable")
    gamma, W = gamma[order], V @ U[:, order]
    values = (np.bincount(cluster, weights=lam) / np.bincount(cluster))[owner[order]]
    null = np.abs(gamma) <= max(tol, NULL_FLOOR) * np.sum(W.real**2 + W.imag**2, axis=0)
    read = int(np.argmax(null)) if null.any() else lam.size
    timelike = values[:read][gamma[:read] > 0].tolist()
    spacelike = values[:read][gamma[:read] <= 0].tolist()
    if read < lam.size:
        return AdmissibilityReport(False, vals, timelike, spacelike, 0.0, "null eigenvector")

    if len(timelike) != sig.p:
        reason = f"inertia mismatch: {len(timelike)} timelike directions, expected {sig.p}"
        return AdmissibilityReport(False, vals, timelike, spacelike, 0.0, reason)
    margin = float(min(timelike) - max(spacelike))
    reason = "gap not certified" if margin > 0 else "gap violated"
    return AdmissibilityReport(False, vals, timelike, spacelike, margin, reason)


@_quiet
def check_admissible_an(b, sig: Signature, tol: float = DEFAULT_TOL) -> AdmissibilityReport:
    """Admissibility of a triangular factor, via its symmetrization dagger(b) b.

    Decided as by :func:`check_admissible_q`, except that ``In(J dagger(b) b) =
    (p, q)`` needs no J-Cholesky: ``J dagger(b) b = b* J b`` (Sylvester's law).

    Raises
    ------
    NotInAN
        If ``b`` is not an n x n upper triangular matrix with positive real diagonal and
        unit determinant to tolerance.
    """
    return _admissibility_report(_sym(_require(b, GroupTag.AN, sig, tol), sig.j_diag), sig, tol, sylvester=True)


def _gap_certificate(H: np.ndarray, vals: np.ndarray, sig: Signature, rel: float) -> float:
    """The certified width ``hi - lo`` of the gap ``(lo, hi) = (max(0, Re vals[p]),
    Re vals[p-1])`` of the pencil ``(H, J)``, whose spectrum ``vals`` is sorted by
    descending real part, else 0.  Certified means ``lo < hi``, ``hi - lo > rel * hi``
    and ``H - t J`` at the midpoint ``t > 0`` is :func:`~supq.kernel._definite` to the
    rounding bound at the magnitudes before the shift, the scale ``|H_kk| + t``: then
    the pencil is definite, with each pivot's sign determined in double precision at
    every scale, so its spectrum is real with p values above t and q below it.  H is
    Hermitian to roundoff; the Cholesky reads its lower triangle."""
    lo, hi = max(0.0, float(vals[sig.p].real)), float(vals[sig.p - 1].real)
    t = 0.5 * (lo + hi)
    if lo < hi and hi - lo > rel * hi and _definite(
            H - t * sig.J, abs(H.diagonal().real) + t, _rounding_bound(sig.n)) is not None:
        return hi - lo
    return 0.0


@_quiet
def cone_preservation_check(
    s, sig: Signature, trials: int = 1000, seed: int = 0, tol: float = DEFAULT_TOL
) -> bool:
    """Whether ``s`` maps the closed timelike cone minus 0 into the open one:
    every image of a timelike or null ``x`` classifies as timelike.

    ``trials`` and ``seed`` are checked first: a non-integer raises
    TypeError, and ``trials`` below 1 or ``seed`` below 0 raises ValueError
    (a search without a draw would return True on no evidence).

    Then a certificate, the strict S-lemma: with ``M = s* (J - tol I) s``
    finite and ``tau`` the midpoint of ``(max(0, w_{p+1}), w_p)`` of the
    real parts w of the spectrum of ``J M``, sorted descending, a Cholesky
    of ``M - tau J`` (:func:`_gap_certificate`) proves ``<y, y> > tol
    ||y||^2`` for every such image y, and the call returns True.  The
    spectrum is :func:`~supq.kernel._spectrum`'s: above n = 32 it raises
    DimensionMismatch, the eigensolver's cap that the admissibility checks
    share, and a LAPACK failure raises NoConvergence.  An ``M`` that
    overflows goes straight to the search.

    Otherwise it searches: it draws ``trials`` vectors, alternating timelike
    and null, as that run of ``sample_cone`` calls on ``default_rng(seed)``
    would, in blocks of 1, 2, 4, ... vectors, and returns False if an image
    ``s @ x`` fails to classify as timelike, unless an image drawn before it
    overflows to Inf or is zero: that raises NonFiniteInput or ZeroVector.
    A True verdict of the search is probabilistic evidence, not a proof.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1 or seed < 0:
        raise ValueError("trials must be >= 1 and seed >= 0")
    s = _check_matrix(s, sig)
    return _cone_certificate(s, sig, tol) or _cone_search(s, sig, trials, seed, tol)


def _cone_certificate(s: np.ndarray, sig: Signature, tol: float) -> bool:
    """The S-lemma certificate of :func:`cone_preservation_check` for a validated ``s``."""
    j = sig.j_diag
    M = _gram(s, j - tol)
    return bool(np.isfinite(M).all()) and _gap_certificate(M, _spectrum(j[:, None] * M)[0], sig, 0.0) > 0


def _cone_search(s: np.ndarray, sig: Signature, trials: int, seed: int, tol: float) -> bool:
    """The Monte-Carlo search of :func:`cone_preservation_check` for a validated ``s``."""
    rng = np.random.default_rng(seed)
    for k in range(trials.bit_length()):  # samples 2**k - 1 up to 2**(k+1) - 2
        block = range(2**k - 1, min(trials, 2 ** (k + 1) - 1))
        images = _sample_cones([ConeClass.NULL if i % 2 else ConeClass.TIMELIKE for i in block], sig, rng) @ s.T
        ns, e2, _ = _cone_margins(images, sig.p)
        i = np.argmin((ns > tol * e2) & (e2 < np.inf))  # the first image not judged timelike, else 0
        if _classify(ns[i], e2[i], tol) is not ConeClass.TIMELIKE:
            return False
    return True


@_quiet
def pseudo_rayleigh(s, x, sig: Signature, tol: float = DEFAULT_TOL) -> float:
    """The ratio <s x, x> / <x, x> for a timelike vector x.

    For dagger-fixed s the ratio is real; the imaginary part (of size tol at
    most) is discarded.  The quotient does not depend on the scale of x, so x
    is first scaled by a power of two to a largest entry in [1/2, 1).

    Raises
    ------
    NotTimelike
        If x does not classify as timelike.
    NonFiniteInput
        If <s x, x> overflows at that scale, as :func:`~supq.indefinite.pairing`
        does; a quotient that overflows only in the division is ±inf.
    """
    s = _check_matrix(s, sig)
    x = _check_vector(x, sig)
    x = _scaled(x, np.frexp(np.maximum(abs(x.real), abs(x.imag)).max())[1])
    ns, e2, _ = _cone_margins(x, sig.p)
    if _classify(ns, e2, tol) is not ConeClass.TIMELIKE:
        raise NotTimelike("pseudo_rayleigh needs a timelike vector")
    return _pairing(s @ x, x, sig.j_diag).real / ns


@_quiet
def leading_minors(s) -> np.ndarray:
    """All n leading principal minors det(s[:k, :k]), k = 1..n; NonFiniteInput on overflow."""
    s = as_cmatrix(s, square=True)
    minors = np.array([_lapack.det(s[: k + 1, : k + 1], signature="D->D") for k in range(s.shape[0])])
    if not np.isfinite(minors).all():
        raise NonFiniteInput("a leading minor overflows")
    return minors
