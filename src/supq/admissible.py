"""Admissibility: strict spectral-gap predicates.

A diagonal exponent vector is admissible when every timelike exponent
strictly exceeds every spacelike exponent.  A dagger-fixed matrix is
admissible when its spectrum is real, positive, and splits into p values
carried by timelike eigenvectors and q values carried by spacelike ones,
with min(timelike) > max(spacelike).  A triangular factor b is admissible
exactly when its symmetrization dagger(b) b is.

Also here: the Monte-Carlo cone-preservation check (admissible elements map
the closed timelike cone minus the origin into the open timelike cone), the
pseudo Rayleigh quotient, and leading principal minors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotTimelike
from .groups import GroupTag, _require
from .indefinite import (ConeClass, Signature, _check_matrix, _check_vector, _classify, _cone_margin,
                         _pairing, _quiet, _row_margins, _sample_cones, _scaled, _sym)
from .kernel import DEFAULT_TOL, EigenResult, as_cmatrix, eig

#: Floor for the relative "eigendirection is pairing-null" threshold.  A
#: defective eigenvalue splits numerically by about sqrt(eps), leaving each
#: computed eigenvector with an indefinite norm of that same noise order, so
#: verdicts below this floor would be read off rounding error.  Genuinely
#: definite directions of a bounded element keep their indefinite norm
#: above (spectral gap) / ||s||, orders of magnitude larger.
NULL_FLOOR = 1e-7


@dataclass
class AdmissibilityReport:
    """Outcome of an admissibility check.

    ``eigenvalues`` holds the full spectrum (descending).  When the spectrum
    is real positive, ``timelike_values`` / ``spacelike_values`` list the
    eigenvalues attached to timelike / spacelike eigenvectors (repeated
    eigenvalues appear once per attached eigenvector).  ``margin`` is
    min(timelike) - max(spacelike) when both families are present, else 0.
    """

    admissible: bool
    eigenvalues: np.ndarray
    timelike_values: list[float] = field(default_factory=list)
    spacelike_values: list[float] = field(default_factory=list)
    margin: float = 0.0
    reason: str = ""


def is_admissible_diag(d, sig: Signature) -> bool:
    """True when min of the first p entries strictly exceeds max of the rest."""
    v = np.asarray(d, dtype=float)
    if v.ndim != 1 or v.shape[0] != sig.n:
        raise DimensionMismatch(f"expected {sig.n} real entries")
    return bool(v[: sig.p].min() > v[sig.p :].max())


def _cluster_indices(lam: np.ndarray, tol: float) -> list[list[int]]:
    """Group a descending real spectrum into near-degenerate clusters."""
    clusters = [[0]]
    for i in range(1, lam.size):
        if lam[i - 1] - lam[i] <= tol * (1.0 + abs(lam[i])):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def check_admissible_q(s, sig: Signature, tol: float = DEFAULT_TOL) -> AdmissibilityReport:
    """Admissibility of a dagger-fixed matrix.

    Eigenvalues count as real when ``|imag| <= tol * (1 + |real|)``.  Within
    a near-degenerate cluster the eigenvectors are re-diagonalized against
    the indefinite pairing (via the small Hermitian Gram matrix), so each
    eigenvalue is attached to pairing-definite directions; a pairing-null
    direction makes the element inadmissible with margin 0.  The null test
    compares the indefinite norm of each direction against
    ``max(tol, NULL_FLOOR)`` times its Euclidean norm, so that the noise
    left by a defective (non-diagonalizable) element is reported as a null
    direction rather than as a spurious spectral gap.

    Raises
    ------
    NotInQ
        If ``s`` is not an n x n dagger-fixed matrix with unit determinant to tolerance.
    """
    return _admissibility_report(eig(_require(s, GroupTag.Q, sig, tol)), sig, tol)


def _admissibility_report(result: EigenResult, sig: Signature, tol: float) -> AdmissibilityReport:
    """:func:`check_admissible_q`'s verdict from ``eig`` of a validated or library-built Q element."""
    vals = result.values

    if np.any(np.abs(vals.imag) > tol * (1.0 + np.abs(vals.real))):
        return AdmissibilityReport(False, vals, reason="complex eigenvalues")
    lam = vals.real
    if np.any(lam <= tol):
        return AdmissibilityReport(False, vals, reason="nonpositive eigenvalues")

    timelike: list[float] = []
    spacelike: list[float] = []
    for idx in _cluster_indices(lam, tol):
        V = result.vectors[:, idx]
        gram = V.conj().T @ (sig.j_diag[:, None] * V)
        gamma, U = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        W = V @ U
        wnorms = np.sum(W.real**2 + W.imag**2, axis=0)
        value = float(lam[idx].mean())
        for g, w2 in zip(gamma, wnorms):
            if abs(g) <= max(tol, NULL_FLOOR) * w2:
                return AdmissibilityReport(
                    False, vals, timelike, spacelike, 0.0, "null eigenvector"
                )
            (timelike if g > 0 else spacelike).append(value)

    if len(timelike) != sig.p:
        return AdmissibilityReport(
            False,
            vals,
            timelike,
            spacelike,
            0.0,
            f"inertia mismatch: {len(timelike)} timelike directions, expected {sig.p}",
        )
    margin = min(timelike) - max(spacelike)
    admissible = margin > tol
    return AdmissibilityReport(
        admissible,
        vals,
        timelike,
        spacelike,
        float(margin),
        "admissible" if admissible else "gap violated",
    )


def check_admissible_an(b, sig: Signature, tol: float = DEFAULT_TOL) -> AdmissibilityReport:
    """Admissibility of a triangular factor, via its symmetrization dagger(b) b.

    Raises
    ------
    NotInAN
        If ``b`` is not an n x n upper triangular matrix with positive real diagonal and
        unit determinant to tolerance.
    """
    b = _require(b, GroupTag.AN, sig, tol)
    return _admissibility_report(eig(_sym(b, sig.j_diag)), sig, tol)


@_quiet
def cone_preservation_check(
    s, sig: Signature, trials: int = 1000, seed: int = 0, tol: float = DEFAULT_TOL
) -> bool:
    """Monte-Carlo necessary condition for admissibility.

    Draws ``trials`` vectors, alternating timelike and null, as that run of
    ``sample_cone`` calls on ``default_rng(seed)`` would, in blocks of 1, 2,
    4, ... vectors, and returns False if an image ``s @ x`` fails to classify
    as timelike, unless an image drawn before it overflows to Inf: that raises
    NonFiniteInput.  A True verdict is probabilistic evidence, not a proof.
    """
    s = _check_matrix(s, sig)
    rng = np.random.default_rng(seed)
    for k in range(int(trials).bit_length()):  # samples 2**k - 1 up to 2**(k+1) - 2
        block = range(2**k - 1, min(trials, 2 ** (k + 1) - 1))
        images = _sample_cones([ConeClass.NULL if i % 2 else ConeClass.TIMELIKE for i in block], sig, rng) @ s.T
        ns, e2, normal = _row_margins(images, sig.p)
        for y in images[~(normal & (ns > tol * e2))]:  # the rest are timelike without rescaling
            if _classify(y, sig.p, tol) is not ConeClass.TIMELIKE:
                return False
    return True


@_quiet
def pseudo_rayleigh(s, x, sig: Signature, tol: float = DEFAULT_TOL) -> float:
    """The ratio <s x, x> / <x, x> for a timelike vector x.

    For dagger-fixed s the ratio is real; the imaginary part (of size tol at
    most) is discarded.

    Raises
    ------
    NotTimelike
        If x does not classify as timelike.
    """
    s = _check_matrix(s, sig)
    x = _check_vector(x, sig)
    if _classify(x, sig.p, tol) is not ConeClass.TIMELIKE:
        raise NotTimelike("pseudo_rayleigh needs a timelike vector")
    ns, _, k = _cone_margin(x, sig.p)
    x = _scaled(x, k) if k else x  # the quotient is invariant under scaling x
    return _pairing(s @ x, x, sig.j_diag).real / ns


def leading_minors(s) -> np.ndarray:
    """All n leading principal minors det(s[:k, :k]), k = 1..n."""
    s = as_cmatrix(s, square=True)
    n = s.shape[0]
    return np.array([np.linalg.det(s[: k + 1, : k + 1]) for k in range(n)])
