"""Admissibility predicates, the cone check, the pseudo Rayleigh quotient."""

import numpy as np
import pytest

from supq.admissible import (
    check_admissible_an,
    check_admissible_q,
    cone_preservation_check,
    is_admissible_diag,
    leading_minors,
    pseudo_rayleigh,
)
from supq.errors import DimensionMismatch, NotInAN, NotInQ, NotTimelike
from supq.groups import random_g0
from supq.indefinite import Signature, dagger

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)

E = np.e


# ---------------------------------------------------------------------------
# diagonal predicate


def test_is_admissible_diag():
    assert is_admissible_diag([1.0, -1.0], SIG11)
    assert not is_admissible_diag([-1.0, 1.0], SIG11)
    assert not is_admissible_diag([0.0, 0.0], SIG11)
    assert is_admissible_diag([2.0, 1.0, 0.5], SIG21)
    with pytest.raises(DimensionMismatch):
        is_admissible_diag([1.0], SIG11)


# ---------------------------------------------------------------------------
# dagger-fixed elements


def test_identity_has_no_gap():
    report = check_admissible_q(np.eye(2), SIG11)
    assert not report.admissible
    assert report.reason == "gap violated"
    assert report.margin == 0.0
    np.testing.assert_allclose(report.eigenvalues, [1.0, 1.0], atol=1e-14)


def test_admissible_diagonal_element():
    report = check_admissible_q(np.diag([E, 1 / E]), SIG11)
    assert report.admissible
    assert report.reason == "admissible"
    assert report.margin == pytest.approx(E - 1 / E, rel=1e-12)
    assert report.timelike_values == pytest.approx([E], rel=1e-12)
    assert report.spacelike_values == pytest.approx([1 / E], rel=1e-12)


def test_inverted_diagonal_violates_gap():
    # same spectrum, but the large eigenvalue is attached to a spacelike axis
    report = check_admissible_q(np.diag([1 / E, E]), SIG11)
    assert not report.admissible
    assert report.reason == "gap violated"
    assert report.margin == pytest.approx(1 / E - E, rel=1e-12)


def test_complex_spectrum_reported():
    # dagger-fixed with trace < 2: eigenvalues form a conjugate pair
    m = np.sqrt(0.75)
    s = np.array([[0.5, m], [-m, 0.5]], dtype=complex)
    report = check_admissible_q(s, SIG11)
    assert not report.admissible
    assert report.reason == "complex eigenvalues"


def test_negative_spectrum_reported():
    s = np.array([[-3.0, 1.0], [-1.0, 0.0]], dtype=complex)
    report = check_admissible_q(s, SIG11)
    assert not report.admissible
    assert report.reason == "nonpositive eigenvalues"


def test_null_eigenvector_reported():
    # unipotent dagger-fixed element: the single eigendirection is null, so
    # the element sits on the cone boundary and must never be admissible
    x = 0.5
    s = np.array([[1 + x, x], [-x, 1 - x]], dtype=complex)
    report = check_admissible_q(s, SIG11)
    assert not report.admissible
    assert report.reason == "null eigenvector"
    assert report.margin == 0.0


@pytest.mark.parametrize("x", [5.0, 50.0, 500.0])
def test_defective_elements_rejected_at_scale(x):
    # the defective eigenvalue splits by eigensolver noise (~sqrt(eps));
    # depending on the split direction the boundary verdict is reported as
    # a null direction or as a conjugate pair, never as a spectral gap
    s = np.array([[1 + x, x], [-x, 1 - x]], dtype=complex)
    report = check_admissible_q(s, SIG11)
    assert not report.admissible
    assert report.reason in ("null eigenvector", "complex eigenvalues")
    assert report.margin == 0.0


def test_gap_placement_depends_on_signature():
    # the same spectrum is admissible or not depending on which axes carry
    # the large eigenvalues
    s = np.diag([2.0, 0.5, 1.0]).astype(complex)  # timelike axis carries 2.0
    report = check_admissible_q(s, Signature(1, 2))
    assert report.admissible  # 2 > max(0.5, 1.0)
    s2 = np.diag([0.5, 2.0, 1.0]).astype(complex)
    report2 = check_admissible_q(s2, Signature(1, 2))
    assert not report2.admissible
    assert report2.reason == "gap violated"


def test_check_admissible_q_rejects_non_q():
    with pytest.raises(NotInQ):
        check_admissible_q(np.array([[1, 1], [0, 1]]), SIG11)


def test_degenerate_cluster_is_split_by_the_pairing():
    # eigenvalue 2 appears on a timelike and a spacelike axis simultaneously:
    # the degenerate cluster contributes one direction to each side, so the
    # margin is min(0.25, 2) - 2 = -1.75
    s = np.diag([2.0, 2.0, 0.25]).astype(complex)
    report = check_admissible_q(s, Signature(2, 1))
    assert report.admissible  # timelike pair (2, 2), spacelike 0.25
    s2 = np.diag([2.0, 0.25, 2.0]).astype(complex)
    report2 = check_admissible_q(s2, Signature(2, 1))
    assert not report2.admissible
    assert report2.reason == "gap violated"
    assert report2.margin == pytest.approx(-1.75, rel=1e-12)
    assert sorted(report2.timelike_values) == pytest.approx([0.25, 2.0], rel=1e-12)
    assert report2.spacelike_values == pytest.approx([2.0], rel=1e-12)


def test_conjugation_invariance_of_the_report():
    # dagger(g) s g has the same spectrum and the same pairing signature on
    # each eigenspace, so the verdict and margin survive the move; the
    # diagonals are drawn with a solid gap (or a solid violation) so the
    # classification is robust to conjugation roundoff
    rng = np.random.default_rng(67)
    for trial in range(200):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = Signature(p, q)
        lam = np.empty(sig.n)
        lam[:p] = rng.uniform(1.5, 2.5, p)
        lam[p:] = rng.uniform(0.3, 0.8, q)
        if trial % 2:
            lam[:p], lam[p:] = (
                rng.uniform(0.3, 0.8, p),
                rng.uniform(1.5, 2.5, q),
            )
        lam /= np.prod(lam) ** (1.0 / sig.n)
        s = np.diag(lam).astype(complex)
        g = random_g0(sig, int(rng.integers(2**32)), spread=0.8)
        conj = dagger(g, sig) @ s @ g
        base = check_admissible_q(s, sig)
        moved = check_admissible_q(conj, sig)
        assert base.admissible == moved.admissible
        assert base.admissible == (trial % 2 == 0)
        assert moved.margin == pytest.approx(base.margin, rel=1e-7)


# ---------------------------------------------------------------------------
# triangular factors


def test_an_admissibility_via_symmetrization():
    b = np.diag([E, 1 / E]).astype(complex)
    report = check_admissible_an(b, SIG11)
    assert report.admissible
    # symmetrization of a real diagonal squares it
    assert report.timelike_values == pytest.approx([E**2], rel=1e-12)
    assert report.spacelike_values == pytest.approx([E**-2], rel=1e-12)


def test_an_admissibility_rejects_non_triangular():
    with pytest.raises(NotInAN):
        check_admissible_an(np.array([[0, 1], [-1, 0]]), SIG11)


def test_unit_diagonal_triangular_is_never_admissible():
    b = np.array([[1, 0.3], [0, 1]], dtype=complex)
    report = check_admissible_an(b, SIG11)
    assert not report.admissible


# ---------------------------------------------------------------------------
# cone preservation


def test_cone_check_accepts_admissible_diagonal():
    assert cone_preservation_check(np.diag([E, 1 / E]), SIG11, trials=500, seed=7)


def test_cone_check_catches_gap_violation():
    assert not cone_preservation_check(np.diag([1 / E, E]), SIG11, trials=500, seed=7)


def test_cone_check_dimension_guard():
    with pytest.raises(DimensionMismatch):
        cone_preservation_check(np.eye(3), SIG11)


# ---------------------------------------------------------------------------
# pseudo Rayleigh quotient


def test_pseudo_rayleigh_identity():
    assert pseudo_rayleigh(np.eye(2), [1, 0], SIG11) == pytest.approx(1.0)


def test_pseudo_rayleigh_diagonal():
    s = np.diag([E, 1 / E]).astype(complex)
    assert pseudo_rayleigh(s, [1, 0], SIG11) == pytest.approx(E, rel=1e-13)
    # mixing in a spacelike component shrinks the indefinite norm faster
    # than the numerator, pushing the ratio above the timelike eigenvalue
    val = pseudo_rayleigh(s, [1.0, 0.5], SIG11)
    assert val == pytest.approx((E - 0.25 / E) / 0.75, rel=1e-13)
    assert val > E


def test_pseudo_rayleigh_dimension_guard():
    with pytest.raises(DimensionMismatch):
        pseudo_rayleigh(np.eye(3), [1, 0], SIG11)


def test_pseudo_rayleigh_needs_timelike():
    with pytest.raises(NotTimelike):
        pseudo_rayleigh(np.eye(2), [0, 1], SIG11)
    with pytest.raises(NotTimelike):
        pseudo_rayleigh(np.eye(2), [1, 1], SIG11)


def test_pseudo_rayleigh_bounded_by_timelike_spectrum():
    rng = np.random.default_rng(71)
    s = np.diag([2.0, 1.5, 0.25]).astype(complex)
    sig = Signature(2, 1)
    for _ in range(200):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x[0] *= 3.0  # bias timelike
        try:
            val = pseudo_rayleigh(s, x, sig)
        except NotTimelike:
            continue
        # admissible diagonal: for a timelike vector the quotient never
        # drops below the smallest timelike eigenvalue (the spacelike
        # component only pushes it up)
        assert val >= 1.5 - 1e-9


# ---------------------------------------------------------------------------
# minors


def test_leading_minors_triangular():
    U = np.array([[2, 5], [0, 3]], dtype=complex)
    np.testing.assert_allclose(leading_minors(U), [2.0, 6.0], rtol=1e-14)


def test_leading_minors_match_dets():
    rng = np.random.default_rng(73)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    minors = leading_minors(M)
    for k in range(1, 5):
        assert minors[k - 1] == pytest.approx(np.linalg.det(M[:k, :k]), rel=1e-10)
