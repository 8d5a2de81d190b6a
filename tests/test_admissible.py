"""Admissibility predicates, the cone check, the pseudo Rayleigh quotient."""

import numpy as np
import pytest

from supq.admissible import (
    _labelled_report,
    check_admissible_an,
    check_admissible_q,
    cone_preservation_check,
    is_admissible_diag,
    leading_minors,
    pseudo_rayleigh,
)
from supq.errors import (DimensionMismatch, NonFiniteInput, NotHermitian, NotInAN, NotInQ, NotTimelike,
                         ZeroVector)
from supq.groups import random_g0
from supq.indefinite import ConeClass, Signature, classify, dagger, norm_sq, pairing, sample_cone
from supq.iwasawa import decompose_g_admissible, decompose_gauss, decompose_gs, dress, q_log, sym
from supq.kernel import eig, signed_ldl
from supq.selftest import random_admissible_q, random_nonadmissible_q, random_signature

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
    for d in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0]):  # no verdict on a non-finite exponent
        with pytest.raises(NonFiniteInput):
            is_admissible_diag(d, SIG11)
    with pytest.raises(ValueError, match="real"):  # not dropped with a ComplexWarning
        is_admissible_diag(np.array([1 + 5j, 0]), SIG11)
    assert is_admissible_diag(np.array([1 + 0j, 0]), SIG11)


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


def test_degenerate_clusters_survive_conjugation():
    # exponents drawn from {-1, 0, 1} repeat across timelike and spacelike axes, so
    # conjugation leaves clusters that mix both kinds; the pairing still labels each
    # direction as the exact exponents do
    rng = np.random.default_rng(14)
    for _ in range(60):
        sig = random_signature(rng, 6)
        d = rng.integers(-1, 2, sig.n).astype(float)
        d -= d.mean()
        g = random_g0(sig, int(rng.integers(2**32)), 0.8)
        report = check_admissible_q(dagger(g, sig) @ np.diag(np.exp(d)) @ g, sig)
        timelike, spacelike = np.sort(np.exp(d[: sig.p])), np.sort(np.exp(d[sig.p :]))
        margin = timelike[0] - spacelike[-1]
        assert report.admissible == (margin > 0)
        assert report.margin == pytest.approx(margin, rel=1e-7)
        assert sorted(report.timelike_values) == pytest.approx(timelike, rel=1e-7)
        assert sorted(report.spacelike_values) == pytest.approx(spacelike, rel=1e-7)


def test_null_direction_keeps_the_labels_read_before_it():
    # the defective block [[2, 1], [-1, 0]] on a timelike and a spacelike axis has a
    # null eigendirection; the eigenvalue 3 read before it stays labelled
    s = np.diag([3.0, 1.0, 1.0, 1 / 3]).astype(complex)
    s[1:3, 1:3] = [[2, 1], [-1, 0]]
    report = check_admissible_q(s, Signature(2, 2))
    assert report.reason == "null eigenvector"
    assert report.timelike_values == [3.0]
    assert report.spacelike_values == []


def test_too_many_timelike_directions_name_an_inertia_mismatch():
    # the eigenpairs (3, e_1) and (2, e_1 + e_2 / 2): both directions are
    # timelike, one more than p = 1
    report = _labelled_report(np.array([3, 2], complex), np.array([[1, 1], [0, 0.5]], complex), SIG11, 1e-9)
    assert not report.admissible
    assert report.reason == "inertia mismatch: 2 timelike directions, expected 1"
    assert report.timelike_values == [3.0, 2.0] and report.spacelike_values == []


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


@pytest.mark.parametrize("check", [check_admissible_q, check_admissible_an, cone_preservation_check])
@pytest.mark.parametrize("order", [1, -1], ids=["admissible", "gap_violated"])
def test_admissibility_checks_keep_the_eigensolver_size_cap(check, order):
    # diag(exp(d)) at n = 33 is in Q and in AN; the certificate could decide it,
    # but the admissibility checks and the cone check share the eigensolver's cap of n = 32
    d = order * np.linspace(1.0, -1.0, 33)
    with pytest.raises(DimensionMismatch, match="capped"):
        check(np.diag(np.exp(d)), Signature(17, 16))


# ---------------------------------------------------------------------------
# cone preservation


def test_cone_check_accepts_admissible_diagonal():
    assert cone_preservation_check(np.diag([E, 1 / E]), SIG11, trials=500, seed=7)


def test_cone_check_catches_gap_violation():
    assert not cone_preservation_check(np.diag([1 / E, E]), SIG11, trials=500, seed=7)


def test_cone_check_dimension_guard():
    with pytest.raises(DimensionMismatch):
        cone_preservation_check(np.eye(3), SIG11)


def test_cone_check_at_extreme_scale():
    # every image of a timelike or null sample has an entry whose square overflows
    assert cone_preservation_check(np.diag([1e160, 1e-160]), SIG11, trials=200, seed=7)
    assert not cone_preservation_check(np.diag([1e-160, 1e160]), SIG11, trials=200, seed=7)


def test_cone_check_rejects_an_overflowing_image():
    s = np.array([[1.5e308, 1.5e308], [0.0, 1.0]])
    with pytest.raises(NonFiniteInput):
        cone_preservation_check(s, SIG11, trials=10, seed=7)


def _per_sample_cone_check(s, sig, trials, seed):
    """The cone check one sample at a time, as the library once ran it:
    the reference the blocked check must agree with."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        x = sample_cone(ConeClass.NULL if i % 2 else ConeClass.TIMELIKE, sig, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            image = s @ x
        if classify(image, sig) is not ConeClass.TIMELIKE:
            return False
    return True


@pytest.mark.parametrize("trials", [1, 2, 3, 7, 8, 1000])
def test_cone_check_matches_the_per_sample_reference(trials):
    rng = np.random.default_rng(2024)
    verdicts = []
    for k in range(16):
        sig = random_signature(rng, 6)
        s = (random_admissible_q if k % 2 == 0 else random_nonadmissible_q)(sig, rng)
        seed = int(rng.integers(2**32))
        verdict = cone_preservation_check(s, sig, trials, seed)
        assert verdict == _per_sample_cone_check(s, sig, trials, seed)
        verdicts.append(verdict)
    assert verdicts[::2] == [True] * 8  # admissible elements always pass
    if trials == 1000:
        assert False in verdicts


# c * (x_1 + x_2, x_2): a null sample's image is often not timelike, and a
# timelike sample's image often overflows.  The samples are judged in blocks
# of 1, 2, 4, 8; each seed puts both events in one block.
OVERFLOW_PRONE = 1e308 * np.array([[1, 1], [0, 1]], dtype=complex)


@pytest.mark.parametrize("seed", [9, 268, 78])  # violation at sample 1, 3, 7; overflow at 2, 6, 10
def test_cone_check_violation_before_an_overflowing_image_is_false(seed):
    assert not cone_preservation_check(OVERFLOW_PRONE, SIG11, trials=16, seed=seed)
    assert not _per_sample_cone_check(OVERFLOW_PRONE, SIG11, 16, seed)


@pytest.mark.parametrize("seed", [81, 83])  # overflow at sample 4, 10; violation at 5, 11
def test_cone_check_overflowing_image_before_a_violation_raises(seed):
    with pytest.raises(NonFiniteInput):
        cone_preservation_check(OVERFLOW_PRONE, SIG11, trials=16, seed=seed)
    with pytest.raises(NonFiniteInput):
        _per_sample_cone_check(OVERFLOW_PRONE, SIG11, 16, seed)


def test_check_admissible_q_refuses_a_non_member_at_overflowing_scale():
    with pytest.raises(NotInQ):
        check_admissible_q([[1e200, 3e199], [0, 1e-200]], SIG11)


def test_cone_check_refuses_a_zero_image():
    with pytest.raises(ZeroVector):
        cone_preservation_check(np.zeros((2, 2)), SIG11)


def test_cone_check_refuses_a_negative_trial_count():
    for trials in (-3, 0):  # no draw, no evidence: trials=0 would pass anything uncertified
        with pytest.raises(ValueError, match="trials"):
            cone_preservation_check(np.eye(2), SIG11, trials=trials)
    violator = random_nonadmissible_q(Signature(2, 2), np.random.default_rng(0))
    assert not cone_preservation_check(violator, Signature(2, 2), trials=1)


@pytest.mark.parametrize("s", [np.diag([E, 1 / E]), np.eye(2)], ids=["certified", "searched"])
def test_cone_check_judges_trials_and_seed_before_the_certificate(s):
    # the same refusal whether or not the search runs
    for kwargs in ({"trials": 2.5}, {"trials": 3.0}, {"seed": 1.5}, {"seed": None}):
        with pytest.raises(TypeError):
            cone_preservation_check(s, SIG11, **kwargs)
    for kwargs in ({"trials": 0}, {"seed": -1}):
        with pytest.raises(ValueError, match="trials must be >= 1 and seed >= 0"):
            cone_preservation_check(s, SIG11, **kwargs)
    assert cone_preservation_check(s, SIG11, trials=np.int64(3), seed=np.uint32(7)) == (s[0, 0] > 1)


_NOT_Q = [[1e200, 3e199], [0, 1e-200]]  # the squares of these entries overflow
_NOT_AN = [[1e200, 0], [5e199, 1e-200]]


@pytest.mark.parametrize("call, raised", [
    (lambda: check_admissible_q(_NOT_Q, SIG11), NotInQ),
    (lambda: q_log(_NOT_Q, SIG11), NotInQ),
    (lambda: sym(_NOT_AN, SIG11), NotInAN),
    (lambda: check_admissible_an(_NOT_AN, SIG11), NotInAN),
    (lambda: dress(_NOT_AN, np.eye(2), SIG11), NotInAN),
    (lambda: decompose_gauss(_NOT_AN, SIG11), NonFiniteInput),
    (lambda: decompose_g_admissible(_NOT_AN, SIG11), NonFiniteInput),
    (lambda: eig([[2e200, 1e200], [1e200, 3e200]]), None),
    (lambda: signed_ldl([[1e200, 5e199], [0, -1e200]]), NotHermitian),
    (lambda: pairing([1e200, 0], [1e200, 0], SIG11), NonFiniteInput),
    (lambda: leading_minors(np.diag([1e200, 1e200])), NonFiniteInput),
], ids=["check_admissible_q", "q_log", "sym", "check_admissible_an", "dress", "decompose_gauss",
        "decompose_g_admissible", "eig", "signed_ldl", "pairing", "leading_minors"])
def test_guards_judge_overflowing_inputs_without_warnings(call, raised):
    # RuntimeWarning is an error in this suite: each guard returns or raises, and numpy stays quiet
    if raised is None:
        call()
    else:
        with pytest.raises(raised):
            call()


def test_library_calls_judge_overflow_without_warnings():
    # squares of these entries overflow: each call rescales or raises, and numpy stays quiet
    big = np.array([1e200, 0.5e200])
    assert classify(big, SIG11) is ConeClass.TIMELIKE
    assert norm_sq(big, SIG11) == np.inf
    assert pseudo_rayleigh(np.eye(2), big, SIG11) == 1.0
    assert cone_preservation_check(np.diag([1e160, 1e-160]), SIG11, trials=50, seed=7)
    with pytest.raises(NonFiniteInput):
        cone_preservation_check(OVERFLOW_PRONE, SIG11, trials=16, seed=81)
    g = np.diag([1e200, 1e-200]).astype(complex)
    np.testing.assert_array_equal(decompose_gs(g, SIG11).b, g)


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


def test_pseudo_rayleigh_at_extreme_scale():
    assert pseudo_rayleigh(np.eye(2), [1e200, 0], SIG11) == 1.0
    assert pseudo_rayleigh(np.eye(2), [1e-200, 0], SIG11) == 1.0
    s = np.diag([E, 1 / E]).astype(complex)
    assert pseudo_rayleigh(s, [1e200, 0.5e200], SIG11) == pytest.approx((E - 0.25 / E) / 0.75, rel=1e-13)


def test_pseudo_rayleigh_scales_x_before_the_product():
    # s @ x overflows at x = [1e10, 0, 0] unless x is scaled first, and the
    # complex product then turns inf * 0 into NaN; the quotient does not
    # depend on the scale of x.  A <s x, x> that overflows at that scale raises.
    s, sig = np.diag([1e300, 1.0, 1e-300]), Signature(2, 1)
    assert pseudo_rayleigh(s, [1, 0, 0], sig) == 1e300
    assert pseudo_rayleigh(s, [1e10, 0, 0], sig) == pytest.approx(1e300, rel=1e-15)
    with pytest.raises(NonFiniteInput):
        pseudo_rayleigh(np.full((3, 3), 1.5e308), [1, 1, 1], sig)


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
        assert minors[k - 1] == np.linalg.det(M[:k, :k])
