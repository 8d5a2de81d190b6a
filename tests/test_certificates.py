"""The definite-pencil certificates of supq.admissible, checked against the
pairing labels of the eigenvectors, which only name a refusal, and against
the Monte-Carlo cone search."""

import numpy as np
import pytest

from supq.admissible import (_admissibility_report, _cone_certificate, _cone_search, _gap_certificate,
                             _labelled_report, check_admissible_an, check_admissible_q, cone_preservation_check)
from supq.groups import random_g0
from supq.indefinite import Signature, dagger
from supq.errors import NoConvergence, NonFiniteInput, NotAdmissible
from supq.iwasawa import dress, q_log, sym
from supq.kernel import DEFAULT_TOL, _quiet, eig
from supq.selftest import random_admissible_an, random_admissible_q, random_nonadmissible_q, random_signature
from supq.su11 import Su11ANElement, su11_an_admissible


def _draws(seed, count, n_max=8):
    """(kind, sig, matrix, sylvester): admissible Q, gap-violating Q and sym of admissible AN, in turn."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        sig = random_signature(rng, n_max)
        if k % 3 == 0:
            yield "admissible_q", sig, random_admissible_q(sig, rng), False
        elif k % 3 == 1:
            yield "nonadmissible_q", sig, random_nonadmissible_q(sig, rng), False
        else:
            yield "admissible_an", sig, sym(random_admissible_an(sig, rng), sig), True


def test_certified_reports_match_the_labelling():
    # the labels name a refusal and never accept; on a certified element they
    # read the same lists and margin, with the gap left "not certified"
    certified = 0
    for kind, sig, s, sylvester in _draws(2026, 600):
        result = eig(s)
        # a private helper runs under the errstate of the public call that reaches it
        report = _quiet(_admissibility_report)(s, sig, DEFAULT_TOL, sylvester)
        labelled = _labelled_report(result.values, result.vectors, sig, DEFAULT_TOL)
        assert not labelled.admissible
        assert report.admissible == (kind != "nonadmissible_q")
        assert labelled.reason == ("gap not certified" if report.admissible else report.reason)
        assert report.margin == pytest.approx(labelled.margin, rel=1e-12)
        assert report.timelike_values == pytest.approx(labelled.timelike_values, rel=1e-12)
        assert report.spacelike_values == pytest.approx(labelled.spacelike_values, rel=1e-12)
        certified += _quiet(_gap_certificate)(sig.j_diag[:, None] * s, result.values, sig, DEFAULT_TOL) > 0
    assert certified == 400  # every admissible draw took the certificate, no gap violator did


def test_inertia_is_part_of_the_certificate():
    # J(s - cI) > 0 at c = 2, but the spacelike values -0.5 make In(J s) = (3, 0)
    s = np.diag([4.0, -0.5, -0.5]).astype(complex)
    sig = Signature(1, 2)
    assert _gap_certificate(sig.j_diag[:, None] * s, [4, -0.5, -0.5], sig, DEFAULT_TOL) > 0
    report = check_admissible_q(s, sig)
    assert not report.admissible
    assert report.reason == "nonpositive eigenvalues"


def test_widely_scaled_diagonal_is_certified_in_one_orientation_only():
    # a positive spectrum is never "nonpositive"; exponents +-6e-10 and +-8e-10
    # give a relative gap above tol whose shift pivots (of the gap's size) clear
    # the rounding bound, while their labelled clusters merge
    for a in (1e10, np.exp(6e-10), np.exp(8e-10)):
        assert check_admissible_q(np.diag([a, 1 / a]), Signature(1, 1)).admissible
        report = check_admissible_q(np.diag([1 / a, a]), Signature(1, 1))
        assert not report.admissible
        assert report.reason == "gap violated"


@pytest.mark.parametrize("r", [18.2, 100.0])
@pytest.mark.parametrize("delta", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_near_boundary_an_elements_follow_the_closed_form(r, delta):
    # |n| a fraction delta inside r - 1/r: sym(b) is close to a double eigenvalue,
    # so eig splits it with imaginary parts above the real-spectrum window, but the
    # certificate proves the spectrum real and the element admissible
    b = Su11ANElement(r, (r - 1 / r) * (1 - delta) * np.exp(0.7j))
    assert su11_an_admissible(b)
    assert check_admissible_an(b.as_matrix(), Signature(1, 1)).admissible


def test_dressed_admissible_factors_are_certified():
    # dressing preserves admissibility; far from the identity (spread 8) the
    # dressed b' has cond 1e3..1e5 and eig gives its spectrum imaginary parts
    # that the certificate does not read
    rng = np.random.default_rng(108)
    for _ in range(40):
        sig = random_signature(rng, 6)
        b = random_admissible_an(sig, rng)
        b_prime = dress(b, random_g0(sig, rng, spread=8.0), sig).b_prime
        assert check_admissible_an(b_prime, sig).admissible, sig


def test_unipotent_q_element_is_never_admissible():
    # [[1+x, x], [-x, 1-x]] has trace 2 and det 1: a double eigenvalue 1 on the
    # boundary of the admissible set, whatever the labels of its split eigenvectors
    for x in np.geomspace(1e-4, 1e3, 400):
        s = np.array([[1 + x, x], [-x, 1 - x]])
        assert not check_admissible_q(s, Signature(1, 1)).admissible
        with pytest.raises(NotAdmissible):
            q_log(s, Signature(1, 1))


def test_q_log_of_a_widely_scaled_diagonal():
    # logged up to where the eigensolver resolves the small eigenvalue; the
    # reconstruction check's norm overflows past 1e154 and stays quiet
    for e in (10, 100, 200):
        X = q_log(np.diag([10.0**e, 10.0**-e]), Signature(1, 1))
        np.testing.assert_allclose(np.diagonal(X).real, [e * np.log(10), -e * np.log(10)], rtol=1e-14)
    # admissible, but eig returns 0 for 1e-250, which has no log
    with pytest.raises(NoConvergence, match="lost an eigenvalue"):
        q_log(np.diag([1e250, 1e-250]), Signature(1, 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_elements_follow_the_closed_form_at_every_scale():
    # [[r, n], [0, 1/r]] is admissible exactly when |n| < r - 1/r; from r = 10^4.25
    # eig loses the small eigenvalue of the formed sym(b), about 1/r^2, and may
    # return it <= 0, but the verdict reads only the certified shift and inertia
    rng = np.random.default_rng(24)
    sig = Signature(1, 1)
    for r in 10.0 ** np.arange(0.25, 50.125, 0.25):
        for f in (0.5, 0.9, 0.999, 0.999999, 1 + 1e-9, 1.000001, 1.001, 1.1, 2.0):
            b = Su11ANElement(r, f * (r - 1 / r) * np.exp(2j * np.pi * rng.random()))
            assert su11_an_admissible(b) == (f < 1)
            assert check_admissible_an(b.as_matrix(), sig).admissible == (f < 1), (r, f)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_widely_scaled_diagonals_are_certified_to_the_float_range():
    # diag(10^e, 10^-e) is admissible at every e > 0; eig returns 0 for the small
    # eigenvalue from e = 231 in Q and, of the squared sym(b), from e = 116 in AN
    sig = Signature(1, 1)
    for e in range(1, 308):
        assert check_admissible_q(np.diag([10.0**e, 10.0**-e]), sig).admissible, e
    for e in range(1, 155):
        assert check_admissible_an(np.diag([10.0**e, 10.0**-e]), sig).admissible, e
    with pytest.raises(NonFiniteInput):
        check_admissible_an(np.diag([1e155, 1e-155]), sig)  # sym(b) overflows


def _near_boundary_q(sig, rng, gap):
    """dagger(g) exp(d) g whose exponents have min(timelike) - max(spacelike) = gap."""
    d = rng.normal(0.0, 1.0, sig.n)
    d[: sig.p] += gap - (d[: sig.p].min() - d[sig.p :].max())
    d -= d.mean()
    g = random_g0(sig, rng, spread=1.0)
    return dagger(g, sig) @ np.diag(np.exp(d)).astype(complex) @ g


@pytest.mark.parametrize("gap", [-1.0, -1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2, 1.0])
def test_cone_certificate_never_contradicts_the_sampler(gap):
    # a certificate is a proof: where it holds, no sample can find a violation
    rng = np.random.default_rng(int(1e6 * abs(gap)) + (gap > 0))
    certified = 0
    for _ in range(40):
        sig = random_signature(rng, 6)
        s = _near_boundary_q(sig, rng, gap)
        if _quiet(_cone_certificate)(s, sig, DEFAULT_TOL):
            certified += 1
            assert _cone_search(s, sig, 2000, int(rng.integers(2**32)), DEFAULT_TOL)
    if gap < 0:
        assert certified == 0  # a gap violator maps a null vector off the cone: no certificate exists
    if gap >= 1e-2:
        assert certified == 40


def test_cone_certificate_agrees_with_the_sampler_on_the_selftest_generators():
    seeds = np.random.default_rng(8).integers(2**32, size=150)
    found = 0
    for (kind, sig, s, _), seed in zip(_draws(7, 150, n_max=6), seeds.tolist()):
        certified = _quiet(_cone_certificate)(s, sig, DEFAULT_TOL)
        assert certified == (kind != "nonadmissible_q")
        searched = _cone_search(s, sig, 2000, seed, DEFAULT_TOL)
        assert searched or not certified
        assert cone_preservation_check(s, sig, 2000, seed) == (certified or searched)
        found += not searched
    assert found > 0  # the sampler does catch violators, so the agreement is not vacuous
