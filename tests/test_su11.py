"""Closed-form 2x2 oracle: factorization and admissibility inequalities."""

import numpy as np
import pytest

from supq.admissible import check_admissible_an, check_admissible_q
from supq.errors import NotDecomposable
from supq.groups import random_g0
from supq.indefinite import Signature
from supq.iwasawa import decompose_gauss, decompose_gs
from supq.kernel import mat_exp
from supq.su11 import (
    Sl2Element,
    Su11ANElement,
    Su11QElement,
    su11_an_admissible,
    su11_decompose,
    su11_q_admissible,
)

SIG11 = Signature(1, 1)
E = np.e


# ---------------------------------------------------------------------------
# element validation


def test_sl2_determinant_validated():
    Sl2Element(2.0, 1.0, 1.0, 1.0)  # det 1
    with pytest.raises(ValueError):
        Sl2Element(2.0, 1.0, 1.0, 2.0)  # det 3


def test_q_element_invariant_validated():
    Su11QElement(2.0, 0.25, np.sqrt(0.5) * 1j)  # 0.5 + 0.5 = 1
    with pytest.raises(ValueError):
        Su11QElement(2.0, 0.5, 0.5)


def test_an_element_needs_positive_r():
    Su11ANElement(0.5, 1j)
    with pytest.raises(ValueError):
        Su11ANElement(-1.0, 0.0)
    with pytest.raises(ValueError):
        Su11ANElement(0.0, 0.0)


def test_matrix_round_trip():
    g = Sl2Element(2.0, 1.0 + 1j, 1.0 - 1j, 1.5)
    assert Sl2Element.from_matrix(g.as_matrix()) == g
    with pytest.raises(ValueError):
        Sl2Element.from_matrix(np.eye(3))


# ---------------------------------------------------------------------------
# factorization


def test_decompose_known_element():
    # [[2,1],[1,1]]: delta = sqrt(3)
    k, b = su11_decompose(Sl2Element(2.0, 1.0, 1.0, 1.0))
    sq3 = np.sqrt(3.0)
    assert k.a == pytest.approx(2 / sq3)
    assert k.b == pytest.approx(1 / sq3)
    assert k.c == pytest.approx(1 / sq3)
    assert k.d == pytest.approx(2 / sq3)
    assert b.r == pytest.approx(sq3)
    assert b.n == pytest.approx(1 / sq3)


def test_decompose_agrees_with_general_route():
    rng = np.random.default_rng(61)
    for _ in range(200):
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(a) ** 2 - abs(c) ** 2 < 1e-3:
            continue
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        g = Sl2Element(a, b, c, (1.0 + b * c) / a)
        k, tri = su11_decompose(g)
        pair = decompose_gauss(g.as_matrix(), SIG11)
        scale = np.linalg.norm(g.as_matrix())
        np.testing.assert_allclose(k.as_matrix(), pair.s, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(tri.as_matrix(), pair.b, rtol=0, atol=1e-10 * scale)


def test_triangular_entry_formula_equivalence():
    # (conj(a) b - conj(c) d) / delta equals (b - conj(c)/delta^2) delta / a:
    # two algebraic forms of the same entry, exercised away from a = 0
    rng = np.random.default_rng(67)
    for _ in range(20):
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(a) < 0.3:
            continue
        c = 0.5 * complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(a) ** 2 - abs(c) ** 2 < 1e-2:
            continue
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        d = (1.0 + b * c) / a
        delta2 = abs(a) ** 2 - abs(c) ** 2
        delta = np.sqrt(delta2)
        lhs = (np.conj(a) * b - np.conj(c) * d) / delta
        rhs = (b - np.conj(c) / delta2) * delta / a
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_decompose_rejects_wrong_cell():
    with pytest.raises(NotDecomposable) as exc_info:
        su11_decompose(Sl2Element(1.0, 0.0, 2.0, 1.0))
    assert exc_info.value.index == 1
    assert exc_info.value.kind == "wrong_cone"
    # boundary |a| = |c| is rejected the same way
    with pytest.raises(NotDecomposable):
        su11_decompose(Sl2Element(1.0, 0.5, 1.0, 1.5))


def _widely_scaled(e, rng):
    """(g, r, n): g = k [[r, n], [0, 1/r]] with r = 10^e and n = m / r, so det(g) = 1
    is formed without cancellation and |a|^2 - |c|^2 leaves the float range past |e| = 154."""
    r = 10.0**e
    n = complex(rng.standard_normal(), rng.standard_normal()) / r
    return Sl2Element.from_matrix(random_g0(SIG11, rng) @ np.array([[r, n], [0.0, 1.0 / r]])), r, n


@pytest.mark.parametrize("e", [-200, -100, 100, 200])
def test_closed_form_follows_the_routes_across_the_float_range(e):
    # no square is formed, so the oracle factors what the general routes factor;
    # the Gauss route squares g, so it is compared up to 1e+-100
    routes = [decompose_gs] + ([decompose_gauss] if abs(e) <= 100 else [])
    rng = np.random.default_rng(200 + e)
    for _ in range(20):
        g, r, n = _widely_scaled(e, rng)
        k, tri = su11_decompose(g)
        assert tri.r == pytest.approx(r, rel=1e-12) and tri.n == pytest.approx(n, rel=1e-12)
        for route in routes:
            pair = route(g.as_matrix(), SIG11)
            np.testing.assert_allclose(pair.s, k.as_matrix(), rtol=0, atol=1e-12 * abs(k.a))
            np.testing.assert_allclose(pair.b, tri.as_matrix(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("e", [-100, 100])
def test_an_inequality_agrees_with_the_general_check_at_scale(e):
    # sym(b) squares the scale, so the general check is compared up to 1e+-100
    rng = np.random.default_rng(300 + e)
    for _ in range(20):
        _, r, n = _widely_scaled(e, rng)
        b = Su11ANElement(r, n)
        assert su11_an_admissible(b) == (e > 0)
        assert check_admissible_an(b.as_matrix(), SIG11).admissible == su11_an_admissible(b)
    assert su11_an_admissible(Su11ANElement(1e200, 0.0))
    assert not su11_an_admissible(Su11ANElement(1e-200, 0.0))


def test_factorization_reconstructs():
    rng = np.random.default_rng(71)
    for _ in range(100):
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(a) ** 2 - abs(c) ** 2 < 1e-3:
            continue
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        g = Sl2Element(a, b, c, (1.0 + b * c) / a)
        k, tri = su11_decompose(g)
        prod = k.as_matrix() @ tri.as_matrix()
        np.testing.assert_allclose(
            prod, g.as_matrix(), rtol=0, atol=1e-12 * np.linalg.norm(g.as_matrix())
        )


# ---------------------------------------------------------------------------
# admissibility inequalities


def test_q_admissibility_examples():
    # diag(e, 1/e): t1 + t2 = e + 1/e > 2 and t1 = e > 1
    assert su11_q_admissible(Su11QElement(E, 1 / E, 0.0))
    # inverted diagonal fails the t1 > 1 half
    assert not su11_q_admissible(Su11QElement(1 / E, E, 0.0))
    # identity sits exactly on the boundary: strict inequalities fail
    assert not su11_q_admissible(Su11QElement(1.0, 1.0, 0.0))
    # trace below 2 (rotation-like) fails the trace half
    assert not su11_q_admissible(Su11QElement(0.5, 0.5, np.sqrt(0.75)))


def test_an_admissibility_examples():
    assert su11_an_admissible(Su11ANElement(E, 0.0))
    # r = 1 is never admissible, whatever n is
    assert not su11_an_admissible(Su11ANElement(1.0, 0.0))
    assert not su11_an_admissible(Su11ANElement(1.0, 3.0))
    # r < 1 fails even with n = 0
    assert not su11_an_admissible(Su11ANElement(0.5, 0.0))
    # n exactly on the boundary |n|^2 = r^2 + r^-2 - 2 fails strictly
    r = 2.0
    n_boundary = np.sqrt(r**2 + r**-2 - 2.0)
    assert not su11_an_admissible(Su11ANElement(r, n_boundary))
    assert su11_an_admissible(Su11ANElement(r, 0.99 * n_boundary))


def test_q_admissibility_matches_general_check():
    rng = np.random.default_rng(73)
    checked = 0
    for _ in range(300):
        m = complex(0.6 * (rng.standard_normal() + 1j * rng.standard_normal()))
        t1 = float(np.exp(rng.normal(0.0, 0.7)))
        t2 = (1.0 - abs(m) ** 2) / t1
        s = Su11QElement(t1, t2, m)
        # stay away from the boundary where double precision cannot decide
        if abs(t1 + t2 - 2.0) < 1e-6 or abs(t1 - 1.0) < 1e-6:
            continue
        report = check_admissible_q(s.as_matrix(), SIG11)
        assert report.admissible == su11_q_admissible(s)
        checked += 1
    assert checked > 200


def test_q_cone_from_lie_algebra():
    # X = [[z, x + iy], [-(x - iy), -z]] is traceless and dagger-fixed;
    # exp(X) is admissible exactly when z > sqrt(x^2 + y^2)
    rng = np.random.default_rng(79)
    checked = 0
    for _ in range(300):
        x, y, z = rng.normal(0.0, 0.8, 3)
        w = complex(x, y)
        X = np.array([[z, w], [-np.conj(w), -z]], dtype=np.complex128)
        margin = z - np.hypot(x, y)
        if abs(margin) < 1e-6:
            continue
        s = mat_exp(X)
        report = check_admissible_q(s, SIG11)
        assert report.admissible == (margin > 0)
        checked += 1
    assert checked > 250
