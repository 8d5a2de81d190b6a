"""Decomposition routes, the dressing action, symmetrization, the Q logarithm."""

import re
import sys

import numpy as np
import pytest

from supq import admissible, groups, iwasawa, kernel
from supq.admissible import check_admissible_an, check_admissible_q
from supq.errors import (
    NoConvergence,
    NonFiniteInput,
    NotAdmissible,
    NotDecomposable,
    NotInAN,
    NotInG,
    NotInG0,
    NotInQ,
    SingularMinor,
    WrongInertia,
)
from supq.groups import GroupTag, is_member, random_an, random_g0
from supq.indefinite import Signature, dagger, norm_sq, pairing
from supq.iwasawa import (
    decompose_g_admissible,
    decompose_gauss,
    decompose_gs,
    dress,
    q_log,
    sym,
)
from supq.kernel import mat_exp
from supq.selftest import (
    random_admissible_an,
    random_admissible_q,
    random_cell_crossed,
    random_decomposable,
)

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)

E = np.e
SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)

BOTH_ROUTES = pytest.mark.parametrize(
    "decompose", [decompose_gauss, decompose_gs], ids=["gauss", "gs"]
)


# ---------------------------------------------------------------------------
# symmetrization


def test_sym_identity():
    np.testing.assert_array_equal(sym(np.eye(2), SIG11), np.eye(2))


def test_sym_squares_a_real_diagonal():
    b = np.diag([E, 1 / E]).astype(complex)
    np.testing.assert_allclose(sym(b, SIG11), np.diag([E**2, E**-2]), rtol=1e-14)


def test_sym_known_triangular():
    b = np.array([[SQ2, 0.5], [0, 1 / SQ2]], dtype=complex)
    expected = np.array([[2.0, 1 / SQ2], [-1 / SQ2, 0.25]])
    np.testing.assert_allclose(sym(b, SIG11), expected, rtol=1e-14, atol=1e-15)


def test_sym_rejects_non_triangular():
    with pytest.raises(NotInAN):
        sym(np.array([[0, 1], [-1, 0]]), SIG11)


def test_sym_lands_in_q():
    rng = np.random.default_rng(11)
    for _ in range(100):
        sig = Signature(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        b = random_an(sig, int(rng.integers(2**32)), spread=0.8)
        assert is_member(sym(b, sig), GroupTag.Q, sig, 1e-8)


# ---------------------------------------------------------------------------
# the two decomposition routes: fixed points


@BOTH_ROUTES
def test_decompose_identity(decompose):
    pair = decompose(np.eye(2), SIG11)
    np.testing.assert_allclose(pair.s, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(pair.b, np.eye(2), atol=1e-14)
    assert pair.residual <= 1e-14


@BOTH_ROUTES
def test_decompose_triangular_input_is_its_own_factor(decompose):
    rng = np.random.default_rng(13)
    for _ in range(50):
        sig = Signature(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        b = random_an(sig, int(rng.integers(2**32)), spread=0.7)
        pair = decompose(b, sig)
        np.testing.assert_allclose(pair.s, np.eye(sig.n), atol=1e-9)
        np.testing.assert_allclose(pair.b, b, rtol=0, atol=1e-9 * np.linalg.norm(b))


@BOTH_ROUTES
def test_decompose_pseudo_unitary_input_is_its_own_factor(decompose):
    rng = np.random.default_rng(17)
    for _ in range(50):
        sig = Signature(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        g = random_g0(sig, int(rng.integers(2**32)), spread=0.7)
        pair = decompose(g, sig)
        np.testing.assert_allclose(pair.b, np.eye(sig.n), atol=1e-8 * np.linalg.norm(g))
        np.testing.assert_allclose(pair.s, g, rtol=0, atol=1e-8 * np.linalg.norm(g))


# ---------------------------------------------------------------------------
# a decomposition worked out in closed form: trace 3, det 1
#   [[2,1],[1,1]] = (1/sqrt3)[[2,1],[1,2]] @ [[sqrt3, 1/sqrt3],[0, 1/sqrt3]]


@BOTH_ROUTES
def test_decompose_known_element(decompose):
    g = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    pair = decompose(g, SIG11)
    s_exp = np.array([[2.0, 1.0], [1.0, 2.0]]) / SQ3
    b_exp = np.array([[SQ3, 1 / SQ3], [0.0, 1 / SQ3]])
    np.testing.assert_allclose(pair.s, s_exp, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(pair.b, b_exp, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(pair.a, [SQ3, 1 / SQ3], rtol=1e-13)
    np.testing.assert_allclose(pair.n_factor, [[1.0, 1.0 / 3.0], [0.0, 1.0]], rtol=1e-13)
    assert pair.residual <= 1e-13


@BOTH_ROUTES
def test_decomposition_invariants(decompose):
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        g = random_decomposable(sig, rng)
        pair = decompose(g, sig)
        scale = max(1.0, np.linalg.norm(g))
        # reconstruction and factor memberships
        assert pair.residual <= 1e-9 * scale
        assert is_member(pair.s, GroupTag.G0, sig, 1e-7)
        assert is_member(pair.b, GroupTag.AN, sig, 1e-9)
        # b = diag(a) @ n with positive real a and unit triangular n
        assert np.all(pair.a.real > 0) and np.all(np.abs(pair.a.imag) == 0)
        np.testing.assert_array_equal(np.diag(pair.n_factor), np.ones(n))
        np.testing.assert_allclose(
            pair.a[:, None] * pair.n_factor, pair.b, rtol=0, atol=1e-12 * scale
        )


def test_routes_agree():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        g = random_decomposable(sig, rng)
        p1 = decompose_gauss(g, sig)
        p2 = decompose_gs(g, sig)
        scale = max(1.0, np.linalg.norm(g))
        np.testing.assert_allclose(p1.b, p2.b, rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(p1.s, p2.s, rtol=0, atol=1e-8 * scale)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_routes_agree_at_large_sizes(n):
    rng = np.random.default_rng(n)
    for _ in range(30):
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        g = random_decomposable(sig, rng)
        p1 = decompose_gauss(g, sig)
        p2 = decompose_gs(g, sig)
        scale = max(1.0, np.linalg.norm(g))
        assert p2.residual <= 1e-9 * scale
        assert is_member(p2.s, GroupTag.G0, sig, 1e-7)
        np.testing.assert_allclose(p1.b, p2.b, rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(p1.s, p2.s, rtol=0, atol=1e-8 * scale)


# ---------------------------------------------------------------------------
# failure taxonomy


def test_wrong_cell_element_raises_on_both_routes():
    # first column has negative indefinite length: outside the identity cell
    g = np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(WrongInertia) as exc_info:
        decompose_gauss(g, SIG11)
    assert exc_info.value.index == 1
    assert exc_info.value.kind == "wrong_inertia"
    with pytest.raises(NotDecomposable) as exc_info:
        decompose_gs(g, SIG11)
    assert exc_info.value.index == 1
    assert exc_info.value.kind == "wrong_cone"


def test_boundary_element_raises_on_both_routes():
    # first column is null: det 1 but the leading minor of the Gram vanishes
    g = np.array([[1.0, 0.5], [1.0, 1.5]], dtype=complex)
    with pytest.raises(SingularMinor) as exc_info:
        decompose_gauss(g, SIG11)
    assert exc_info.value.index == 1
    assert exc_info.value.kind == "singular_minor"
    with pytest.raises(NotDecomposable) as exc_info:
        decompose_gs(g, SIG11)
    assert exc_info.value.index == 1
    assert exc_info.value.kind == "null_boundary"


def test_cell_crossed_pivot_is_located():
    # both routes report the exact pivot where the inertia flips, also when
    # the bad block is hidden inside benign cosets
    rng = np.random.default_rng(29)
    for _ in range(100):
        M, sig, pivot = random_cell_crossed(rng)
        with pytest.raises(WrongInertia) as exc_info:
            decompose_gauss(M, sig)
        assert exc_info.value.index == pivot
        with pytest.raises(NotDecomposable) as exc_info:
            decompose_gs(M, sig)
        assert exc_info.value.index == pivot
        assert exc_info.value.kind in {"wrong_cone", "null_boundary"}


def test_decompose_rejects_non_unimodular():
    with pytest.raises(NotInG):
        decompose_gauss(2.0 * np.eye(2), SIG11)
    with pytest.raises(NotInG):
        decompose_gs(2.0 * np.eye(2), SIG11)


# Every membership-gated call, with the set error a 3x3 input raises at n = 2.
WRONG_SIZE = {
    "decompose_gauss": (NotInG, lambda M: decompose_gauss(M, SIG11)),
    "decompose_gs": (NotInG, lambda M: decompose_gs(M, SIG11)),
    "decompose_g_admissible": (NotInG, lambda M: decompose_g_admissible(M, SIG11)),
    "sym": (NotInAN, lambda M: sym(M, SIG11)),
    "dress_b": (NotInAN, lambda M: dress(M, np.eye(2), SIG11)),
    "dress_g": (NotInG0, lambda M: dress(np.eye(2), M, SIG11)),
    "q_log": (NotInQ, lambda M: q_log(M, SIG11)),
    "check_admissible_q": (NotInQ, lambda M: check_admissible_q(M, SIG11)),
    "check_admissible_an": (NotInAN, lambda M: check_admissible_an(M, SIG11)),
}


@pytest.mark.parametrize("name", sorted(WRONG_SIZE))
def test_decompose_rejects_wrong_size(name):
    error, call = WRONG_SIZE[name]
    with pytest.raises(error, match="matrix of size 3 does not match n=2"):
        call(np.eye(3))


def test_gauss_factors_at_zero_tolerance():
    # J dagger(g) g is Hermitian only to roundoff; at tol = 0 the Gauss
    # route factors it all the same and agrees with Gram-Schmidt
    g = random_decomposable(SIG11, np.random.default_rng(5))
    jh = SIG11.j_diag[:, None] * (dagger(g, SIG11) @ g)
    assert np.linalg.norm(jh - jh.conj().T) > 0.0
    gauss = decompose_gauss(g, SIG11, tol=0.0)
    gs = decompose_gs(g, SIG11, tol=0.0)
    assert np.linalg.norm(gauss.b - gs.b) <= 1e-12 * np.linalg.norm(gs.b)
    assert np.linalg.norm(gauss.s - gs.s) <= 1e-12 * np.linalg.norm(gs.s)


def test_gauss_at_zero_tolerance_reports_wrong_inertia():
    g, sig, pivot = random_cell_crossed(np.random.default_rng(117))
    with pytest.raises(WrongInertia) as exc:
        decompose_gauss(g, sig, tol=0.0)
    assert exc.value.index == pivot


def test_overflowing_gram_matrix_is_non_finite_input():
    # det(g) = 1, but the entries of dagger(g) g overflow to inf
    g = np.eye(2, dtype=complex)
    g[1, 0] = 1e154 * (1 + 1j)
    with pytest.raises(NonFiniteInput), np.errstate(over="ignore", invalid="ignore"):
        decompose_gauss(g, SIG11)


def test_overflowing_symmetrization_is_non_finite_input():
    # b is in AN, but dagger(b) b overflows to inf and nan
    b = np.array([[1e4, 2e154, 0], [0, 1e-2, 0], [0, 0, 1e-2]], dtype=complex)
    for call in (sym, check_admissible_an):
        with pytest.raises(NonFiniteInput, match="^matrix contains NaN or Inf entries$"), \
                np.errstate(over="ignore", invalid="ignore"):
            call(b, SIG21)


def test_gs_factors_an_element_whose_column_norms_overflow():
    # the squared norm of column 1 overflows and that of column 2 underflows;
    # the Gauss route's dagger(g) g overflows and stays NonFiniteInput
    g = np.diag([1e170, 1e-170]).astype(complex)
    pair = decompose_gs(g, SIG11)
    np.testing.assert_array_equal(pair.s, np.eye(2))
    np.testing.assert_array_equal(pair.b, g)
    with pytest.raises(NonFiniteInput), np.errstate(over="ignore", invalid="ignore"):
        decompose_gauss(g, SIG11)
    # det(h) = 1, but b_11 = sqrt(2) * 1.5e308 exceeds the float range
    h = np.array([[1.5e308, 0, 0], [1.5e308, 1 / 1.5e308, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(NonFiniteInput, match="column 1"):
        decompose_gs(h, SIG21)


def test_residual_of_a_factorization_past_the_squared_float_range_is_finite():
    # boost . diag(1e300, 1e-300) factors with b ~ 1e300; the plain sum of
    # squares of g - s b overflows, its rescaled norm does not
    t = 0.5
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex)
    g = boost @ np.diag([1e300, 1e-300])
    with np.errstate(over="ignore"):
        pair = decompose_gs(g, SIG11)
    np.testing.assert_allclose(pair.s, boost, rtol=1e-12)
    assert np.isfinite(pair.residual)
    assert pair.residual <= 1e-12 * 1e300


def test_widely_scaled_triangular_element_is_its_own_factor():
    # signed_ldl certifies a_3 = 1e-4; the back-substitution must not reject
    # it a second time for being small next to ||b||_F = 1e5
    g = np.diag([1e5, 1e-1, 1e-4]).astype(complex)
    for pair in (decompose_gauss(g, SIG21), decompose_gs(g, SIG21)):
        np.testing.assert_array_equal(pair.s, np.eye(3))
        np.testing.assert_array_equal(pair.b, g)
    out = dress(g, np.eye(3), SIG21)
    np.testing.assert_array_equal(out.g_prime, np.eye(3))
    np.testing.assert_array_equal(out.b_prime, g)
    s, b, spectrum = decompose_g_admissible(g, SIG21)
    np.testing.assert_array_equal(b, g)
    np.testing.assert_allclose(spectrum, [1e5, 1e-1, 1e-4], rtol=1e-12)


def test_unitary_check_reports_the_worst_column(monkeypatch):
    # scaling pivot 3 by 1.01 scales column 3 of s by 1/sqrt(1.01), which
    # leaves a defect of 1 - 1/1.01 in entry (3, 3) of dagger(s) s - I
    real_ldl = iwasawa._signed_ldl

    def perturbed_ldl(H, tol):
        L, d = real_ldl(H, tol)
        d[2] *= 1.01
        return L, d

    monkeypatch.setattr(iwasawa, "_signed_ldl", perturbed_ldl)
    sig = Signature(2, 2)
    g = random_decomposable(sig, np.random.default_rng(61))
    with pytest.raises(NotDecomposable) as exc_info:
        decompose_gauss(g, sig)
    assert exc_info.value.kind == "unitary_check"
    assert exc_info.value.index == 3
    assert re.search(r"defect 9\.90\de-03 > \d\.\d{3}e-\d\d", str(exc_info.value))


# Determinant windows (the SVD + LU of groups._det_is_one),
# eigendecompositions and kernel.as_cmatrix conversions per public call at
# n = 4: each input is converted and validated once, and no intermediate the
# library built is validated again, except where eig and mat_exp re-check
# their argument (dagger(b) b can overflow; their check reports that).
VALIDATION_BUDGET = {
    "dress": (2, 0, 2),
    "decompose_gauss": (1, 0, 1),
    "decompose_gs": (1, 0, 1),
    "sym": (1, 0, 1),
    "check_admissible_an": (1, 1, 2),
    "check_admissible_q": (1, 1, 2),
    "decompose_g_admissible": (1, 1, 2),
    "q_log": (1, 1, 3),
}


@pytest.mark.parametrize("name", sorted(VALIDATION_BUDGET))
def test_public_calls_validate_once(monkeypatch, name):
    sig = Signature(2, 2)
    rng = np.random.default_rng(67)
    b = random_admissible_an(sig, rng, gap=0.1, spread=0.7)
    g0 = random_g0(sig, rng, spread=0.7)
    g = random_decomposable(sig, rng, gap=0.1)
    s = random_admissible_q(sig, rng, gap=0.1, spread=0.7)
    calls = {
        "dress": lambda: dress(b, g0, sig),
        "decompose_gauss": lambda: decompose_gauss(g, sig),
        "decompose_gs": lambda: decompose_gs(g, sig),
        "sym": lambda: sym(b, sig),
        "check_admissible_an": lambda: check_admissible_an(b, sig),
        "check_admissible_q": lambda: check_admissible_q(s, sig),
        "decompose_g_admissible": lambda: decompose_g_admissible(g, sig),
        "q_log": lambda: q_log(s, sig),
    }
    counts = {"det": 0, "eig": 0, "as_cmatrix": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(groups, "_det_is_one", counting("det", groups._det_is_one))
    counted_eig = counting("eig", iwasawa.eig)
    monkeypatch.setattr(iwasawa, "eig", counted_eig)
    monkeypatch.setattr(admissible, "eig", counted_eig)
    as_cmatrix = kernel.as_cmatrix
    counted_as_cmatrix = counting("as_cmatrix", as_cmatrix)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "supq" and getattr(module, "as_cmatrix", None) is as_cmatrix:
            monkeypatch.setattr(module, "as_cmatrix", counted_as_cmatrix)
    calls[name]()
    assert (counts["det"], counts["eig"], counts["as_cmatrix"]) == VALIDATION_BUDGET[name]


# ---------------------------------------------------------------------------
# dressing action


def test_dress_by_identity_triangular():
    g = random_g0(SIG11, 31, spread=0.8)
    out = dress(np.eye(2), g, SIG11)
    np.testing.assert_allclose(out.g_prime, g, atol=1e-12)
    np.testing.assert_allclose(out.b_prime, np.eye(2), atol=1e-12)


def test_dress_of_identity_group_element():
    b = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
    out = dress(b, np.eye(2), SIG11)
    np.testing.assert_allclose(out.g_prime, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(out.b_prime, b, atol=1e-12)


def test_dress_known_pair():
    # b = diag(e, 1/e) acting on the pseudo-unitary [[sqrt2, 1], [1, sqrt2]]
    b = np.diag([E, 1 / E]).astype(complex)
    g = np.array([[SQ2, 1.0], [1.0, SQ2]], dtype=complex)
    out = dress(b, g, SIG11)
    delta = np.sqrt(2 * E**2 - E**-2)
    g_exp = np.array([[SQ2 * E, 1 / E], [1 / E, SQ2 * E]]) / delta
    b_exp = np.array([[delta, SQ2 * (E**2 - E**-2) / delta], [0.0, 1 / delta]])
    np.testing.assert_allclose(out.g_prime, g_exp, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(out.b_prime, b_exp, rtol=1e-13, atol=1e-14)


def test_dress_factorizes_the_product():
    rng = np.random.default_rng(37)
    for _ in range(50):
        sig = Signature(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        b = random_an(sig, int(rng.integers(2**32)), spread=0.6)
        g = random_g0(sig, int(rng.integers(2**32)), spread=0.6)
        try:
            out = dress(b, g, sig)
        except NotDecomposable:
            continue  # a non-admissible b may push bg out of the cell
        prod = b @ g
        np.testing.assert_allclose(
            out.g_prime @ out.b_prime, prod, rtol=0, atol=1e-9 * np.linalg.norm(prod)
        )
        assert out.residual == float(np.linalg.norm(prod - out.g_prime @ out.b_prime))
        assert is_member(out.g_prime, GroupTag.G0, sig, 1e-7)
        assert is_member(out.b_prime, GroupTag.AN, sig, 1e-9)


def test_dress_preconditions():
    g = random_g0(SIG11, 41, spread=0.5)
    with pytest.raises(NotInAN):
        dress(g, g, SIG11)  # first slot must be triangular
    b = np.diag([2.0, 0.5]).astype(complex)
    with pytest.raises(NotInG0):
        dress(b, b, SIG11)  # second slot must be pseudo-unitary


def test_sym_spectrum_is_a_dressing_invariant():
    # b g = g' b' implies sym(b') = dagger(g) sym(b) g: same spectrum
    rng = np.random.default_rng(43)
    for _ in range(50):
        sig = Signature(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        b = random_admissible_an(sig, rng, gap=0.1, spread=0.7)
        g = random_g0(sig, int(rng.integers(2**32)), spread=0.7)
        out = dress(b, g, sig)
        w_before = np.sort(np.linalg.eigvals(sym(b, sig)).real)
        w_after = np.sort(np.linalg.eigvals(sym(out.b_prime, sig)).real)
        np.testing.assert_allclose(w_after, w_before, rtol=1e-8)


# ---------------------------------------------------------------------------
# logarithm of admissible dagger-fixed elements


def test_q_log_diagonal():
    X = q_log(np.diag([E, 1 / E]).astype(complex), SIG11)
    np.testing.assert_allclose(X, np.diag([1.0, -1.0]), rtol=0, atol=1e-12)


def test_q_log_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(50):
        sig = Signature(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        s = random_admissible_q(sig, rng, gap=0.1, spread=0.7)
        X = q_log(s, sig)
        assert abs(np.trace(X)) <= 1e-9
        np.testing.assert_allclose(X, dagger(X, sig), rtol=0, atol=1e-9 * np.linalg.norm(X))
        np.testing.assert_allclose(mat_exp(X), s, rtol=0, atol=1e-9 * np.linalg.norm(s))


def test_q_log_rejects_identity_with_report():
    with pytest.raises(NotAdmissible) as exc_info:
        q_log(np.eye(2), SIG11)
    assert exc_info.value.report is not None
    assert exc_info.value.report.reason == "gap violated"


def test_q_log_reports_a_missed_reconstruction(monkeypatch):
    monkeypatch.setattr(iwasawa, "mat_exp", lambda X: 2.0 * np.eye(X.shape[0]))
    with pytest.raises(NoConvergence, match="log reconstruction defect"):
        q_log(np.diag([E, 1 / E]).astype(complex), SIG11)


def test_q_log_rejects_non_q():
    with pytest.raises(NotInQ):
        q_log(np.array([[1, 1], [0, 1]]), SIG11)


# ---------------------------------------------------------------------------
# admissible factorization of a general element


def test_decompose_g_admissible_diagonal():
    g = np.diag([E, 1 / E]).astype(complex)
    s, b, spectrum = decompose_g_admissible(g, SIG11)
    np.testing.assert_allclose(s, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(b, g, rtol=1e-12)
    np.testing.assert_allclose(spectrum, [E, 1 / E], rtol=1e-12)


def test_decompose_g_admissible_spectrum_is_descending_positive():
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        g = random_decomposable(sig, rng, gap=0.1)
        s, b, spectrum = decompose_g_admissible(g, sig)
        assert np.all(spectrum > 0)
        assert np.all(np.diff(spectrum) <= 1e-12)
        np.testing.assert_allclose(s @ b, g, rtol=0, atol=1e-9 * np.linalg.norm(g))


def test_decompose_g_admissible_rejects_identity():
    with pytest.raises(NotAdmissible) as exc_info:
        decompose_g_admissible(np.eye(2), SIG11)
    assert exc_info.value.report.reason == "gap violated"


def test_decompose_g_admissible_rejects_wrong_cell():
    with pytest.raises(NotDecomposable):
        decompose_g_admissible(np.array([[1.0, 0.0], [2.0, 1.0]]), SIG11)


# ---------------------------------------------------------------------------
# the leading columns of a decomposable element satisfy a strict
# Cauchy-Schwarz-type inequality in the indefinite pairing


def test_decomposable_columns_dominate_their_cross_pairing():
    rng = np.random.default_rng(59)
    for _ in range(100):
        g = random_decomposable(SIG21, rng)
        v1, v2 = g[:, 0], g[:, 1]
        n1, n2 = norm_sq(v1, SIG21), norm_sq(v2, SIG21)
        cross = pairing(v2, v1, SIG21)
        assert n1 > 0
        assert n1 * n2 > abs(cross) ** 2


def test_gs_factor_of_a_widely_scaled_diagonal_is_in_an():
    # the diagonal test of AN is relative to each entry, so a factor with
    # b_22 = 1e-10 is the library's own, and sym accepts it
    g = np.diag([1e10, 1e-10]).astype(complex)
    b = decompose_gs(g, SIG11).b
    np.testing.assert_array_equal(b, g)
    np.testing.assert_allclose(sym(b, SIG11), np.diag([1e20, 1e-20]), rtol=1e-15, atol=0)
