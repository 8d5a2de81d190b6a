"""Decomposition routes, the dressing action, symmetrization, the Q logarithm."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supq import admissible, groups, iwasawa, kernel
from supq.admissible import check_admissible_an, check_admissible_q, is_admissible_diag
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
from supq.groups import GroupTag, is_member, random_admissible_diag, random_an, random_g0
from supq.indefinite import Signature, dagger, norm_sq, pairing
from supq.iwasawa import (
    decompose_g_admissible,
    decompose_gauss,
    decompose_gs,
    dress,
    q_log,
    sym,
)
from supq.kernel import DEFAULT_TOL, _frobenius, mat_exp
from supq.selftest import (
    random_admissible_an,
    random_admissible_q,
    random_cell_crossed,
    random_decomposable,
    random_signature,
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


def test_gs_column_verdict_is_the_cone_classifier():
    # the column loop reads classify's verdict on each residual, except that
    # a zero residual (which classify refuses) names the boundary
    with pytest.raises(NotDecomposable) as exc_info:
        iwasawa._gs_step(np.zeros((2, 2), complex), SIG11, DEFAULT_TOL)
    assert (exc_info.value.kind, exc_info.value.index) == ("null_boundary", 1)
    R = np.eye(2, dtype=complex)
    R[1, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="vector contains NaN or Inf entries"):
        iwasawa._gs_step(R, SIG11, DEFAULT_TOL)


def test_gs_reads_its_input_and_returns_a_fresh_contiguous_s():
    rng = np.random.default_rng(27)
    for n in (2, 5, 16, 32):
        sig = Signature(n // 2, n - n // 2)
        g = random_decomposable(sig, rng)
        for R in (g, np.asfortranarray(g)):
            before = R.tobytes()
            s, _ = iwasawa._gs_step(R, sig, DEFAULT_TOL)
            assert R.tobytes() == before
            assert s.flags.c_contiguous and not np.shares_memory(s, R)
            pair = decompose_gs(R, sig)
            assert R.tobytes() == before
            assert pair.s.flags.c_contiguous


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


def _cell_boundary(rng, delta):
    """An element of SL(n, C), 3 <= n <= 6, hiding a 2x2 block with |a| = (1 + delta) |c|
    that bridges a timelike and a spacelike index: decomposable exactly when delta > 0."""
    n = int(rng.integers(3, 7))
    p = int(rng.integers(1, n))
    sig = Signature(p, n - p)
    c = complex(rng.standard_normal() + 1j * rng.standard_normal())
    a = (1 + delta) * abs(c) * np.exp(2j * np.pi * rng.random())
    b = complex(rng.standard_normal() + 1j * rng.standard_normal())
    i0, j0 = int(rng.integers(0, p)), int(rng.integers(p, n))
    E = np.eye(n, dtype=complex)
    E[i0, i0], E[i0, j0], E[j0, i0], E[j0, j0] = a, b, c, (1.0 + b * c) / a
    return random_g0(sig, rng, 0.5) @ E @ random_an(sig, rng, 0.5), sig


@pytest.mark.parametrize("delta", [1e-9, 1e-11, 1e-13, 1e-15, -1e-15, -1e-13, -1e-11, -1e-9])
def test_gs_null_test_at_tol_never_misnames_a_boundary_element(delta):
    # GS judges a residual null at tol, not at the rounding bound: at the rounding
    # bound it names decomposable elements with delta = 1e-11..1e-13 wrong_cone
    rng = np.random.default_rng(int(-np.log10(abs(delta))) + (delta > 0))
    for _ in range(200):
        g, sig = _cell_boundary(rng, delta)
        try:
            decompose_gs(g, sig)
        except NotDecomposable as exc:
            assert delta < 0 or exc.kind != "wrong_cone"
        else:
            assert delta > 0


# det-1 rescaling of P diag(sqrt|d|) L* in SU(1,2), with L = [[1, 0, 0],
# [0.5, 1, 0], [0.25, 0.5, 1]], d = (-1, 1, -1e-13) and P swapping rows 1
# and 2: pivot 1 has the wrong sign, pivot 3 is singular to tolerance.
WRONG_SIGN_BEFORE_SINGULAR = np.array([
    [0, -146.77992676220697, -73.38996338110348],
    [-146.77992676220697, -73.38996338110348, -36.69498169055174],
    [0, 0, -4.641588833612779e-05],
])


def test_first_obstruction_is_named_by_both_routes():
    # the first pivot, in order, that breaks the factorization is named,
    # not a later near-singular one
    sig = Signature(1, 2)
    with pytest.raises(WrongInertia) as exc:
        decompose_gauss(WRONG_SIGN_BEFORE_SINGULAR, sig)
    assert exc.value.index == 1
    with pytest.raises(NotDecomposable) as exc:
        decompose_gs(WRONG_SIGN_BEFORE_SINGULAR, sig)
    assert (exc.value.kind, exc.value.index) == ("wrong_cone", 1)


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


def _cell_crossed(sig, rng):
    """A 2x2 block with |a| < |c| bridging a timelike and a spacelike index
    (the construction of random_cell_crossed, at any size), between benign cosets."""
    a = complex(0.7 * (rng.standard_normal() + 1j * rng.standard_normal()))
    c = (abs(a) + 0.3 + abs(rng.standard_normal())) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    b = complex(rng.standard_normal() + 1j * rng.standard_normal())
    i0, j0 = int(rng.integers(0, sig.p)), int(rng.integers(sig.p, sig.n))
    E = np.eye(sig.n, dtype=complex)
    E[i0, i0], E[i0, j0], E[j0, i0], E[j0, j0] = a, b, c, (1.0 + b * c) / a
    return random_g0(sig, rng, 0.5) @ E @ random_an(sig, rng, 0.5)


def _near_boundary(sig, rng):
    """det-1 ``diag(sqrt|d|) L*`` with the pivot signs J forces and a last pivot
    about 1.5e-10 times its cancellation scale: singular at tol 1e-9 and up,
    with every earlier pivot of the right sign."""
    n = sig.n
    L = np.eye(n) + np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1) / n
    d = np.where(np.arange(n) < sig.p, 1.0, -1.0) * rng.uniform(0.5, 2.0, n)
    d[-1] = -3e-10 * np.sum(np.abs(L[-1, :-1]) ** 2 * np.abs(d[:-1]))
    b = np.sqrt(np.abs(d))[:, None] * L.conj().T
    return b / np.prod(np.sqrt(np.abs(d))) ** (1.0 / n)


def _loop_factor(jh, p, tol):
    """The reference factor sqrt|d| L* of the signed LDL* loop, or the
    (type, index) of its first obstruction in order: a pivot with the wrong
    sign before the first one that does not clear tol, else that one."""
    L, d, cancels = kernel._quiet(kernel._signed_ldl)(jh)  # as under the public call that reaches it
    singular = np.flatnonzero(~kernel._pivot_clears(d, cancels, tol))
    stop = int(singular[0]) + 1 if singular.size else d.size + 1
    wrong = np.flatnonzero((d > 0) != (np.arange(d.size) < p))
    if wrong.size and wrong[0] + 1 < stop:
        return None, (WrongInertia, int(wrong[0]) + 1)
    if stop <= d.size:
        return None, (SingularMinor, stop)
    return np.sqrt(np.abs(d))[:, None] * L.conj().T, None


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6, 1e-3])
def test_j_cholesky_matches_the_signed_ldl_loop(tol):
    # the blocked J-Cholesky accepts exactly what the loop accepts, with the
    # same factor; on a refusal the Gauss route names the loop's refusal
    rng = np.random.default_rng(1609)
    draws = {
        "decomposable": lambda sig: random_decomposable(sig, rng),
        "cell_crossed": lambda sig: _cell_crossed(sig, rng),
        "far": lambda sig: random_an(sig, rng, 1.0) @ random_g0(sig, rng, 8.0),
        "near_boundary": lambda sig: _near_boundary(sig, rng),
    }
    seen, blocks = set(), set()
    for n in range(2, 33):
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        for kind, draw in draws.items():
            g = draw(sig)
            jh = g.conj().T @ sig.J @ g
            b = kernel._quiet(kernel._j_cholesky)(jh, p, tol)  # as under the public call that reaches it
            ref, refusal = _loop_factor(jh, p, tol)
            assert (b is None) == (ref is None), (kind, n, p)
            if ref is not None:
                assert np.linalg.norm(b - ref) <= 1e-10 * np.linalg.norm(ref), (kind, n, p)
                seen.add("accepted")
            else:
                seen.add(refusal[0])
                blocks.add("first" if refusal[1] <= p else "Schur")
            # the route judges its pivots at the rounding bound, whatever tol is
            ref, refusal = _loop_factor(jh, p, kernel._rounding_bound(n))
            if ref is None:
                with pytest.raises(refusal[0]) as exc:
                    kernel._quiet(iwasawa._gauss)(g, sig, tol)
                assert exc.value.index == refusal[1], (kind, n, p)
    # at tol = 0 only an exactly vanishing pivot is singular
    assert seen == {"accepted", WrongInertia} | ({SingularMinor} if tol > 0 else set())
    # both blocks refuse: cell_crossed in the first at every tol, near_boundary
    # in the Schur block at tol > 0.  A Schur pivot cannot have the wrong sign
    # after p right ones (In(J h) = (p, q)), so at tol 0 it would need an
    # exactly vanishing pivot, which _loop_factor cannot take.
    assert blocks == ({"first", "Schur"} if tol > 0 else {"first"})


def test_overflowing_gram_matrix_is_non_finite_input():
    # det(g) = 1, but the entries of dagger(g) g overflow to inf
    g = np.eye(2, dtype=complex)
    g[1, 0] = 1e154 * (1 + 1j)
    with pytest.raises(NonFiniteInput):
        decompose_gauss(g, SIG11)


def test_overflowing_symmetrization_is_non_finite_input():
    # b is in AN, but dagger(b) b overflows to inf and nan
    b = np.array([[1e4, 2e154, 0], [0, 1e-2, 0], [0, 0, 1e-2]], dtype=complex)
    for call in (sym, check_admissible_an):
        with pytest.raises(NonFiniteInput, match="^matrix contains NaN or Inf entries$"):
            call(b, SIG21)


def test_gs_factors_an_element_whose_column_norms_overflow():
    # the squared norm of column 1 overflows and that of column 2 underflows;
    # the Gauss route's dagger(g) g overflows and stays NonFiniteInput
    g = np.diag([1e170, 1e-170]).astype(complex)
    pair = decompose_gs(g, SIG11)
    np.testing.assert_array_equal(pair.s, np.eye(2))
    np.testing.assert_array_equal(pair.b, g)
    with pytest.raises(NonFiniteInput):
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


@st.composite
def _unit_diagonals(draw):
    """(p, q, a): an element a of A, n <= 8, whose entries' log10 reach +-100."""
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, n - 1))
    e = np.array(draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
    e -= e.mean()
    e *= min(1.0, 100.0 / max(np.abs(e).max(), 1.0))
    return p, n - p, np.diag(10.0**e).astype(complex)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_unit_diagonals())
def test_elements_of_a_are_their_own_factor_at_every_scale(case):
    # A is closed under scaling, so g = I a is the factorization of each of
    # its elements wherever its entries sit in the float range.  (The N
    # factor is left out: with a large a_1 n_12 the pivots of dagger(b) J b
    # cancel catastrophically in double precision.)
    p, q, a = case
    sig = Signature(p, q)
    for pair in (decompose_gauss(a, sig), decompose_gs(a, sig)):
        np.testing.assert_allclose(pair.s, np.eye(sig.n), rtol=0, atol=1e-14)
        np.testing.assert_allclose(pair.b, a, rtol=1e-14, atol=0)
    out = dress(a, np.eye(sig.n), sig)
    np.testing.assert_allclose(out.g_prime, np.eye(sig.n), rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.b_prime, a, rtol=1e-14, atol=0)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_unit_diagonals())
def test_elements_of_a_are_admissible_exactly_when_their_exponents_are(case):
    # the certificate's tests are relative, so the verdict of a diagonal element of A,
    # as a dagger-fixed element and as a triangular factor, is its exponents' verdict
    # wherever its entries sit in the float range
    p, q, a = case
    sig = Signature(p, q)
    expected = is_admissible_diag(np.log(np.diagonal(a).real), sig)
    assert check_admissible_q(a, sig).admissible == expected
    assert check_admissible_an(a, sig).admissible == expected


def test_diagonal_at_the_square_root_of_the_float_range_is_its_own_factor():
    # b_11^2 = 1e300, and cond(b)^2 = 1e600 overflows the unitary window's float arithmetic
    for e in (5, 100, 150):
        g = np.diag([10.0**e, 10.0**-e]).astype(complex)
        for pair in (decompose_gauss(g, SIG11), decompose_gs(g, SIG11)):
            np.testing.assert_array_equal(pair.b, g)
        np.testing.assert_array_equal(dress(g, np.eye(2), SIG11).b_prime, g)


def test_gauss_route_judges_overflow_without_warnings():
    # columns scaled by up to 10^+-150: the signed LDL* loop's |L|^2 d can
    # overflow where the J-Cholesky refused, and RuntimeWarning is an error here
    rng = np.random.default_rng(1613)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        e = rng.uniform(-150, 150, n)
        g = random_g0(sig, rng, 3.0) @ random_decomposable(sig, rng) @ np.diag(10.0 ** (e - e.mean()))
        try:
            decompose_gauss(g, sig)
            outcomes.add("factored")
        except (NonFiniteInput, NotDecomposable, NotInG) as exc:
            outcomes.add(type(exc))
    assert {"factored", SingularMinor} <= outcomes


def test_unitary_check_reports_the_worst_column(monkeypatch):
    # scaling pivot 3 by 1.01 scales column 3 of s by 1/sqrt(1.01), which
    # leaves a defect of 1 - 1/1.01 in entry (3, 3) of dagger(s) s - I
    # (row 3 of b = sqrt|d| L* scales by sqrt(1.01))
    real_j_cholesky = iwasawa._j_cholesky

    def perturbed_j_cholesky(H, p, tol):
        b = real_j_cholesky(H, p, tol)
        b[2] *= np.sqrt(1.01)
        return b

    monkeypatch.setattr(iwasawa, "_j_cholesky", perturbed_j_cholesky)
    sig = Signature(2, 2)
    g = random_decomposable(sig, np.random.default_rng(61))
    with pytest.raises(NotDecomposable) as exc_info:
        decompose_gauss(g, sig)
    assert exc_info.value.kind == "unitary_check"
    assert exc_info.value.index == 3
    assert re.search(r"defect 9\.90\de-03 > \d\.\d{3}e-\d\d", str(exc_info.value))


# Two reproducers of the CLI round trip in CI, as (signature, entries): the
# s of Gauss on the first and of Gram-Schmidt on the second must be in G0.
FAR_FROM_THE_IDENTITY = {
    "gauss": (Signature(2, 1), [
        [480.40133079890927 + 29.531923751556462j, -217.2564333565002 - 150.27736260752468j,
         240.18832863112513 + 49.926651292546175j],
        [0.01802810285033826 - 0.016897336371087788j, 0.036871519826093074 - 0.011529757856690456j,
         0.008019269203131243 - 0.0008479319466467817j],
        [0.022985688458278187 - 0.00018804049419769684j, -0.0026364310087222823 - 0.006077097115450086j,
         0.049849582525083744 + 0.01100706592226556j],
    ]),
    "gs": (Signature(1, 2), [
        [630.1624479967794 + 43.58231358204375j, -40.14507623058304 + 173.2183658157662j,
         -301.09200920113784 - 86.94238427280239j],
        [22.056515416163204 - 118.98766149511857j, 522.9412839427526 + 49.48596036860227j,
         -50.073883760580166 - 69.68090967456185j],
        [-2.3127280477417545e-06 + 7.535597890279846e-07j, 1.594780859604291e-07 - 1.1063784997460359e-06j,
         4.254733158765621e-06 - 6.275535502502507e-07j],
    ]),
}


@BOTH_ROUTES
def test_returned_factor_of_a_far_element_is_in_g0(decompose):
    sig, g = FAR_FROM_THE_IDENTITY["gauss" if decompose is decompose_gauss else "gs"]
    pair = decompose(np.array(g), sig)
    assert is_member(pair.s, GroupTag.G0, sig)
    assert pair.residual <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("scale", [3.0, 5.0])
def test_gs_returns_s_in_g0_or_refuses_it_at_large_exponents(scale):
    # cond(g) reaches 1e9 at scale 3 and 1e17 at scale 5; one pass of the
    # column loop leaves a defect of order eps cond(g) in s.  A refusal is
    # allowed (at scale 5 the column test itself fails to rounding), but a
    # returned s must be in G0
    rng = np.random.default_rng(int(10 * scale))
    returned = 0
    for i in range(20):
        n = (8, 16)[i % 2]
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        d = groups.random_admissible_diag(sig, rng, scale=scale)
        g = np.diag(np.exp(d)).astype(np.complex128) @ random_g0(sig, rng, spread=rng.uniform(0.1, 2.0))
        try:
            s = decompose_gs(g, sig).s
        except NotDecomposable:
            continue
        assert is_member(s, GroupTag.G0, sig), (i, n)
        returned += 1
    assert returned >= 15


def test_dress_far_from_the_identity_stays_in_g0():
    rng = np.random.default_rng(206)
    for i in range(60):
        n = 2 + i % 5
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        b = random_admissible_an(sig, rng)
        result = dress(b, random_g0(sig, rng, spread=6.0), sig)
        assert is_member(result.g_prime, GroupTag.G0, sig), (i, n)


def test_routes_take_one_step_on_well_conditioned_elements(monkeypatch):
    # the second step is for high cond(g): on these elements the first
    # step's s already passes the SU(p, q) window on both routes
    steps = {"_gauss_step": 0, "_gs_step": 0}

    def counting(name):
        real = getattr(iwasawa, name)

        def step(*args):
            steps[name] += 1
            return real(*args)

        return step

    for name in steps:
        monkeypatch.setattr(iwasawa, name, counting(name))
    rng = np.random.default_rng(2021)
    for i in range(100):
        n = 2 + i % 5
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        g = random_decomposable(sig, rng)
        decompose_gauss(g, sig)
        decompose_gs(g, sig)
    assert steps == {"_gauss_step": 100, "_gs_step": 100}


def test_signed_ldl_loop_accepts_what_the_j_cholesky_accepts(monkeypatch):
    # the loop's sqrt|d| L* is the J-Cholesky's factor to roundoff; but the
    # Gauss route returns only the J-Cholesky's: with it declining, the loop
    # names a refusal at its weakest pivot, the smallest |d_k| / cancel_k
    rng = np.random.default_rng(1931)
    cases = []
    for n in range(2, 17):
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        cases.append((sig, random_decomposable(sig, rng)))
    for sig, g in cases:
        jh = g.conj().T @ sig.J @ g
        L, d, _ = kernel._signed_ldl(jh)
        loop = np.sqrt(np.abs(d))[:, None] * L.conj().T
        b = kernel._j_cholesky(jh, sig.p, DEFAULT_TOL)
        assert np.linalg.norm(loop - b) <= 1e-12 * np.linalg.norm(b), sig
    monkeypatch.setattr(iwasawa, "_j_cholesky", lambda H, p, tol: None)
    for sig, g in cases:
        jh = g.conj().T @ sig.J @ g
        _, d, cancels = kernel._signed_ldl(jh)
        with pytest.raises(SingularMinor) as exc:
            decompose_gauss(g, sig)
        assert exc.value.index == int(np.argmin(np.abs(d) / cancels)) + 1, sig


# Determinant windows (the SVD + LU of groups._det_is_one), eigenvector
# computations (kernel._spectrum with vectors=True, as bound in admissible
# and iwasawa) and kernel.as_cmatrix conversions per public call at n = 4:
# each input is converted and validated once, and no intermediate the
# library built is validated again, except where q_log's mat_exp re-checks
# its argument.  A certified admissibility verdict reads eigenvalues only,
# so it computes no eigenvectors; q_log computes them once, for its log.
VALIDATION_BUDGET = {
    "dress": (2, 0, 2),
    "decompose_gauss": (1, 0, 1),
    "decompose_gs": (1, 0, 1),
    "sym": (1, 0, 1),
    "check_admissible_an": (1, 0, 1),
    "check_admissible_q": (1, 0, 1),
    "decompose_g_admissible": (1, 0, 1),
    "q_log": (1, 1, 2),
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
    spectrum = kernel._spectrum

    def counted_spectrum(M, vectors=False):
        counts["eig"] += vectors
        return spectrum(M, vectors)

    for module in (admissible, iwasawa):
        monkeypatch.setattr(module, "_spectrum", counted_spectrum)
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
        diff = prod - out.g_prime @ out.b_prime
        assert out.residual == _frobenius(diff)  # its definition, bit for bit
        ref = np.linalg.norm(diff)
        assert abs(out.residual - ref) <= 2 * diff.size * np.finfo(float).eps * ref
        assert is_member(out.g_prime, GroupTag.G0, sig, 1e-7)
        assert is_member(out.b_prime, GroupTag.AN, sig, 1e-9)


def test_dress_has_the_bits_of_the_gauss_route_on_the_product():
    # dress builds no DecompPair, but its g', b' and residual are those of
    # decompose_gauss(b g), bit for bit, far from the identity too
    rng = np.random.default_rng(211)
    for i in range(60):
        n = 2 + i % 7
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        b = random_admissible_an(sig, rng)
        g = random_g0(sig, rng, spread=float(rng.uniform(0.5, 6.0)))
        out, pair = dress(b, g, sig), decompose_gauss(b @ g, sig)
        np.testing.assert_array_equal(out.g_prime, pair.s, strict=True)
        np.testing.assert_array_equal(out.b_prime, pair.b, strict=True)
        assert out.residual == pair.residual, i


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


def _counted_spectra(monkeypatch) -> list[bool]:
    """The ``vectors`` flag of every kernel._spectrum call admissible and iwasawa make from now on."""
    calls, spectrum = [], kernel._spectrum

    def counted_spectrum(M, vectors=False):
        calls.append(vectors)
        return spectrum(M, vectors)

    for module in (admissible, iwasawa):
        monkeypatch.setattr(module, "_spectrum", counted_spectrum)
    return calls


def test_q_log_refusal_computes_the_eigenpairs_once(monkeypatch):
    # q_log solves its eigenproblem once: the pair places the certificate's
    # shift and names the refusal
    calls = _counted_spectra(monkeypatch)
    with pytest.raises(NotAdmissible, match="gap violated"):
        q_log(np.diag([0.5, 2.0]).astype(complex), SIG11)
    assert calls == [True]


def test_certified_q_log_computes_the_eigenpairs_once(monkeypatch):
    # the same pair places the shift and gives the log
    sig = Signature(2, 2)
    s = random_admissible_q(sig, np.random.default_rng(31), gap=0.1, spread=0.7)
    calls = _counted_spectra(monkeypatch)
    q_log(s, sig)
    assert calls == [True]


def test_q_log_reads_a_singular_eigenvector_basis_as_no_convergence(monkeypatch):
    # LAPACK reports a singular basis as an all-NaN solution, which the call
    # names NoConvergence rather than letting numpy's LinAlgError out
    sig = Signature(2, 2)
    s = random_admissible_q(sig, np.random.default_rng(31), gap=0.1, spread=0.7)
    monkeypatch.setattr(iwasawa, "_solve", lambda a, b: np.full_like(b, np.nan))
    with pytest.raises(NoConvergence, match="singular"):
        q_log(s, sig)


@pytest.mark.parametrize("sd", [4, 6, 8])
def test_q_log_on_graded_spectra(sd):
    # s = dagger(g) exp(D) g has the exact log dagger(g) D g.  Its eigenpairs
    # carry an absolute error of order eps ||s||, so at wide spectra the
    # small eigenvalues' log misses and q_log refuses through its
    # reconstruction window instead of returning an inaccurate X
    rng = np.random.default_rng(2300 + sd)
    returned = 0
    for _ in range(300):
        sig = random_signature(rng, 6)
        d = random_admissible_diag(sig, rng, scale=sd)
        g = random_g0(sig, rng)
        s = dagger(g, sig) @ np.diag(np.exp(d)).astype(np.complex128) @ g
        exact = dagger(g, sig) @ np.diag(d.astype(complex)) @ g
        try:
            report = check_admissible_q(s, sig)
        except NotInQ:
            with pytest.raises(NotInQ):
                q_log(s, sig)
            continue
        try:
            X = q_log(s, sig)
        except NotAdmissible as exc:
            assert not report.admissible and exc.report.reason == report.reason
            continue
        except NoConvergence as exc:
            assert report.admissible and "log reconstruction defect" in str(exc)
            continue
        assert report.admissible
        assert np.linalg.norm(X - exact) <= 1e-7 * max(1.0, np.linalg.norm(exact))
        returned += 1
    assert returned > 0


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


def test_decompose_g_admissible_reads_a_lost_singular_value_as_zero():
    # admissible by the 2x2 closed form; eig returns the small eigenvalue of
    # sym(b), about 1/r^2, below 0, which the certificate does not read
    r = 1.7246723014963083e108
    g = np.array([[r, 3.725037974863545e-109 + 9.366165713310052e-109j], [0, 1 / r]])
    s, b, spectrum = decompose_g_admissible(g, SIG11)
    np.testing.assert_allclose(b, g, rtol=1e-12)
    assert spectrum[0] == pytest.approx(r, rel=1e-12)
    assert 0 <= spectrum[1] <= 1e-8 / r


def test_admissibility_at_zero_tolerance():
    # every window of the admissible layer is floored at the rounding bound,
    # so tol = 0 judges the certificate, not the roundoff of a formed product
    rng = np.random.default_rng(5)
    for i in range(20):
        n = 2 + i % 5
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        s = random_admissible_q(sig, rng)
        assert check_admissible_q(s, sig, tol=0.0).admissible, (i, n)
        X = q_log(s, sig, tol=0.0)
        np.testing.assert_allclose(mat_exp(X), s, rtol=0, atol=1e-12 * np.linalg.norm(s))
        g = random_decomposable(sig, rng)
        decompose_g_admissible(g, sig, tol=0.0)


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
