"""Signature geometry: pairing, dagger, cone trichotomy, cone sampling."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supq.errors import DimensionMismatch, NonFiniteInput, ZeroVector
from supq.groups import random_g0
from supq.indefinite import (
    ConeClass,
    Signature,
    _check_vector,
    _cone_margins,
    _gram,
    _sym,
    classify,
    dagger,
    norm_sq,
    _sample_cones,
    pairing,
    sample_cone,
)

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)


# ---------------------------------------------------------------------------
# Signature


@pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 2)])
def test_signature_rejects_degenerate(p, q):
    with pytest.raises(ValueError):
        Signature(p, q)


def test_signature_stores_integers():
    with pytest.raises(TypeError):  # at construction, not at the first use of j_diag
        Signature(2.0, 1)
    sig = Signature(np.int64(2), np.int32(1))
    assert sig == SIG21 and type(sig.p) is int and type(sig.q) is int


def test_signature_j_matrix():
    sig = Signature(2, 3)
    assert sig.n == 5
    np.testing.assert_array_equal(sig.j_diag, [1, 1, -1, -1, -1])
    np.testing.assert_array_equal(sig.J @ sig.J, np.eye(5))


def test_signature_arrays_are_read_only():
    sig = Signature(1, 2)
    with pytest.raises(ValueError):
        sig.j_diag[0] = -1.0
    with pytest.raises(ValueError):
        sig.J[0, 0] = 0.0
    with pytest.raises(ValueError):
        sig.lower_mask[1, 0] = False


def test_signature_lower_mask_is_the_strict_lower_triangle():
    sig = Signature(2, 3)
    np.testing.assert_array_equal(sig.lower_mask, np.tril(np.ones((5, 5), bool), -1))
    assert sig.lower_mask is sig.lower_mask  # cached


def test_gram_equals_j_times_sym_in_value():
    # x* (J x) flips the same signs as J (J x* J) x, exactly, so the one-product
    # form must not move a value at any size or row scale (a zero may change sign)
    rng = np.random.default_rng(29)
    for n in range(2, 33):
        for _ in range(4):
            p = int(rng.integers(1, n))
            j = Signature(p, n - p).j_diag
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x *= 10.0 ** rng.uniform(-100, 100, (n, 1))
            np.testing.assert_array_equal(_gram(x, j), j[:, None] * _sym(x, j), strict=True)


def test_check_vector_contracts():
    v = _check_vector([1, 2j], SIG11)
    assert v.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        _check_vector([[1, 2]], SIG11)
    with pytest.raises(NonFiniteInput):
        _check_vector([1.0, np.nan], SIG11)


# ---------------------------------------------------------------------------
# pairing and norm


def test_pairing_basis_vectors():
    e1 = [1, 0, 0]
    e3 = [0, 0, 1]
    assert pairing(e1, e1, SIG21) == 1.0
    assert pairing(e3, e3, SIG21) == -1.0
    assert pairing(e1, e3, SIG21) == 0.0


def test_pairing_sesquilinearity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = Signature(p, q)
        n = sig.n
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = complex(rng.standard_normal(), rng.standard_normal())
        # linear in the first slot
        assert pairing(a * x + z, y, sig) == pytest.approx(
            a * pairing(x, y, sig) + pairing(z, y, sig), rel=1e-12, abs=1e-12
        )
        # conjugate-linear in the second slot
        assert pairing(x, a * y, sig) == pytest.approx(
            np.conj(a) * pairing(x, y, sig), rel=1e-12, abs=1e-12
        )
        # Hermitian symmetry
        assert pairing(y, x, sig) == pytest.approx(np.conj(pairing(x, y, sig)), rel=1e-12)


def test_norm_sq_matches_pairing():
    rng = np.random.default_rng(37)
    for _ in range(100):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert norm_sq(x, SIG21) == pytest.approx(pairing(x, x, SIG21).real, rel=1e-13)


def test_vector_length_checked():
    with pytest.raises(DimensionMismatch):
        pairing([1, 0], [0, 1], SIG21)
    with pytest.raises(DimensionMismatch):
        norm_sq([1, 0, 0, 0], SIG21)


# ---------------------------------------------------------------------------
# classify


def test_classify_trivials():
    assert classify([1, 0], SIG11) is ConeClass.TIMELIKE
    assert classify([0, 1], SIG11) is ConeClass.SPACELIKE
    assert classify([1, 1], SIG11) is ConeClass.NULL
    assert classify([1j, 1], SIG11) is ConeClass.NULL


def test_classify_is_scale_invariant():
    x = np.array([1.0, 1.0 + 1e-12])
    assert classify(x, SIG11) is classify(1e8 * x, SIG11)
    # sums of squares of these overflow or underflow unless rescaled
    for y in (x, np.array([1.0, 0.5j]), np.array([0.5, 1.0])):
        for scale in (1e8, 1e200, 1e-200):
            assert classify(scale * y, SIG11) is classify(y, SIG11)


def test_norm_sq_at_extreme_scales():
    assert norm_sq([1e200, 0], SIG11) == np.inf
    assert norm_sq([1e200, 2e200], SIG11) == -np.inf
    assert norm_sq([1e200, 1e200], SIG11) == 0.0
    assert norm_sq([1e-200, 0], SIG11) == 0.0
    assert norm_sq([3e100, 1e100], SIG11) == pytest.approx(8e200, rel=1e-15)


def test_classify_rejects_zero():
    with pytest.raises(ZeroVector):
        classify([0, 0], SIG11)


@st.composite
def _row_stacks(draw):
    """``(p, X)``: 1 to 6 complex rows of length n <= 8, each at its own scale
    in [1e-300, 1e300], with zero entries, zero rows and rows whose relative
    margin lies within 2e-9 of zero, across the default tolerance."""
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, n - 1))
    rows = draw(st.integers(1, 6))
    scales = 10.0 ** np.array([draw(st.floats(-300.0, 300.0)) for _ in range(rows)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    X[rng.uniform(size=X.shape) < 0.2] = 0.0
    mags = X.real**2 + X.imag**2
    pos, neg = mags[:, :p].sum(axis=1), mags[:, p:].sum(axis=1)
    null = (rng.uniform(size=rows) < 0.3) & (pos > 0) & (neg > 0)
    X[null, p:] *= np.sqrt(pos[null] / neg[null] * (1.0 - rng.uniform(-4e-9, 4e-9, null.sum())))[:, None]
    X[rng.uniform(size=rows) < 0.1] = 0.0
    return p, X * scales[:, None]


def _exact_margin(x, p):
    """(<x, x>, ||x||_2^2) in exact rational arithmetic over the float entries."""
    squares = [Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in x]
    return sum(squares[:p]) - sum(squares[p:]), sum(squares)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_row_stacks())
def test_cone_margins_match_exact_arithmetic_at_every_scale(case):
    p, X = case
    n = X.shape[1]
    sig, tol, slack = Signature(p, n - p), 1e-9, Fraction(4 * n * np.finfo(float).eps)
    Y = np.vstack([X, X[:1]])
    Y[-1, -1] = np.inf  # a row that overflowed
    with np.errstate(over="ignore", invalid="ignore"):  # the helper leaves this to its callers
        stacked = _cone_margins(Y, p)
        rows = [_cone_margins(y, p) for y in Y]
    for i, single in enumerate(rows):  # NaN from the same operations has the same bits
        assert [np.asarray(part[i]).tobytes() for part in stacked] == [np.asarray(part).tobytes() for part in single]
    assert not np.isfinite(stacked[1][-1])
    for x, (ns, e2, k) in zip(X, rows):
        if not x.any():
            assert e2 == 0.0
            with pytest.raises(ZeroVector):
                classify(x, sig, tol)
            continue
        exact_ns, exact_e2 = _exact_margin(x, p)
        exact = exact_ns / exact_e2
        assert abs(Fraction(ns / e2) - exact) <= slack
        unscale = Fraction(4) ** int(k)  # y = 2**-k x
        assert abs(Fraction(ns) * unscale - exact_ns) <= slack * exact_e2
        assert abs(Fraction(e2) * unscale - exact_e2) <= slack * exact_e2
        verdict = classify(x, sig, tol)
        if exact > tol + slack:
            assert verdict is ConeClass.TIMELIKE
        elif exact < -tol - slack:
            assert verdict is ConeClass.SPACELIKE
        elif abs(exact) < tol - slack:
            assert verdict is ConeClass.NULL


def test_cone_margins_do_not_depend_on_memory_layout():
    # a column of a matrix, its contiguous copy and its row inside the
    # transposed (strided) stack of columns give the same bits
    rng = np.random.default_rng(27)
    for _ in range(2000):
        n = int(rng.integers(2, 33))
        p, m = int(rng.integers(1, n)), int(rng.integers(1, n + 1))
        R = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 10.0 ** rng.uniform(-3, 3, (n, n))
        k = int(rng.integers(0, m))
        stacked = [np.asarray(part[k]).tobytes() for part in _cone_margins(R[:, :m].T, p)]
        for x in (R[:, k], R[:, k].copy()):
            assert [np.asarray(part).tobytes() for part in _cone_margins(x, p)] == stacked


def test_one_normal_vector_takes_the_float_exit_with_the_bits_of_its_stacked_row():
    # one vector whose sum of squares is normal comes back as Python floats and
    # k = 0; every other vector, and every stack, keeps the power-of-two rescale
    tiny, huge = sys.float_info.min, sys.float_info.max
    edges = {  # name: (first entry, sum of squares is normal)
        "e2 is the least normal": (2.0**-511, True),
        "e2 is the largest subnormal": (2.0**-511 * np.nextafter(1.0, 0.0), False),
        "e2 is just below overflow": (np.sqrt(huge), True),
        "e2 overflows": (2.0**512, False),
        "zero": (0.0, False),
        "NaN entry": (np.nan, False),
    }
    X = np.zeros((len(edges), 4), dtype=np.complex128)
    X[:, 0] = [first for first, _ in edges.values()]
    with np.errstate(over="ignore", invalid="ignore"):  # the helper leaves this to its callers
        e2 = np.vecdot(X, X).real
        runs = {p: (_cone_margins(X, p), [_cone_margins(x, p) for x in X]) for p in (1, 2, 3)}
    assert e2[0] == tiny and e2[1] == np.nextafter(tiny, 0.0) and huge / 2 < e2[2] < np.inf and e2[3] == np.inf
    for stacked, rows in runs.values():
        assert all(type(part) is np.ndarray for part in stacked)
        for i, ((name, (_, normal)), single) in enumerate(zip(edges.items(), rows)):
            # (<y, y>, ||y||^2, k), k included, bit for bit
            assert [np.asarray(part[i]).tobytes() for part in stacked] == [np.asarray(part).tobytes() for part in single], name
            took_exit = type(single[0]) is float and type(single[1]) is float and type(single[2]) is int
            assert took_exit is normal, name


# ---------------------------------------------------------------------------
# dagger


def test_dagger_on_basis():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    expected = np.array([[0, 0], [-1, 0]], dtype=complex)
    np.testing.assert_array_equal(dagger(A, SIG11), expected)


def test_dagger_is_involution_and_adjoint():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sig = Signature(p, q)
        n = sig.n
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.testing.assert_allclose(dagger(dagger(A, sig), sig), A, rtol=1e-15, atol=1e-15)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert pairing(A @ x, y, sig) == pytest.approx(
            pairing(x, dagger(A, sig) @ y, sig), rel=1e-11, abs=1e-11
        )


def test_dagger_antihomomorphism():
    rng = np.random.default_rng(43)
    sig = Signature(2, 2)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        dagger(A @ B, sig), dagger(B, sig) @ dagger(A, sig), rtol=1e-12, atol=1e-12
    )


def test_dagger_dimension_check():
    with pytest.raises(DimensionMismatch):
        dagger(np.eye(3), SIG11)


# ---------------------------------------------------------------------------
# cone sampling


@pytest.mark.parametrize("cls", list(ConeClass))
def test_sample_cone_lands_in_requested_class(cls):
    for seed in range(100):
        sig = Signature(1 + seed % 3, 1 + seed % 2)
        x = sample_cone(cls, sig, seed)
        assert classify(x, sig) is cls


@pytest.mark.parametrize("cls", list(ConeClass))
def test_sample_cone_takes_a_class_by_its_value(cls):
    np.testing.assert_array_equal(sample_cone(cls.value, SIG21, 3), sample_cone(cls, SIG21, 3))
    with pytest.raises(ValueError):
        sample_cone("lightlike", SIG21, 3)


def test_sample_cone_null_contract():
    for seed in range(100):
        sig = Signature(2, 2)
        x = sample_cone(ConeClass.NULL, sig, seed)
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
        assert abs(norm_sq(x, sig)) <= 1e-12


def test_sample_cone_deterministic():
    a = sample_cone(ConeClass.TIMELIKE, SIG21, 12345)
    b = sample_cone(ConeClass.TIMELIKE, SIG21, 12345)
    np.testing.assert_array_equal(a, b)


def test_sample_cone_draws_are_a_contract():
    # the draws of the first release, to the bit: a seeded check depends on them
    expected = [complex(-1.346071896500664, -0.24502013866748926),
                complex(1.194717973587139, -0.0712289119517216),
                complex(-0.8706617379590857, -0.740884652085609)]
    np.testing.assert_array_equal(sample_cone(ConeClass.TIMELIKE, SIG21, 12345), expected)


def test_batched_samples_are_a_run_of_sample_cone_calls():
    classes = [list(ConeClass)[i % 3] for i in range(40)]
    for sig in (SIG11, SIG21, Signature(3, 5)):
        one, batch = np.random.default_rng(5), np.random.default_rng(5)
        rows = [sample_cone(cls, sig, one) for cls in classes]
        np.testing.assert_array_equal(_sample_cones(classes, sig, batch), rows)
        assert one.random() == batch.random()  # both generators end in the same state


# ---------------------------------------------------------------------------
# invariance under the pseudo-unitary group


def test_pairing_invariant_under_pseudo_unitary():
    rng = np.random.default_rng(47)
    for trial in range(1000):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sig = Signature(p, q)
        n = sig.n
        g = random_g0(sig, int(rng.integers(2**32)))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = pairing(g @ x, g @ y, sig)
        rhs = pairing(x, y, sig)
        scale = float(np.linalg.norm(g @ x) * np.linalg.norm(g @ y))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, scale))
