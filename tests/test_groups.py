"""Membership predicates and the random element generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supq.errors import DimensionMismatch
from supq.groups import (
    AdmissibleDiagonal,
    GroupTag,
    is_member,
    random_admissible_diag,
    random_an,
    random_g0,
)
from supq.indefinite import ConeClass, Signature, dagger, sample_cone

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)

SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# is_member: known elements


@pytest.mark.parametrize("tag", list(GroupTag))
def test_identity_in_every_set(tag):
    assert is_member(np.eye(2), tag, SIG11)
    assert is_member(np.eye(4), tag, SIG22)


def test_diag_membership():
    M = np.diag([2.0, 0.5]).astype(complex)
    assert is_member(M, GroupTag.A, SIG11)
    assert is_member(M, GroupTag.AN, SIG11)
    assert is_member(M, GroupTag.Q, SIG11)  # real diagonal is dagger-fixed
    assert not is_member(M, GroupTag.N, SIG11)
    assert not is_member(M, GroupTag.G0, SIG11)


def test_unit_triangular_membership():
    M = np.array([[1, 1], [0, 1]], dtype=complex)
    assert is_member(M, GroupTag.N, SIG11)
    assert is_member(M, GroupTag.AN, SIG11)
    assert not is_member(M, GroupTag.A, SIG11)
    assert not is_member(M, GroupTag.G0, SIG11)
    assert not is_member(M, GroupTag.Q, SIG11)


def test_hyperbolic_rotation_in_g0():
    # dagger(M) M = I and det = 2 - 1 = 1
    M = np.array([[SQ2, 1], [1, SQ2]], dtype=complex)
    assert is_member(M, GroupTag.G0, SIG11)
    assert is_member(M, GroupTag.G, SIG11)
    assert not is_member(M, GroupTag.Q, SIG11)
    assert not is_member(M, GroupTag.AN, SIG11)


def test_determinant_gates_g():
    assert not is_member(2 * np.eye(2), GroupTag.G, SIG11)
    assert is_member(np.diag([2.0, 0.5]), GroupTag.G, SIG11)


def test_negative_diagonal_not_in_an():
    assert not is_member(np.diag([-1.0, -1.0]), GroupTag.AN, SIG11)


def test_large_scale_members_still_accepted():
    # the determinant of a large well-formed element cannot be computed to
    # absolute precision; membership must not reject it for that reason
    r = 1e4
    M = np.diag([r, 1.0 / r]).astype(complex)
    assert is_member(M, GroupTag.A, SIG11)
    assert is_member(M, GroupTag.AN, SIG11)


def test_widely_scaled_positive_diagonal_is_in_an():
    M = np.diag([1e10, 1e-10])
    assert is_member(M, GroupTag.AN, SIG11)
    assert is_member(M, GroupTag.A, SIG11)
    # past the squared float range too, where ||M||_F needs rescaling
    for tag in (GroupTag.AN, GroupTag.A, GroupTag.Q):
        assert is_member(np.diag([1e200, 1e-200]), tag, SIG11) is True
    assert is_member([[1e200, 1e200], [0, 1e-200]], GroupTag.AN, SIG11) is True
    # an imaginary part is judged against the size of its own entry
    assert not is_member(np.diag([1e10, 1e-10 * (1 + 1e-6j)]), GroupTag.AN, SIG11)
    assert not is_member(np.diag([-1e10, -1e-10]), GroupTag.AN, SIG11)


@pytest.mark.parametrize(
    "M, tag",
    [
        ([[1e200, 0], [5e199, 1e-200]], GroupTag.AN),
        ([[1e200, 3e199], [0, 1e-200]], GroupTag.A),
        ([[1e200, 3e199], [0, 1e-200]], GroupTag.Q),
        ([[1, 1e200], [5e199, 1]], GroupTag.N),
    ],
)
def test_non_members_at_overflowing_scale_are_refused(M, tag):
    # ||M||_F overflows a plain sum of squares: the window must stay finite
    assert is_member(M, tag, SIG11) is False


@st.composite
def _scaled_members(draw):
    """``(n, p, {tag: member}, (i, j))``: members of A, AN, N and Q whose
    largest entries are near a drawn scale in [1e-150, 1e300], and a
    strictly lower position (i, j)."""
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, n - 1))
    scale = 10.0 ** draw(st.floats(-150.0, 300.0))
    k = draw(st.integers(0, n - 1))
    i = draw(st.integers(1, n - 1))
    j = draw(st.integers(0, i - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logs = rng.uniform(-1.0, 1.0, n)
    diag = np.exp(logs - logs.mean())
    diag[k] *= scale
    diag[(k + 1) % n] /= scale
    unit = np.eye(n) + np.triu(rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n)), 1)
    signs = rng.choice([1.0, -1.0], n)
    signs[0] *= np.prod(signs)  # an even number of negative entries keeps det 1
    members = {
        GroupTag.A: np.diag(diag),
        GroupTag.AN: diag[:, None] * unit,
        GroupTag.N: np.eye(n) + scale * (unit - np.eye(n)),
        GroupTag.Q: np.diag(signs * diag),
    }
    return n, p, members, (i, j)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_scaled_members())
def test_membership_verdicts_hold_at_every_scale(case):
    n, p, members, (i, j) = case
    sig = Signature(p, n - p)
    for tag, M in members.items():
        assert is_member(M, tag, sig) is True, tag
        # a strictly lower entry 1e-3 times the largest one leaves every set,
        # and for Q it breaks dagger symmetry
        bad = M.astype(complex)
        bad[i, j] += 1e-3 * np.max(np.abs(M))
        assert is_member(bad, tag, sig) is False, tag


def test_clearly_wrong_determinant_rejected_at_any_scale():
    M = np.diag([1e4, 2.0 / 1e4]).astype(complex)  # det 2
    assert not is_member(M, GroupTag.A, SIG11)
    assert not is_member(M, GroupTag.G, SIG11)


def test_det_window_skips_the_svd_for_a_det_one_element(monkeypatch):
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond ran inside the plain window")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    M = np.array([[SQ2, 1.0], [1.0, SQ2]], dtype=complex)  # det 1, cond 5.8
    assert is_member(M, GroupTag.G, SIG11)
    assert is_member(M, GroupTag.G0, SIG11)


@pytest.mark.parametrize(
    "scale, miss, member",
    [
        (1e3, 1e-6, True),  # tol < miss <= tol * cond(M), cond(M) about 1e6
        (1e5, 1e-2, False),  # miss > tol * 1e6: the window's cap still rejects
    ],
)
def test_det_window_outside_the_plain_window_uses_cond(monkeypatch, scale, miss, member):
    real_cond = np.linalg.cond
    calls = []

    def counted_cond(A):
        calls.append(A)
        return real_cond(A)

    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    M = np.diag([scale, (1.0 + miss) / scale]).astype(complex)
    assert is_member(M, GroupTag.G, SIG11) == member
    assert len(calls) == 1


def test_is_member_dimension_check():
    with pytest.raises(DimensionMismatch):
        is_member(np.eye(3), GroupTag.G, SIG11)


# ---------------------------------------------------------------------------
# random generators


def test_random_g0_lands_in_g0():
    rng = np.random.default_rng(53)
    for trial in range(300):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sig = Signature(p, q)
        g = random_g0(sig, int(rng.integers(2**32)), spread=float(rng.uniform(0.1, 1.5)))
        assert is_member(g, GroupTag.G0, sig)
        defect = np.linalg.norm(dagger(g, sig) @ g - np.eye(sig.n))
        assert defect <= 1e-10 * max(1.0, np.linalg.norm(g) ** 2)


def test_random_g0_deterministic():
    a = random_g0(SIG22, 99)
    b = random_g0(SIG22, 99)
    np.testing.assert_array_equal(a, b)


def test_random_an_lands_in_an_with_exact_zeros():
    rng = np.random.default_rng(59)
    for trial in range(300):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sig = Signature(p, q)
        b = random_an(sig, int(rng.integers(2**32)))
        assert is_member(b, GroupTag.AN, sig)
        assert np.all(np.tril(b, -1) == 0)  # structural zeros are exact
        assert np.all(np.diagonal(b).real > 0)
        assert np.all(np.diagonal(b).imag == 0)


def test_g0_intersect_an_is_trivial():
    # a pseudo-unitary triangular element with positive diagonal is the identity;
    # random draws from either factor must not land in the other
    rng = np.random.default_rng(61)
    for trial in range(200):
        sig = Signature(1 + trial % 3, 1 + trial % 2)
        b = random_an(sig, int(rng.integers(2**32)))
        if np.linalg.norm(b - np.eye(sig.n)) > 1e-6:
            assert not is_member(b, GroupTag.G0, sig)
        g = random_g0(sig, int(rng.integers(2**32)))
        if np.linalg.norm(g - np.eye(sig.n)) > 1e-6:
            assert not is_member(g, GroupTag.AN, sig)


# ---------------------------------------------------------------------------
# admissible diagonals


def test_admissible_diagonal_known():
    d = AdmissibleDiagonal((1.0,), (-1.0,))
    assert d.gap == 2.0
    np.testing.assert_array_equal(d.entries, [1.0, -1.0])
    np.testing.assert_allclose(d.exp_matrix(), np.diag([np.e, 1 / np.e]), rtol=1e-15)
    np.testing.assert_array_equal(d.matrix(), np.diag([1.0, -1.0]))


def test_admissible_diagonal_rejects_bad_input():
    with pytest.raises(ValueError):
        AdmissibleDiagonal((1.0, 2.0), (-3.0,))  # lambda block increasing
    with pytest.raises(ValueError):
        AdmissibleDiagonal((1.0,), (-0.5, 0.5))  # mu block increasing
    with pytest.raises(ValueError):
        AdmissibleDiagonal((0.0,), (0.0,))  # no strict gap
    with pytest.raises(ValueError):
        AdmissibleDiagonal((2.0,), (-1.0,))  # nonzero sum
    with pytest.raises(ValueError):
        AdmissibleDiagonal((), (1.0,))  # empty block


def test_random_admissible_diag_contract():
    for seed in range(200):
        sig = Signature(1 + seed % 3, 1 + (seed // 3) % 3)
        d = random_admissible_diag(sig, seed, gap=1e-3)
        assert d.gap >= 1e-3 - 1e-12
        assert abs(d.entries.sum()) <= 1e-9 * max(1.0, np.abs(d.entries).max())
        assert len(d.lambdas) == sig.p and len(d.mus) == sig.q
        # exp lands in A with determinant 1
        assert is_member(d.exp_matrix(), GroupTag.A, sig)


def test_random_admissible_diag_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        random_admissible_diag(SIG11, 0, gap=0.0)


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: random_g0(SIG22, seed),
        lambda seed: random_an(SIG22, seed),
        lambda seed: random_admissible_diag(SIG22, seed).entries,
        lambda seed: sample_cone(ConeClass.TIMELIKE, SIG22, seed),
    ],
    ids=["random_g0", "random_an", "random_admissible_diag", "sample_cone"],
)
def test_generators_take_an_int_or_a_generator(draw):
    np.testing.assert_array_equal(draw(7), draw(np.random.default_rng(7)))
    # a shared Generator advances: the second call draws something new
    rng = np.random.default_rng(7)
    first, second = draw(rng), draw(rng)
    np.testing.assert_array_equal(first, draw(7))
    assert not np.array_equal(first, second)
