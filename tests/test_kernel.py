"""Kernel contracts: validation, eigenpairs, signed LDL*, triangular solves."""

import numpy as np
import pytest

from supq.errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NotHermitian,
    SingularDiagonal,
    SingularMinor,
)
from supq.kernel import (
    DEFAULT_TOL_EIG,
    EIG_SIZE_CAP,
    _frobenius,
    as_cmatrix,
    as_cvector,
    eig,
    mat_exp,
    signed_ldl,
    solve_upper_triangular,
)


# ---------------------------------------------------------------------------
# validation


def test_as_cmatrix_accepts_lists_and_casts():
    M = as_cmatrix([[1, 2], [3, 4]])
    assert M.dtype == np.complex128
    assert M.shape == (2, 2)


def test_as_cmatrix_rejects_non_2d():
    with pytest.raises(DimensionMismatch):
        as_cmatrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_cmatrix(np.zeros((2, 2, 2)))


def test_as_cmatrix_rejects_non_square_when_required():
    with pytest.raises(DimensionMismatch):
        as_cmatrix(np.zeros((2, 3)), square=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_cmatrix_rejects_non_finite(bad):
    M = np.eye(2, dtype=complex)
    M[0, 1] = bad
    with pytest.raises(NonFiniteInput):
        as_cmatrix(M)


def test_as_cvector_contracts():
    v = as_cvector([1, 2j])
    assert v.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        as_cvector([[1, 2]])
    with pytest.raises(NonFiniteInput):
        as_cvector([1.0, np.nan])


# ---------------------------------------------------------------------------
# matrix exponential


def test_mat_exp_zero_is_identity():
    np.testing.assert_array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_diagonal():
    X = np.diag([1.0, -1.0]).astype(complex)
    np.testing.assert_allclose(mat_exp(X), np.diag([np.e, 1.0 / np.e]), rtol=1e-14)


def test_mat_exp_inverse_of_negative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prod = mat_exp(X) @ mat_exp(-X)
        np.testing.assert_allclose(prod, np.eye(n), atol=1e-10 * np.exp(2 * np.linalg.norm(X)))


# ---------------------------------------------------------------------------
# eigenpairs


def test_eig_quadratic_oracle():
    # trace 3, determinant 1: lambda^2 - 3 lambda + 1 = 0
    r = eig([[2, 1], [1, 1]])
    expected = np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2])
    np.testing.assert_allclose(r.values.real, expected, rtol=1e-14)
    np.testing.assert_allclose(r.values.imag, 0.0, atol=1e-14)


def test_eig_rotation_pair():
    # the real parts carry roundoff of order eps, so sort on the imaginary
    # part before comparing the conjugate pair
    r = eig([[0, -1], [1, 0]])
    got = r.values[np.argsort(r.values.imag)]
    np.testing.assert_allclose(got, [-1j, 1j], atol=1e-14)


def test_eig_ordering_descending_real_then_imag():
    # diagonal input keeps the eigenvalues exact, so the tie-break is exercised
    r = eig(np.diag([1 - 2j, 3 + 0j, 1 + 2j]))
    np.testing.assert_array_equal(r.values, np.array([3 + 0j, 1 + 2j, 1 - 2j]))


def test_eig_vectors_are_unit_and_certified():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = eig(M)
        np.testing.assert_allclose(np.linalg.norm(r.vectors, axis=0), 1.0, rtol=1e-12)
        assert r.max_residual <= DEFAULT_TOL_EIG * np.linalg.norm(M)
        resid = np.linalg.norm(M @ r.vectors - r.vectors * r.values, axis=0).max()
        assert resid <= r.max_residual + 1e-15


def test_eig_handles_defective_input():
    r = eig([[1, 1], [0, 1]])
    np.testing.assert_allclose(r.values, [1.0, 1.0], atol=1e-12)


def test_eig_size_cap():
    with pytest.raises(DimensionMismatch):
        eig(np.eye(EIG_SIZE_CAP + 1))


def test_eig_certifies_a_finite_residual_at_overflowing_scale():
    M = np.array([[2e200, 1e200], [1e200, 3e200]])
    with np.errstate(over="ignore"):
        r = eig(M)
        bound = DEFAULT_TOL_EIG * _frobenius(M)
    assert np.isfinite(r.max_residual) and r.max_residual <= bound
    np.testing.assert_allclose(r.values, np.linalg.eigvalsh(M)[::-1], rtol=1e-12)


def test_frobenius_matches_numpy_and_rescales_only_an_overflowing_norm():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert _frobenius(A) == np.linalg.norm(A)
    np.testing.assert_array_equal(_frobenius(A, axis=0), np.linalg.norm(A, axis=0))
    big = A.copy()
    big[:, 1] *= 1e300
    big[:, 3] = 0.0
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(big, axis=0)
        cols = _frobenius(big, axis=0)
        assert _frobenius(big) == pytest.approx(np.linalg.norm(big / 1e300) * 1e300, rel=1e-14)
        assert _frobenius(np.array([np.inf, 1.0])) == np.inf
    assert np.isinf(plain[1]) and cols[1] == pytest.approx(1e300 * np.linalg.norm(A[:, 1]), rel=1e-14)
    np.testing.assert_array_equal(np.delete(cols, 1), np.delete(plain, 1))  # the finite columns, zero included


def test_eig_zero_residual_budget_rejected():
    # a generic matrix has a strictly positive residual, so tol_eig=0 must fail
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NoConvergence):
        eig(M, tol_eig=0.0)


# ---------------------------------------------------------------------------
# signed LDL*


def test_signed_ldl_positive_2x2():
    L, d = signed_ldl([[2, 1], [1, 1]])
    np.testing.assert_allclose(d, [2.0, 0.5], rtol=1e-15)
    np.testing.assert_allclose(L[1, 0], 0.5, rtol=1e-15)


def test_signed_ldl_indefinite_2x2():
    L, d = signed_ldl([[1, 2], [2, 1]])
    np.testing.assert_allclose(d, [1.0, -3.0], rtol=1e-15)
    np.testing.assert_allclose(L[1, 0], 2.0, rtol=1e-15)


def test_signed_ldl_complex_hermitian():
    L, d = signed_ldl([[3, 1 - 1j], [1 + 1j, 1]])
    np.testing.assert_allclose(d, [3.0, 1.0 / 3.0], rtol=1e-15)
    np.testing.assert_allclose(L[1, 0], (1 + 1j) / 3, rtol=1e-15)


def test_signed_ldl_reconstruction_and_minors():
    rng = np.random.default_rng(17)
    eps = np.finfo(np.float64).eps
    for _ in range(300):
        n = int(rng.integers(2, 8))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = A @ A.conj().T + np.diag(rng.uniform(-2.0, 2.0, n))
        try:
            L, d = signed_ldl(H)
        except SingularMinor:
            continue
        back = L @ np.diag(d).astype(complex) @ L.conj().T
        assert np.linalg.norm(back - H) <= 500 * eps * np.linalg.norm(H) * n
        # running pivot products are the leading principal minors
        for k in range(1, n + 1):
            minor = np.linalg.det(H[:k, :k]).real
            assert np.prod(d[:k]) == pytest.approx(minor, rel=1e-8, abs=1e-12)


def test_signed_ldl_keeps_unit_lower_structure():
    L, d = signed_ldl([[2, 1 + 1j, 0], [1 - 1j, 4, 1], [0, 1, -1]])
    assert np.all(np.triu(L, 1) == 0)
    np.testing.assert_array_equal(np.diagonal(L), np.ones(3))
    assert d.dtype == np.float64


def test_signed_ldl_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        signed_ldl([[1, 1], [0, 1]])


def test_signed_ldl_judges_symmetry_at_overflowing_scale():
    with pytest.raises(NotHermitian), np.errstate(over="ignore"):
        signed_ldl([[1e200, 5e199], [0, -1e200]])
    with np.errstate(over="ignore"):
        L, d = signed_ldl([[1e200, 5e199], [5e199, -1e200]])
    np.testing.assert_allclose(d, [1e200, -1.25e200], rtol=1e-15)
    np.testing.assert_allclose(L[1, 0], 0.5, rtol=1e-15)


def test_signed_ldl_singular_minor_index():
    with pytest.raises(SingularMinor) as exc:
        signed_ldl([[0, 1], [1, 0]])
    assert exc.value.index == 1
    assert exc.value.kind == "singular_minor"
    # second leading minor vanishes: 1*1 - 1*1
    with pytest.raises(SingularMinor) as exc:
        signed_ldl([[1, 1], [1, 1]])
    assert exc.value.index == 2


def test_signed_ldl_small_but_accurate_pivot_is_kept():
    # the 2,2 pivot is the ratio of a unit minor to a large one -- tiny in
    # absolute terms yet exactly representable; it must not be flagged
    big = 1e8
    H = np.diag([big, 1.0 / big]).astype(complex)
    L, d = signed_ldl(H)
    np.testing.assert_allclose(d, [big, 1.0 / big], rtol=1e-15)


# ---------------------------------------------------------------------------
# triangular solve


def test_solve_upper_triangular_known():
    U = np.array([[2, 1], [0, 4]], dtype=complex)
    X = solve_upper_triangular(U, np.eye(2, dtype=complex))
    np.testing.assert_allclose(U @ X, np.eye(2), atol=1e-15)


def test_solve_upper_triangular_ignores_lower_entries():
    U = np.array([[2, 1], [99, 4]], dtype=complex)
    X = solve_upper_triangular(U, np.eye(2, dtype=complex))
    np.testing.assert_allclose(np.triu(U) @ X, np.eye(2), atol=1e-15)


def test_solve_upper_triangular_random_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        U = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        U[np.diag_indices(n)] += 3.0
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = solve_upper_triangular(U, B)
        np.testing.assert_allclose(U @ X, B, atol=1e-10 * max(1.0, np.linalg.norm(B)))


def test_solve_upper_triangular_singular_diagonal():
    with pytest.raises(SingularDiagonal) as exc:
        solve_upper_triangular([[1, 1], [0, 0]], np.eye(2))
    assert exc.value.index == 2


def test_solve_upper_triangular_shape_check():
    with pytest.raises(DimensionMismatch):
        solve_upper_triangular(np.eye(2), np.eye(3))
