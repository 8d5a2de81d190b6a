"""Kernel contracts: validation, the matrix exponential, eigenpairs, signed LDL*, the certified Cholesky,
triangular solves."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from supq import kernel
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
    _definite,
    _frobenius,
    _pivot_clears,
    _signed_ldl,
    _solve_lower,
    _spectrum,
    as_cmatrix,
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


# 1-norms that reach every Padé degree (theta_3 = 0.015, theta_5 = 0.25,
# theta_7 = 0.95, theta_9 = 2.1, theta_13 = 5.37) and two past theta_13, which square.
@pytest.mark.parametrize("norm", [1e-6, 1e-2, 0.2, 0.9, 2.0, 5.0, 20.0, 60.0])
def test_mat_exp_matches_a_40_digit_oracle(norm):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 6):
        for _ in range(3):
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            X *= norm / np.abs(X).sum(axis=0).max()
            with mpmath.workdps(40):
                exact = np.array(mpmath.expm(mpmath.matrix(X.tolist())).tolist(), dtype=complex)
            err = np.linalg.norm(mat_exp(X) - exact) / np.linalg.norm(exact)
            assert err <= 8 * np.finfo(float).eps * max(1.0, norm), (n, err)


def test_mat_exp_of_the_empty_and_1x1_matrices_is_entrywise():
    empty = mat_exp(np.zeros((0, 0)))
    assert empty.shape == (0, 0) and empty.dtype == np.complex128
    np.testing.assert_array_equal(mat_exp([[1.0 + 2.0j]]), np.exp([[1.0 + 2.0j]]))
    with pytest.raises(DimensionMismatch):
        mat_exp(np.zeros((2, 3)))
    with pytest.raises(NonFiniteInput):
        mat_exp([[np.nan, 0.0], [0.0, 1.0]])


def test_mat_exp_overflows_to_inf_with_a_warning():
    with pytest.warns(RuntimeWarning) as record:
        assert np.isinf(mat_exp([[800.0]])).all()
        E = mat_exp(np.diag([800.0, -800.0]))
        assert not np.isfinite(mat_exp(np.full((2, 2), 1e308))).any()  # the 1-norm itself overflows
    assert np.isinf(E[0, 0]) and E[1, 1] == 0
    assert all("overflow" in str(w.message) or "invalid" in str(w.message) for w in record)


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
    r = eig(M)
    with np.errstate(over="ignore"):
        bound = DEFAULT_TOL_EIG * _frobenius(M)
    assert np.isfinite(r.max_residual) and r.max_residual <= bound
    np.testing.assert_allclose(r.values, np.linalg.eigvalsh(M)[::-1], rtol=1e-12)


def test_frobenius_matches_numpy_and_rescales_only_an_overflowing_norm():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    ref = np.linalg.norm(A)  # one vdot: numpy's norm to the rounding of an A.size-term sum
    assert abs(_frobenius(A) - ref) <= 2 * A.size * np.finfo(float).eps * ref
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


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "fancy", "masked", "real"])
def test_frobenius_is_within_2n_eps_of_numpy_on_any_layout(layout):
    # one vdot sums in another order than np.linalg.norm's two real dots, so
    # the two agree to the rounding of an n-term sum, n the number of entries
    rng = np.random.default_rng(11)
    for n in range(1, 33):
        big = rng.standard_normal((2 * n, 3 * n)) + 1j * rng.standard_normal((2 * n, 3 * n))
        big *= 10.0 ** rng.uniform(-100, 100, (2 * n, 1))
        x = {"contiguous": big[:n, :n].copy(), "transposed": big[:n, :n].T, "strided": big[::2, ::3],
             "fancy": big[[n - 1, 0, n // 2]][:, [2, 0, 1]], "masked": big[:n, :n][np.tri(n, k=-1, dtype=bool)],
             "real": big.real[::2, ::3]}[layout]
        ref = np.linalg.norm(x)
        assert abs(_frobenius(x) - ref) <= 2 * x.size * np.finfo(float).eps * ref, (n, layout)


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
    with pytest.raises(NotHermitian):
        signed_ldl([[1e200, 5e199], [0, -1e200]])
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
    # the loop itself raises nothing: it stops at the exactly zero pivot 2,
    # and d and cancels read 0 from there on
    H = np.array([[1, 1, 5], [1, 1, 1], [5, 1, 1]], dtype=complex)
    with pytest.raises(SingularMinor) as exc:
        signed_ldl(H)
    assert exc.value.index == 2
    L, d, cancels = _signed_ldl(H)
    assert d.tolist() == [1.0, 0.0, 0.0] and cancels.tolist() == [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(L, [[1, 0, 0], [1, 1, 0], [5, 0, 1]])


def test_signed_ldl_small_but_accurate_pivot_is_kept():
    # the 2,2 pivot is the ratio of a unit minor to a large one -- tiny in
    # absolute terms yet exactly representable; it must not be flagged
    big = 1e8
    H = np.diag([big, 1.0 / big]).astype(complex)
    L, d = signed_ldl(H)
    np.testing.assert_allclose(d, [big, 1.0 / big], rtol=1e-15)


def test_signed_ldl_subtracted_mass_does_not_overflow():
    # L_21 = 1e160, so |L_21|^2 overflows, but |L_21|^2 |d_1| = (1e160 * 1e-150)^2 = 1e20 does not
    L, d = signed_ldl([[1e-300, 1e-140], [1e-140, -1]])
    np.testing.assert_allclose(d, [1e-300, -1e20], rtol=1e-15)
    np.testing.assert_allclose(L[1, 0], 1e160, rtol=1e-15)


@pytest.mark.parametrize("eps", [0.5e-6, 1.5e-6, 2.5e-6])
def test_certified_cholesky_judges_a_cancelling_pivot_as_the_loop_does(eps):
    # pivot 2 is eps = (1 + eps) - 1: its cancellation scale is |A_22| plus the
    # subtracted mass |L_21|^2 = 1, so at tol = 1e-6 it clears only past 2e-6
    A = np.array([[1.0, 1.0], [1.0, 1.0 + eps]], dtype=complex)
    certified = _definite(A, abs(A.diagonal().real), 1e-6) is not None
    assert certified == (eps > 2e-6)
    _, d, cancels = _signed_ldl(A)
    assert _pivot_clears(d, cancels, 1e-6).all() == certified


def test_definite_reads_a_lapack_failure_from_its_nan_factor():
    # LAPACK declines an indefinite matrix by filling the factor with NaN and
    # raising only the invalid flag: under the public call's errstate that is
    # a plain None, and outside it the flag is all that warns
    A = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    scale = abs(A.diagonal().real)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel._quiet(_definite)(A, scale, 1e-12) is None
    with pytest.warns(RuntimeWarning, match="invalid"):
        assert _definite(A, scale, 1e-12) is None


@pytest.mark.parametrize("vectors", [False, True])
def test_spectrum_reads_a_lapack_failure_from_a_nan_eigenvalue(monkeypatch, vectors):
    nan = np.full(3, np.nan, dtype=complex)
    monkeypatch.setattr(kernel, "_lapack", SimpleNamespace(
        eigvals=lambda M, signature: nan.copy(), eig=lambda M, signature: (nan.copy(), np.eye(3, dtype=complex))))
    with pytest.raises(NoConvergence):
        _spectrum(np.eye(3, dtype=complex), vectors)
    with pytest.raises(NoConvergence):
        eig(np.eye(3))


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


def _back_substitution(U, B):
    X = np.zeros_like(B)
    for k in range(U.shape[0] - 1, -1, -1):
        X[k] = (B[k] - U[k, k + 1 :] @ X[k + 1 :]) / U[k, k]
    return X


def _forward_substitution(L, B):
    X = np.zeros_like(B)
    for k in range(L.shape[0]):
        X[k] = (B[k] - L[k, :k] @ X[:k]) / L[k, k]
    return X


def test_solve_upper_triangular_agrees_with_substitution_on_graded_rows():
    # rows scaled from 1e-8 to 1e8: each solve agrees with its substitution
    # loop within the componentwise bound n eps |T^-1| |T| |X| of a triangular
    # solve, the upper triangle U and, for kernel._solve_lower, L = U^T
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        scale = rng.permutation(np.logspace(-8, 8, n))
        U = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        U *= (scale / np.abs(U).max(axis=1))[:, None]
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        X = solve_upper_triangular(U, B, tol=0.0)
        for T, got, substitution in ((U, X, _back_substitution), (U.T, _solve_lower(U.T, B), _forward_substitution)):
            ref = substitution(T, B)
            bound = np.abs(substitution(T, np.eye(n, dtype=complex))) @ np.abs(T) @ np.abs(ref)
            assert (np.abs(got - ref) <= 2 * n * np.finfo(float).eps * bound).all()
        lower = np.tril(rng.standard_normal((n, n)), -1) * 1e8
        np.testing.assert_array_equal(solve_upper_triangular(U + lower, B, tol=0.0), X)


def test_solve_upper_triangular_singular_diagonal():
    with pytest.raises(SingularDiagonal) as exc:
        solve_upper_triangular([[1, 1], [0, 0]], np.eye(2))
    assert exc.value.index == 2


def test_solve_upper_triangular_shape_check():
    with pytest.raises(DimensionMismatch):
        solve_upper_triangular(np.eye(2), np.eye(3))
