"""Both decomposition routes against exactly known factors at n up to 32.

``s`` is a product of dyadic SU(1, 1) boosts embedded on the index pairs
(i, p + i), with ``cosh, sinh = (2^k +- 2^-k) / 2``, times a diagonal of
fourth roots of unity with product 1; ``b`` is a dyadic element of AN: the
diagonal ``2^m`` with ``sum(m) = 0`` and upper entries that are complex
multiples of 2^-8.  Every product in ``s @ b`` is exact in double
precision, so ``g = s @ b`` is known exactly and so are its factors (the
factorization is unique).  This judges the routes at sizes where a
high-precision reference would be slow.
"""

import numpy as np
import pytest

from supq.groups import GroupTag, is_member
from supq.indefinite import Signature
from supq.iwasawa import decompose_gauss, decompose_gs

# k <= 4 and |m| <= 2 keep cond(g) below about 1e9 at n = 32
KMAX, MMAX = 4, 2
DRAWS = 30

# Bounds on the worst relative forward error max(||s' - s||_F / ||s||_F,
# ||b' - b||_F / ||b||_F) over the draws below: both routes return the exact
# factors.  The Gauss route divides by triangles only by back substitution,
# in the J-Cholesky's off-diagonal block and in s = g b^{-1}, with no row
# swapped, so its arithmetic stays on these dyadics; a solve that swaps rows
# leaves an error of about eps cond(g).  Gram-Schmidt's arithmetic stays
# exact on these inputs (each residual is a column of s times 2^m, so its
# indefinite length is a power of two, and every coefficient is a short
# dyadic).
GAUSS_BOUND = 0.0
GS_BOUND = 0.0


def exact_pair(rng: np.random.Generator, sig: Signature, k: int | None = None, mmax: int = MMAX):
    """``(s, b)``: a dyadic element of SU(p, q) and a dyadic element of AN (n
    even).  Each boost draws its k from 0..KMAX unless ``k`` fixes it; the
    diagonal exponents m of b satisfy ``|m| <= mmax``."""
    n, p = sig.n, sig.p
    s = np.eye(n, dtype=complex)
    draw = k is None
    for i in range(min(p, sig.q)):
        if draw:
            k = int(rng.integers(0, KMAX + 1))
        s[i, i] = s[p + i, p + i] = (2.0**k + 2.0**-k) / 2
        s[i, p + i] = s[p + i, i] = (2.0**k - 2.0**-k) / 2
    phase = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, n)]
    phase[-1] = np.conj(np.prod(phase[:-1]))
    s *= phase
    half = rng.integers(-mmax, mmax + 1, n // 2)
    b = np.diag(2.0 ** rng.permutation(np.concatenate([half, -half]))).astype(complex)
    rows, cols = np.triu_indices(n, 1)
    b[rows, cols] = (rng.integers(-256, 257, rows.size) + 1j * rng.integers(-256, 257, rows.size)) / 256
    return s, b


def exact_product_holds(s: np.ndarray, b: np.ndarray) -> bool:
    """Whether the double product ``s @ b`` equals the exact one, formed in
    integers: ``2^(KMAX+1) s`` and ``2^8 b`` have Gaussian-integer entries."""
    S, B = s * 2.0 ** (KMAX + 1), b * 2.0**8
    assert np.array_equal(S, S.round()) and np.array_equal(B, B.round())
    Sr, Si, Br, Bi = (x.astype(np.int64) for x in (S.real, S.imag, B.real, B.imag))
    g = (s @ b) * 2.0 ** (KMAX + 9)
    return np.array_equal(g.real, Sr @ Br - Si @ Bi) and np.array_equal(g.imag, Sr @ Bi + Si @ Br)


def _forward_error(pair, s, b) -> float:
    return max(np.linalg.norm(pair.s - s) / np.linalg.norm(s), np.linalg.norm(pair.b - b) / np.linalg.norm(b))


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_routes_recover_exact_factors(n):
    rng = np.random.default_rng(3100 + n)
    worst = {"gauss": 0.0, "gs": 0.0}
    for _ in range(DRAWS):
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        s, b = exact_pair(rng, sig)
        assert is_member(s, GroupTag.G0, sig) and is_member(b, GroupTag.AN, sig)
        assert exact_product_holds(s, b)
        g = s @ b
        for route, decompose in (("gauss", decompose_gauss), ("gs", decompose_gs)):
            pair = decompose(g, sig)
            assert is_member(pair.s, GroupTag.G0, sig), route
            assert is_member(pair.b, GroupTag.AN, sig), route
            worst[route] = max(worst[route], _forward_error(pair, s, b))
    assert worst["gauss"] <= GAUSS_BOUND, worst
    assert worst["gs"] <= GS_BOUND, worst


# Two cells of ill-conditioned exact members, every boost at the same k, as
# (n, k, mmax, seed); the median cond(g) is about 1e17 and 2e12.  The Gauss
# route returns every draw with b exact and s in SU(p, q), and a residual
# within n eps ||s||_F ||b||_F.  Row swaps in either triangular division, or
# s = x @ inv(b), lose that here: exact members are then refused as
# WrongInertia, or returned with a residual far above the bound.  The cell
# n = 16, k = 18 (seed 18) is not pinned: Gauss returns 19 draws there and
# names one WrongInertia, which ROADMAP item 9's proven cell verdict is to
# settle.
ILL_CONDITIONED_CELLS = [(32, 2, 6, 2), (32, 4, 4, 4)]


@pytest.mark.parametrize("n, k, mmax, seed", ILL_CONDITIONED_CELLS)
def test_gauss_residual_is_at_roundoff_on_ill_conditioned_cells(n, k, mmax, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        p = int(rng.integers(1, n))
        sig = Signature(p, n - p)
        s, b = exact_pair(rng, sig, k, mmax)
        g = s @ b
        pair = decompose_gauss(g, sig)  # every draw returns: a refusal fails the test
        assert np.array_equal(pair.b, b), p
        assert is_member(pair.s, GroupTag.G0, sig), p
        bound = n * np.finfo(float).eps * np.linalg.norm(pair.s) * np.linalg.norm(pair.b)
        assert pair.residual <= bound, (p, pair.residual / bound)
