"""Exact 2x2 case (signature (1, 1)) in closed form.

For g = [[a, b], [c, d]] in SL(2, C), the factorization into SU(1,1) times
the triangular subgroup exists iff |a| > |c|.  With delta = sqrt(|a|^2 - |c|^2),
computed as sqrt(|a| - |c|) sqrt(|a| + |c|) so that no square overflows:

    k = (1/delta) [[a, conj(c)], [c, conj(a)]]
    b = [[delta, conj(a / delta) b - conj(c / delta) d], [0, 1/delta]]

The admissibility inequalities are equally explicit: a dagger-fixed
[[t1, m], [-conj(m), t2]] is admissible iff t1 + t2 > 2 and t1 > 1, and a
triangular [[r, n], [0, 1/r]] iff r > 1 and r^2 + r^{-2} - |n|^2 > 2, i.e. r - 1/r > |n|.
No formula here squares an entry, so the oracle follows its inputs across the float range.

These formulas are the independent oracle the general-n algorithms are
differentially tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDecomposable

_INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class Sl2Element:
    """Element of SL(2, C); the determinant condition is validated on construction."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _INVARIANT_TOL * max(1.0, abs(det)):
            raise ValueError(f"determinant must be 1, got {det}")

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.complex128)

    @classmethod
    def from_matrix(cls, M) -> "Sl2Element":
        M = np.asarray(M, dtype=np.complex128)
        if M.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {M.shape}")
        return cls(complex(M[0, 0]), complex(M[0, 1]), complex(M[1, 0]), complex(M[1, 1]))


@dataclass(frozen=True)
class Su11QElement:
    """Dagger-fixed 2x2 element [[t1, m], [-conj(m), t2]] with t1 t2 + |m|^2 = 1."""

    t1: float
    t2: float
    m: complex

    def __post_init__(self):
        det = self.t1 * self.t2 + abs(self.m) ** 2
        if abs(det - 1.0) > _INVARIANT_TOL * max(1.0, abs(det)):
            raise ValueError(f"t1 t2 + |m|^2 must be 1, got {det}")

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.t1, self.m], [-np.conj(self.m), self.t2]], dtype=np.complex128
        )


@dataclass(frozen=True)
class Su11ANElement:
    """Triangular 2x2 element [[r, n], [0, 1/r]] with r > 0."""

    r: float
    n: complex

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.r, self.n], [0.0, 1.0 / self.r]], dtype=np.complex128)


def su11_decompose(g: Sl2Element) -> tuple[Sl2Element, Su11ANElement]:
    """Closed-form factorization g = k b, k in SU(1,1), b triangular.

    Raises
    ------
    NotDecomposable
        When |a| <= |c| (the element lies outside the identity cell).
    """
    a, c = abs(g.a), abs(g.c)
    if a <= c:
        raise NotDecomposable(
            "2x2 factorization requires |a| > |c|", index=1, kind="wrong_cone"
        )
    delta = math.sqrt(a - c) * math.sqrt(a + c)
    k = Sl2Element(
        g.a / delta, np.conj(g.c) / delta, g.c / delta, np.conj(g.a) / delta
    )
    n = np.conj(g.a / delta) * g.b - np.conj(g.c / delta) * g.d
    return k, Su11ANElement(r=delta, n=complex(n))


def su11_q_admissible(s: Su11QElement) -> bool:
    """Exact admissibility of a dagger-fixed 2x2 element: t1 + t2 > 2 and t1 > 1."""
    return s.t1 + s.t2 > 2.0 and s.t1 > 1.0


def su11_an_admissible(b: Su11ANElement) -> bool:
    """Exact admissibility of a triangular 2x2 element: r > 1 and
    r^2 + r^{-2} - |n|^2 > 2, tested as r - 1/r > |n|."""
    return b.r > 1.0 and b.r - 1.0 / b.r > abs(b.n)
