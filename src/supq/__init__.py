"""Iwasawa-type factorization of SL(n, C) relative to SU(p, q).

Numerical routines for the signature-(p, q) indefinite pairing, the
associated subgroup memberships, strict spectral-gap admissibility, two
independent g = s b decomposition routes, the dressing action of the
triangular subgroup on the pseudo-unitary one, and an exact 2x2 oracle.

Names load on first use (Scientific Python SPEC 1, through the module
``__getattr__`` of PEP 562): ``import supq`` imports no submodule, and
``supq.dress`` imports ``supq.iwasawa`` and what it needs, not
``supq.admissible`` or ``supq.su11``.  A resolved name is then bound in the
package, so a later read is a plain lookup.
"""

import importlib

__version__ = "0.1.0"

#: The exported names, by the submodule that defines them.
_EXPORTS = {
    "admissible": ("AdmissibilityReport", "check_admissible_an", "check_admissible_q", "cone_preservation_check",
                   "is_admissible_diag", "leading_minors", "pseudo_rayleigh"),
    "errors": ("DimensionMismatch", "MembershipError", "NoConvergence", "NonFiniteInput", "NotAdmissible",
               "NotDecomposable", "NotInAN", "NotInG", "NotInG0", "NotInQ", "NotTimelike", "ParseError",
               "SingularMinor", "SupqError", "WrongInertia", "ZeroVector"),
    "groups": ("GroupTag", "is_member", "random_admissible_diag", "random_an", "random_g0"),
    "indefinite": ("ConeClass", "Signature", "classify", "dagger", "norm_sq", "pairing", "sample_cone"),
    "iwasawa": ("DecompPair", "DressResult", "decompose_g_admissible", "decompose_gauss", "decompose_gs", "dress",
                "q_log", "sym"),
    "kernel": ("DEFAULT_TOL", "mat_exp"),
    "su11": ("Sl2Element", "Su11ANElement", "Su11QElement", "su11_an_admissible", "su11_decompose",
             "su11_q_admissible"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
