"""Iwasawa-type factorization of SL(n, C) relative to SU(p, q).

Numerical routines for the signature-(p, q) indefinite pairing, the
associated subgroup memberships, strict spectral-gap admissibility, two
independent g = s b decomposition routes, the dressing action of the
triangular subgroup on the pseudo-unitary one, and an exact 2x2 oracle.
"""

from .admissible import (
    AdmissibilityReport,
    check_admissible_an,
    check_admissible_q,
    cone_preservation_check,
    is_admissible_diag,
    leading_minors,
    pseudo_rayleigh,
)
from .errors import (
    DimensionMismatch,
    MembershipError,
    NoConvergence,
    NonFiniteInput,
    NotAdmissible,
    NotDecomposable,
    NotInAN,
    NotInG,
    NotInG0,
    NotInQ,
    NotTimelike,
    ParseError,
    SingularMinor,
    SupqError,
    WrongInertia,
    ZeroVector,
)
from .groups import (
    GroupTag,
    is_member,
    random_admissible_diag,
    random_an,
    random_g0,
)
from .indefinite import ConeClass, Signature, classify, dagger, norm_sq, pairing, sample_cone
from .iwasawa import (
    DecompPair,
    DressResult,
    decompose_g_admissible,
    decompose_gauss,
    decompose_gs,
    dress,
    q_log,
    sym,
)
from .kernel import DEFAULT_TOL, mat_exp
from .su11 import (
    Sl2Element,
    Su11ANElement,
    Su11QElement,
    su11_an_admissible,
    su11_decompose,
    su11_q_admissible,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ConeClass",
    "DEFAULT_TOL",
    "DecompPair",
    "DimensionMismatch",
    "DressResult",
    "GroupTag",
    "MembershipError",
    "NoConvergence",
    "NonFiniteInput",
    "NotAdmissible",
    "NotDecomposable",
    "NotInAN",
    "NotInG",
    "NotInG0",
    "NotInQ",
    "NotTimelike",
    "ParseError",
    "Signature",
    "SingularMinor",
    "Sl2Element",
    "Su11ANElement",
    "Su11QElement",
    "SupqError",
    "WrongInertia",
    "ZeroVector",
    "check_admissible_an",
    "check_admissible_q",
    "classify",
    "cone_preservation_check",
    "dagger",
    "decompose_g_admissible",
    "decompose_gauss",
    "decompose_gs",
    "dress",
    "is_admissible_diag",
    "is_member",
    "leading_minors",
    "mat_exp",
    "norm_sq",
    "pairing",
    "pseudo_rayleigh",
    "q_log",
    "random_admissible_diag",
    "random_an",
    "random_g0",
    "sample_cone",
    "su11_an_admissible",
    "su11_decompose",
    "su11_q_admissible",
    "sym",
]
