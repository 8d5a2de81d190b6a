"""Exception types shared across the package."""


class SupqError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SupqError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class NonFiniteInput(SupqError, ValueError):
    """NaN or Inf entries are not admitted into public operations."""


class ZeroVector(SupqError, ValueError):
    """A nonzero vector was required."""


class NotHermitian(SupqError, ValueError):
    """Matrix expected to equal its conjugate transpose to tolerance."""


class NoConvergence(SupqError):
    """A kernel routine exhausted its budget or missed its residual target."""


class SingularDiagonal(SupqError):
    """A triangular solve met a diagonal entry that is zero to tolerance."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"triangular factor has a singular diagonal at position {index}")


class MembershipError(SupqError, ValueError):
    """Input fails a required subgroup or submanifold membership test."""

    set_name = "the required set"

    def __init__(self, message: str | None = None):
        super().__init__(message or f"matrix is not in {self.set_name} to tolerance")


class NotInG(MembershipError):
    set_name = "SL(n, C)"


class NotInG0(MembershipError):
    set_name = "SU(p, q)"


class NotInQ(MembershipError):
    set_name = "the dagger-fixed set Q"


class NotInAN(MembershipError):
    set_name = "the triangular subgroup AN"


class NotDecomposable(SupqError):
    """The element admits no SU(p,q) * AN factorization.

    ``index`` is the 1-based column / pivot where the failure was detected and
    ``kind`` names the failure mode (``wrong_cone``, ``null_boundary``,
    ``singular_minor``, ``wrong_inertia``, ``unitary_check``).
    """

    def __init__(self, message: str, index: int | None = None, kind: str | None = None):
        self.index = index
        self.kind = kind
        super().__init__(message)


class _PivotRefusal(NotDecomposable):
    """A refusal at a pivot of the Gauss route; each subclass holds its ``kind``
    and its default message, a template filled with the 1-based pivot index."""

    kind: str
    template: str

    def __init__(self, index: int, message: str | None = None):
        super().__init__(message or self.template.format(index), index=index, kind=self.kind)


class SingularMinor(_PivotRefusal):
    """A leading principal minor vanishes to tolerance (factorization boundary)."""

    kind = "singular_minor"
    template = "leading principal minor {} vanishes to tolerance"


class WrongInertia(_PivotRefusal):
    """A pivot sign is incompatible with any positive-diagonal triangular factor."""

    kind = "wrong_inertia"
    template = "pivot {} has the wrong sign for a positive-diagonal factor"


class NotTimelike(SupqError, ValueError):
    """The pseudo Rayleigh quotient needs a vector of positive indefinite norm."""


class NotAdmissible(SupqError):
    """The element fails the strict spectral-gap admissibility condition."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class ParseError(SupqError, ValueError):
    """Malformed matrix document or report."""
