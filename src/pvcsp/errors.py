"""Exception types shared across the package."""


class PvcspError(Exception):
    """Base class for all errors raised by this package."""


class UnknownSymbol(PvcspError):
    pass


class ArityMismatch(PvcspError):
    pass


class UnassignedVariable(PvcspError):
    pass


class DomainMismatch(PvcspError):
    pass


class DimensionMismatch(PvcspError):
    pass


class InfeasibleRegion(PvcspError):
    pass


class UnboundedObjective(PvcspError):
    pass


class PreconditionViolated(PvcspError):
    pass


class IndexMisalignment(PvcspError):
    pass


class InvariantViolated(PvcspError):
    """An internal check failed: a bug in the solver, not in the input."""


class ResourceGuard(PvcspError):
    """Raised when an exhaustive enumeration would exceed the configured cap."""


class FormatError(PvcspError):
    """Malformed structure, instance, or measure file."""
