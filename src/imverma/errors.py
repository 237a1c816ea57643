"""Exception types shared across the library."""


class ImvermaError(Exception):
    """Base class for all domain errors raised by this library."""


class CartanMatrixError(ImvermaError):
    pass


class ContextMismatchError(ImvermaError):
    """Two operands belong to different algebra contexts."""


class NotARootError(ImvermaError):
    pass


class AutomorphismError(ImvermaError):
    pass


class WindowOverflowError(ImvermaError):
    """An exact result does not fit the requested truncation window."""


class ModuleDataError(ImvermaError):
    """Invalid explicit-module data (bad tables, non-torsion input, ...)."""


class AuditError(ImvermaError):
    """A decomposition dimension audit failed; never silently accepted."""
