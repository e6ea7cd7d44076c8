"""Exception types shared across the package."""


class StationaryLabError(Exception):
    """Base class for all package errors."""


class MalformedInputError(StationaryLabError, ValueError):
    """Input data violates a structural requirement (bad letter, bad mass, ...)."""


class ContextMismatchError(StationaryLabError, ValueError):
    """Operands were built over free groups of different ranks."""


class PreconditionError(StationaryLabError, ValueError):
    """A documented operation precondition does not hold."""


class ResourceLimitError(StationaryLabError, RuntimeError):
    """A configured resource cap would be exceeded.

    The cap that fired is recorded in ``cap``.
    """

    def __init__(self, message: str, cap: int):
        super().__init__(f"{message} (cap: {cap})")
        self.cap = cap


class DepthUnderflowError(StationaryLabError, ValueError):
    """A cylinder evaluation needs more depth than the measure stores."""

    def __init__(self, required_depth: int, available_depth: int):
        super().__init__(
            f"operation requires cylinder depth {required_depth}, "
            f"measure stores depth {available_depth}"
        )
        self.required_depth = required_depth
        self.available_depth = available_depth


class ConvergenceError(StationaryLabError, RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(f"{message} (last residual: {last_residual:.3e})")
        self.last_residual = last_residual


class UndefinedAxisError(StationaryLabError, ValueError):
    """The identity has no boundary axis."""


class UnresolvedBoundaryError(StationaryLabError, RuntimeError):
    """A sampled path exposed no stable boundary prefix; carries the partial prefix."""

    def __init__(self, message: str, partial_prefix):
        super().__init__(message)
        self.partial_prefix = partial_prefix


class CoverageError(StationaryLabError, ValueError):
    """A table-backed function was asked for words outside its ball; lists them."""

    def __init__(self, missing):
        missing = list(missing)
        super().__init__(f"{len(missing)} required words outside the stored ball: "
                         + ", ".join(str(w) for w in missing[:8])
                         + ("..." if len(missing) > 8 else ""))
        self.missing = missing


class ConstructionError(StationaryLabError, RuntimeError):
    """A staged construction failed at a named level with a best-found bound."""

    def __init__(self, level: int, best_bound: float, message: str = ""):
        super().__init__(
            f"construction failed at level {level}; best certified bound {best_bound:.6f}"
            + (f"; {message}" if message else "")
        )
        self.level = level
        self.best_bound = best_bound


class InconclusiveError(StationaryLabError, RuntimeError):
    """A certified test ended neither passing nor failing."""
