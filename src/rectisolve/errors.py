"""Exception hierarchy shared across the package.

Three top-level families map onto CLI exit codes: bad input (2),
exceeded safety guards (3), and internal infeasibility (4).
"""


class InputError(ValueError):
    """Invalid user-supplied data: files, parameters, malformed solutions."""


class InstanceFormatError(InputError):
    """Instance file does not follow the point-list format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLineError(InstanceFormatError):
    pass


class CoordinateRangeError(InstanceFormatError):
    pass


class CountMismatchError(InstanceFormatError):
    pass


class EmptyInstanceError(InstanceFormatError):
    pass


class NonIntegerCoordinateError(InputError):
    """A coordinate handed to ``make_instance`` is not an integer."""


class GuardExceeded(RuntimeError):
    """A size/complexity guard refused the request before any allocation."""


class InternalInfeasibleError(RuntimeError):
    """The solver reached a state that is impossible for valid instances.

    Raised when a kernel's table is malformed, no final state is accepted, or a
    reconstructed solution fails its own validity replay. Always a bug.
    """


class NotEulerianError(InternalInfeasibleError):
    """Tour extraction was handed a subgraph without an Eulerian circuit."""
