"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it as `exit_code`.
"""


class MonodomError(Exception):
    """Base class for all errors raised by monodom."""

    exit_code = 1


class TableMismatchError(MonodomError):
    """Two monomials from different variable tables were combined."""


class InvalidIdealError(MonodomError):
    """Input does not yield a valid monomial ideal (empty, unit, ...)."""


class UnknownVariableError(MonodomError):
    """A variable name is not present in the ambient table."""


class IdealSyntaxError(MonodomError):
    """Ideal text does not conform to the input grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidParameterError(MonodomError, ValueError):
    """A field or fuzzing parameter is out of range (a non-prime modulus, ...)."""


class GuardExceeded(MonodomError):
    """A configured enumeration bound was exceeded; fail loudly, never truncate."""

    exit_code = 2


class TaylorTooLarge(GuardExceeded):
    """Generator count too large for full 2^q complex construction."""

    def __init__(self, q: int, limit: int):
        super().__init__(f"refusing to build 2^{q} Taylor symbols (limit q <= {limit})")
        self.q = q
        self.limit = limit


class InternalInvariantError(MonodomError):
    """A structural invariant (d∘d = 0, multihomogeneity, ...) failed."""

    exit_code = 3


class FuzzFailure(MonodomError):
    """A fuzzed ideal violated a theorem check; carries a reproduction recipe."""

    exit_code = 3

    def __init__(self, message: str, ideal_text: str, origin: str):
        super().__init__(f"{message}\n  ideal:  {ideal_text}\n  origin: {origin}")
        self.ideal_text = ideal_text
        self.origin = origin
