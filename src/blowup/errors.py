"""Shared exception bases. Concrete errors live next to the code that raises them.

Every concrete error subclasses exactly one of InputError (the caller's input
is wrong; the CLI exits 1) and SolverError (the input is valid but the run
cannot produce an estimate; the CLI exits 3).
"""


class BlowupError(Exception):
    """Base class for all library errors."""


class InputError(BlowupError, ValueError):
    """Raised when an argument, option, expression or path is not usable; a ValueError."""


class SolverError(BlowupError):
    """Raised when an integration run cannot produce an estimate."""
