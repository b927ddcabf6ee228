"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single except clause while
still being able to distinguish configuration mistakes from solver failures.
"""

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A model was constructed with physically meaningless parameters.

    Examples: negative channel width, zero concentration on both redox states,
    a floorplan block extending outside the die.
    """


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class OperatingPointError(ReproError):
    """The requested operating point is outside the feasible envelope.

    Raised, for instance, when a galvanostatic solve asks for more current
    than the mass-transport or Faradaic limit of a cell allows.
    """


def check_count(name: str, value: object) -> int:
    """``value`` as an ``int`` if it is an integer >= 1, else a
    :class:`ConfigurationError` naming ``name``; a bool, a float (even
    ``2.0``), a string and NaN are not counts."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
    ):
        raise ConfigurationError(
            f"{name} must be an integer >= 1, got {value!r}"
        )
    return int(value)
