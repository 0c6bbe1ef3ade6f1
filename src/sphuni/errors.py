"""Exception types raised by sphuni, and the number rules that raise them."""

import numbers


class SphuniError(Exception):
    """Base class for all sphuni errors."""


class BadShapeError(SphuniError, ValueError):
    """Input array does not have the required (n, p) layout."""


class ZeroRowError(SphuniError, ValueError):
    """A row has norm too small to normalize."""


class NotUnitError(SphuniError, ValueError):
    """A row is not unit-norm and normalization was not requested."""


class NotOrthogonalError(SphuniError, ValueError):
    """A matrix expected to be orthogonal is not."""


class DomainError(SphuniError, ValueError):
    """Argument outside the mathematical domain of a function."""


class BadTailError(SphuniError, ValueError):
    """Requested rejection tail is not supported by the method."""


class CalibrationUnavailableError(SphuniError, ValueError):
    """Monte Carlo calibration was requested without the inputs it needs."""


class ConfigError(SphuniError, ValueError):
    """Experiment configuration violates an invariant."""


class InRegimeError(SphuniError, ValueError):
    """Model parameters fall outside the regime the experiment supports."""


class ParseError(SphuniError, ValueError):
    """A config or data file could not be parsed; message names the spot."""


def _integer(value, error, field: str) -> int:
    """`value` as an int if it is an int or a numpy integer, else `error`
    naming `field`: int() would truncate a float and read a bool as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{field}: must be an integer, got {value!r}")
    return int(value)


def _real(value, error, field: str) -> float:
    """`value` as a float if it is a real number but not a bool, else `error`
    naming `field`: float() would read a string, and comparing one fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{field}: must be a number, got {value!r}")
    return float(value)
