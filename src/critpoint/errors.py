"""Exception types shared across the package, and the checkers that parse
a setting or an argument into a plain Python number or raise ParameterError."""

import cmath
import math
import numbers

import numpy as np


class CritpointError(Exception):
    """Base class for all critpoint errors."""


class ParameterError(CritpointError, ValueError):
    """A value passed to a constructor or operation is invalid."""


class ConvergenceError(CritpointError, RuntimeError):
    """The iterative solver failed to certify a solution.

    Carries ``worst_residual``, the largest uncertified residual at abort
    time, and the solver's history: ``active``, the points evaluated in
    each sweep, and ``worst_residuals``, the largest residual after each.
    """

    def __init__(self, message, worst_residual=None, active=(), worst_residuals=()):
        super().__init__(message)
        self.worst_residual = worst_residual
        self.active = tuple(active)
        self.worst_residuals = tuple(worst_residuals)


class NonDegeneracyError(CritpointError, ValueError):
    """The probe vector admits an almost-sure linear relation and the
    anti-concentration bound does not apply."""


class PoleOnContourError(CritpointError, ValueError):
    """A root lies on (or numerically on) the evaluation contour."""


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def as_real(v, what: str = "value") -> float:
    """A finite real number as a float; anything else raises ParameterError."""
    if not _is_real(v) or not math.isfinite(v):
        raise ParameterError(f"{what} must be a finite real number, got {v!r}")
    return float(v)


def as_positive(v, what: str = "value") -> float:
    """A positive finite real number as a float; else ParameterError."""
    x = as_real(v, what)
    if not x > 0:
        raise ParameterError(f"{what} must be positive, got {v!r}")
    return x


def as_int(v, what: str = "value") -> int:
    """An integer (not a float or a boolean) as an int; else ParameterError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ParameterError(f"{what} must be an integer, got {v!r}")
    return int(v)


def as_count(v, what: str = "count") -> int:
    """A positive integer (not a float or a boolean) as an int; else ParameterError."""
    n = as_int(v, what)
    if n < 1:
        raise ParameterError(f"{what} must be a positive integer, got {v!r}")
    return n


def as_complex(v, what: str = "value") -> complex:
    """A number or a JSON [re, im] pair as a finite complex; anything else,
    booleans, NaN and infinity included, raises ParameterError."""
    parts = (v.real, v.imag) if isinstance(v, numbers.Complex) and not isinstance(v, bool) else v
    if not (isinstance(parts, (list, tuple)) and len(parts) == 2
            and all(_is_real(x) for x in parts)):
        raise ParameterError(f"{what} must be a number or [re, im] pair, got {v!r}")
    z = complex(float(parts[0]), float(parts[1]))
    if not cmath.isfinite(z):
        raise ParameterError(f"{what} must be finite, got {v!r}")
    return z


def as_list(v, parse, what: str = "value") -> list:
    """Each entry of a list, tuple or 1-d array through parse(entry, what);
    anything else raises ParameterError."""
    if not (isinstance(v, (list, tuple)) or (isinstance(v, np.ndarray) and v.ndim == 1)):
        raise ParameterError(f"{what} must be a list, got {v!r}")
    return [parse(x, what) for x in v]
