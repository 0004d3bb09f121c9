"""Exception types raised by the deblurring toolkit.

All classes derive from ValueError so call sites that only care about
"bad input" can catch a single base type. The CLI maps ConfigError and
file-format problems to exit code 2 and numeric failures to exit code 3.

The input rules live here too, since every module imports this one:
each size, count, seed, width, weight and level passes through
`_check_int` or `_check_real`, and each data array through
`_check_finite`, where it enters the API.
"""

import math
import numbers
import operator

import numpy as np


class InvalidParameterError(ValueError):
    """A scalar parameter is out of its documented range."""


class SizeMismatchError(ValueError):
    """An array does not have the shape a routine requires."""


class SizeGuardError(ValueError):
    """A dense oracle was asked for a problem too large to materialize."""


class SupportConditionError(ValueError):
    """A blur mask is too wide for the image under the chosen boundary rule."""


class AsymmetricMaskError(ValueError):
    """A routine that needs a centrosymmetric mask received one that is not."""


class NotSeparableError(ValueError):
    """A routine that needs a rank-one mask received one that is not."""


class UnsupportedAlgebraError(ValueError):
    """The boundary rule has no fast spectral decomposition."""


class SingularMixingError(ValueError):
    """The cross-channel mixing matrix is singular and cannot be inverted."""


class FormatError(ValueError):
    """An image or mask file is malformed.

    Parameters
    ----------
    message : str
        Human-readable description of the problem.
    offset : int, optional
        Byte offset in the file at which the problem was detected.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(ValueError):
    """An experiment configuration is incomplete or inconsistent."""


def _check_int(value, name, low=None):
    """The one integer rule: value as a Python int of at least low.

    operator.index must accept value, so Python and numpy integers pass
    and 3.7, 2.0, "4" and None do not. Raises InvalidParameterError
    naming the parameter.
    """
    try:
        number = operator.index(value)
        if low is None or number >= low:
            return number
    except TypeError:
        pass
    bound = "" if low is None else f" >= {low}"
    raise InvalidParameterError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(value, name, strict=True):
    """The one finite-real rule: value > 0 (>= 0 unless strict).

    value must be a finite numbers.Real; it is returned unchanged.
    Raises InvalidParameterError naming the parameter.
    """
    finite = isinstance(value, numbers.Real) and math.isfinite(value)
    if not (finite and (value > 0 if strict else value >= 0)):
        sign = ">" if strict else ">="
        raise InvalidParameterError(f"{name} must be finite and {sign} 0, got {value!r}")
    return value


def _check_finite(array, what):
    """The one finite-array rule: array, unless it holds NaN or inf.

    Raises InvalidParameterError naming what the array is.
    """
    if not np.isfinite(array).all():
        raise InvalidParameterError(f"{what} holds NaN or inf values")
    return array
