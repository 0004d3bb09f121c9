"""Fast orthogonal-ish transforms that diagonalize the blur operators.

Three one-dimensional families appear, each applied along one axis and
combined per axis for images:

* the orthogonal cosine family (type-III DCT columns) for reflective
  boundaries,
* the symmetric involutory sine family (type-I DST) for the inner
  Toeplitz-plus-Hankel algebra,
* a sine family bordered by two linear ramp columns for anti-reflective
  boundaries, together with its explicit inverse.

Long sine transforms run through a Bluestein chirp convolution with
power-of-two FFTs, so throughput does not depend on how the transform
length factors. Short ones call the library sine transform directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.fft import dct, dst, fft, ifft, next_fast_len

from .errors import InvalidParameterError, SizeGuardError, SizeMismatchError

# Above this length the type-I sine transform switches to the Bluestein
# path; below it the direct library call is faster.
_SINE_DIRECT_LIMIT = 512
# Row blocks processed per chirp-convolution batch, sized so scratch
# buffers stay cache resident even for very long transforms.
_ROW_BLOCK = 64
_DENSE_LIMIT = 4096


class TransformKind(Enum):
    """Tags for the three transform families and the ramp-bordered inverse."""

    DCT3 = "dct3"
    DST1 = "dst1"
    AR = "ar"
    AR_INVERSE = "ar_inverse"


@dataclass(frozen=True)
class RampVector:
    """Precomputed ramp data for the anti-reflective transform of size m.

    Attributes
    ----------
    m : int
        Transform size, at least 3.
    p : ndarray
        Interior samples of the decreasing unit ramp, p[j-1] = 1 - j/(m-1)
        for j = 1..m-2.
    alpha : float
        sqrt(1 + ||p||^2); normalizes the two ramp columns to unit length.
    """

    m: int
    p: np.ndarray
    alpha: float


@lru_cache(maxsize=64)
def ramp_vector(m):
    """Return the cached RampVector for size m (m >= 3)."""
    if m < 3:
        raise InvalidParameterError(f"ramp transform needs m >= 3, got {m}")
    j = np.arange(1, m - 1)
    p = 1.0 - j / (m - 1)
    alpha = math.sqrt(1.0 + math.fsum(p * p))
    p.flags.writeable = False
    return RampVector(m=m, p=p, alpha=alpha)


def ramp_gram(m):
    """Off-identity columns of the ramp-bordered basis Gram matrix.

    With S = dense_transform(AR, m), S^T S = I + E, where E is symmetric
    and vanishes outside rows and columns 0 and m-1: the interior sine
    columns are orthonormal and the two ramp columns have unit length.
    Returns the (m, 2) array [E[:, 0], E[:, m-1]], computed in
    O(m log m): E[:, 0] = [0, DST-I(p)/alpha, p.p~/alpha^2], and E[:, m-1]
    is the same with the ramp p reversed into p~.
    """
    rv = ramp_vector(m)
    cols = np.zeros((m, 2))
    cols[1:-1] = dst1_apply(np.stack([rv.p, rv.p[::-1]], axis=1), axis=0) / rv.alpha
    cols[-1, 0] = cols[0, 1] = math.fsum(rv.p * rv.p[::-1]) / rv.alpha**2
    return cols


class _SinePlan:
    """Bluestein evaluation of the orthonormal type-I sine transform.

    The sine sum at frequencies pi*j*k/(m+1) is turned into a complex
    chirp convolution of length next_fast_len(2L-1). Chirp phases are
    reduced with exact integer arithmetic before exponentiation, which
    keeps the transform accurate to machine precision at any length.
    """

    def __init__(self, length):
        self.length = length
        denom = length + 1
        idx = np.arange(1, length + 1, dtype=np.int64)
        sq = (idx * idx) % (4 * denom)
        self.chirp = np.exp(1j * np.pi * sq / (2 * denom))
        self.scale = math.sqrt(2.0 / denom)
        self.nfft = next_fast_len(2 * length - 1)
        t = np.arange(-(length - 1), length, dtype=np.int64)
        kern = np.zeros(self.nfft, dtype=complex)
        kern[: 2 * length - 1] = np.exp(
            -1j * np.pi * ((t * t) % (4 * denom)) / (2 * denom)
        )
        self.kernel_f = fft(np.roll(kern, -(length - 1)))

    def rows(self, block):
        """Transform each row of a contiguous (n, length) block."""
        spec = fft(block * self.chirp, n=self.nfft, axis=-1)
        conv = ifft(spec * self.kernel_f, axis=-1)[:, : self.length]
        np.multiply(conv, self.chirp, out=conv)
        return self.scale * conv.imag


@lru_cache(maxsize=16)
def _sine_plan(length):
    return _SinePlan(length)


def _sine_rows(block):
    """Type-I sine transform of each row of a 2-D contiguous block."""
    length = block.shape[-1]
    if length <= _SINE_DIRECT_LIMIT:
        return dst(block, type=1, norm="ortho", axis=-1)
    plan = _sine_plan(length)
    out = np.empty_like(block)
    for i in range(0, block.shape[0], _ROW_BLOCK):
        out[i : i + _ROW_BLOCK] = plan.rows(block[i : i + _ROW_BLOCK])
    return out


def _ar_rows(block, inverse):
    """Ramp-bordered sine transform of each row of a contiguous block."""
    m = block.shape[-1]
    rv = ramp_vector(m)
    p = rv.p
    out = np.empty_like(block)
    for i in range(0, block.shape[0], _ROW_BLOCK):
        blk = block[i : i + _ROW_BLOCK]
        dest = out[i : i + _ROW_BLOCK]
        if inverse:
            interior = blk[:, 1:-1] - np.multiply.outer(blk[:, 0], p)
            interior -= np.multiply.outer(blk[:, -1], p[::-1])
            dest[:, 1:-1] = _sine_rows(np.ascontiguousarray(interior))
            dest[:, 0] = rv.alpha * blk[:, 0]
            dest[:, -1] = rv.alpha * blk[:, -1]
        else:
            first = blk[:, 0] / rv.alpha
            last = blk[:, -1] / rv.alpha
            interior = _sine_rows(np.ascontiguousarray(blk[:, 1:-1]))
            interior += np.multiply.outer(first, p)
            interior += np.multiply.outer(last, p[::-1])
            dest[:, 1:-1] = interior
            dest[:, 0] = first
            dest[:, -1] = last
    return out


def _over_axis(x, axis, rows_fn):
    x = np.asarray(x, dtype=float)
    xm = np.moveaxis(x, axis, -1)
    shape = xm.shape
    rows = np.ascontiguousarray(xm).reshape(-1, shape[-1])
    out = rows_fn(rows).reshape(shape)
    return np.moveaxis(out, -1, axis)


def dct3_apply(x, axis=-1, transposed=False):
    """Apply the orthogonal cosine transform along one axis.

    Parameters
    ----------
    x : array_like
    axis : int
        Axis to transform.
    transposed : bool
        If True apply the transpose (the inverse, since the family is
        orthogonal); used as the analysis step for reflective blurs.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[axis] < 1:
        raise SizeMismatchError("transform axis must be nonempty")
    kind = 2 if transposed else 3
    return dct(x, type=kind, norm="ortho", axis=axis)


def dst1_apply(x, axis=-1):
    """Apply the symmetric type-I sine transform along one axis.

    The matrix is orthogonal and involutory, so this routine is its own
    inverse.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[axis] < 1:
        raise SizeMismatchError("transform axis must be nonempty")
    return _over_axis(x, axis, _sine_rows)


def ar_apply(x, axis=-1):
    """Apply the ramp-bordered synthesis transform along one axis.

    Needs at least 3 samples along the axis. The first and last input
    entries become the (scaled) coefficients of the two boundary ramp
    columns; the interior passes through the sine transform plus ramp
    corrections.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[axis] < 3:
        raise SizeMismatchError("ramp-bordered transform needs length >= 3")
    return _over_axis(x, axis, lambda rows: _ar_rows(rows, inverse=False))


def ar_inverse_apply(x, axis=-1):
    """Apply the exact inverse of ar_apply along one axis."""
    x = np.asarray(x, dtype=float)
    if x.shape[axis] < 3:
        raise SizeMismatchError("ramp-bordered transform needs length >= 3")
    return _over_axis(x, axis, lambda rows: _ar_rows(rows, inverse=True))


def apply_transform(x, kind, axis=-1, transposed=False):
    """Apply one transform family along one axis.

    transposed is honored only by the cosine family; the sine family is
    its own transpose and the ramp-bordered pair is selected by kind.
    """
    if kind is TransformKind.DCT3:
        return dct3_apply(x, axis=axis, transposed=transposed)
    if kind is TransformKind.DST1:
        return dst1_apply(x, axis=axis)
    if kind is TransformKind.AR:
        return ar_apply(x, axis=axis)
    if kind is TransformKind.AR_INVERSE:
        return ar_inverse_apply(x, axis=axis)
    raise InvalidParameterError(f"unknown transform kind {kind!r}")


def two_level_apply(x, kind, transposed=False):
    """Apply a transform family along the last two axes of an array.

    Equivalent to multiplying the row-major flattening of each trailing
    2-D slice by the Kronecker product of the two one-axis matrices.

    Parameters
    ----------
    x : array_like
        Array with at least two dimensions; the last two are transformed.
    kind : TransformKind or tuple of TransformKind
        One family for both axes, or a (rows-axis, columns-axis) pair.
    transposed : bool
        Passed through to the cosine family.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise SizeMismatchError("two-level transform needs a 2-D array")
    kind0, kind1 = kind if isinstance(kind, tuple) else (kind, kind)
    out = apply_transform(x, kind0, axis=-2, transposed=transposed)
    return apply_transform(out, kind1, axis=-1, transposed=transposed)


def dense_transform(kind, m):
    """Materialize one transform matrix; guarded to m <= 4096.

    Returns the m x m matrix whose action equals apply_transform along
    a length-m axis.
    """
    if m < 1:
        raise InvalidParameterError("transform size must be positive")
    if m > _DENSE_LIMIT:
        raise SizeGuardError(
            f"dense transform limited to m <= {_DENSE_LIMIT}, got {m}"
        )
    return apply_transform(np.eye(m), kind, axis=0)
