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

Every public transform goes through one driver. The cosine family is
the library DCT along the axis. The sine-family kinds walk the axis in
blocks of lines: each block is gathered into a contiguous buffer,
transformed there in place and written into the result. A call
allocates its result and one block's buffers, never an image-sized
copy, and a two-level transform runs its second pass in place on the
first pass's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np
from scipy.fft import dct, dst, fft, ifft, next_fast_len

from .errors import InvalidParameterError, SizeGuardError, SizeMismatchError

# Above this length the type-I sine transform switches to the Bluestein
# path; below it the direct library call is faster.
_SINE_DIRECT_LIMIT = 512
# Lines per block of the sine-family driver. A call allocates one block's
# buffers once and reuses them: two real (64, m) arrays and, above the
# direct limit, a complex (64, nfft) Bluestein scratch. That scratch is
# 2 MiB at m = 1024 and 4 MiB at m = 2046, larger than most caches; it
# bounds working memory and allocator traffic, not cache residency.
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


@lru_cache(maxsize=16)
class _SinePlan:
    """Bluestein evaluation of the orthonormal type-I sine transform.

    The sine sum at frequencies pi*j*k/(m+1) is turned into a complex
    chirp convolution of length next_fast_len(2L-1). Chirp phases are
    reduced with exact integer arithmetic before exponentiation, which
    keeps the transform accurate to machine precision at any length.
    Plans are cached per length and never written after construction;
    the scratch they work in belongs to the caller.
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

    def rows(self, rows, scratch):
        """Transform each row of an (n, length) block in place.

        scratch is a complex array of at least n rows and nfft columns;
        its contents are overwritten.
        """
        work = scratch[: len(rows)]
        np.multiply(rows, self.chirp, out=work[:, : self.length])
        work[:, self.length :] = 0.0
        fft(work, axis=-1, overwrite_x=True)
        np.multiply(work, self.kernel_f, out=work)
        ifft(work, axis=-1, overwrite_x=True)
        conv = work[:, : self.length]
        np.multiply(conv, self.chirp, out=conv)
        np.multiply(conv.imag, self.scale, out=rows)


def _sine_rows(rows, tmp, scratch):
    """Type-I sine transform of each row of a block, in place.

    scratch is None up to _SINE_DIRECT_LIMIT, where the library
    transform writes into rows; tmp is unused.
    """
    if scratch is None:
        dst(rows, type=1, norm="ortho", axis=-1, overwrite_x=True)
    else:
        _SinePlan(rows.shape[-1]).rows(rows, scratch)


def _ar_rows(rows, tmp, scratch, inverse):
    """Ramp-bordered sine transform of each row of a block, in place.

    The ramp corrections go through tmp, a real block at least as large
    as the row interiors.
    """
    rv = ramp_vector(rows.shape[-1])
    interior, tmp = rows[:, 1:-1], tmp[: len(rows), : rv.m - 2]
    if inverse:
        np.multiply(rows[:, :1], rv.p, out=tmp)
        interior -= tmp
        np.multiply(rows[:, -1:], rv.p[::-1], out=tmp)
        interior -= tmp
        _sine_rows(interior, None, scratch)
        rows[:, ::rv.m - 1] *= rv.alpha
    else:
        rows[:, ::rv.m - 1] /= rv.alpha
        _sine_rows(interior, None, scratch)
        np.multiply(rows[:, :1], rv.p, out=tmp)
        interior += tmp
        np.multiply(rows[:, -1:], rv.p[::-1], out=tmp)
        interior += tmp


# Row kernel of each kind and the number of ramp entries bordering each
# line; the sine part of a line is that much shorter. The cosine kind has
# no row kernel: the library transforms the whole axis.
_ROW_KERNELS = {
    TransformKind.DCT3: (None, 0),
    TransformKind.DST1: (_sine_rows, 0),
    TransformKind.AR: (partial(_ar_rows, inverse=False), 2),
    TransformKind.AR_INVERSE: (partial(_ar_rows, inverse=True), 2),
}


def _transform(x, kind, axis=-1, transposed=False, in_place=False):
    """Apply one transform family along one axis of x.

    The one driver behind every public transform. The cosine family is
    the library DCT. A sine-family kind walks _ROW_BLOCK lines at a time
    along axis: each block is gathered into a contiguous buffer,
    transformed there by the kind's row kernel and written into the
    result. The buffers and the Bluestein scratch are allocated once per
    call, so nothing image-sized is copied and no block allocates.
    in_place overwrites x, which must then be a float64 array.
    """
    if not isinstance(kind, TransformKind):
        raise InvalidParameterError(f"unknown transform kind {kind!r}")
    kernel, ramps = _ROW_KERNELS[kind]
    x = np.asarray(x, dtype=float)
    if not -x.ndim <= axis < x.ndim:
        raise InvalidParameterError(f"axis {axis} is out of range for {x.ndim}-D data")
    m = x.shape[axis]
    if m <= ramps:
        raise SizeMismatchError(f"{kind.value} transform needs length >= {ramps + 1}, got {m}")
    if kernel is None:
        return dct(x, type=2 if transposed else 3, norm="ortho", axis=axis, overwrite_x=in_place)
    out = x if in_place else np.empty(x.shape)
    src, dest = (np.atleast_2d(np.moveaxis(a, axis, -1)) for a in (x, out))
    rows = src.shape[-2]
    lines, tmp = np.empty((2, min(rows, _ROW_BLOCK), m))
    scratch = None
    if m - ramps > _SINE_DIRECT_LIMIT:
        scratch = np.empty((len(lines), _SinePlan(m - ramps).nfft), dtype=complex)
    for lead in np.ndindex(src.shape[:-2]):
        for i in range(0, rows, _ROW_BLOCK):
            block = lines[: min(rows - i, _ROW_BLOCK)]
            np.copyto(block, src[lead][i : i + _ROW_BLOCK])
            kernel(block, tmp, scratch)
            dest[lead][i : i + _ROW_BLOCK] = block
    return out


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
    return _transform(x, TransformKind.DCT3, axis, transposed)


def dst1_apply(x, axis=-1):
    """Apply the symmetric type-I sine transform along one axis.

    The matrix is orthogonal and involutory, so this routine is its own
    inverse.
    """
    return _transform(x, TransformKind.DST1, axis)


def ar_apply(x, axis=-1):
    """Apply the ramp-bordered synthesis transform along one axis.

    Needs at least 3 samples along the axis. The first and last input
    entries become the (scaled) coefficients of the two boundary ramp
    columns; the interior passes through the sine transform plus ramp
    corrections.
    """
    return _transform(x, TransformKind.AR, axis)


def ar_inverse_apply(x, axis=-1):
    """Apply the exact inverse of ar_apply along one axis."""
    return _transform(x, TransformKind.AR_INVERSE, axis)


def apply_transform(x, kind, axis=-1, transposed=False):
    """Apply one transform family along one axis.

    transposed is honored only by the cosine family; the sine family is
    its own transpose and the ramp-bordered pair is selected by kind.
    """
    return _transform(x, kind, axis, transposed)


def two_level_apply(x, kind, transposed=False):
    """Apply a transform family along the last two axes of an array.

    Equivalent to multiplying the row-major flattening of each trailing
    2-D slice by the Kronecker product of the two one-axis matrices.
    The second pass runs in place on the first pass's result.

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
    kinds = kind if isinstance(kind, tuple) else (kind, kind)
    if len(kinds) != 2:
        raise InvalidParameterError(f"kind must be one TransformKind or a pair, got {kind!r}")
    out = _transform(x, kinds[0], -2, transposed)
    return _transform(out, kinds[1], -1, transposed, in_place=True)


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
    return _transform(np.eye(m), kind, axis=0)
