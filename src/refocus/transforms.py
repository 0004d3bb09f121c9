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
allocates its result and one block's buffers per thread, never an
image-sized copy, and a two-level transform runs its second pass in
place on the first pass's result.

Blocks. One budget, _BLOCK_VALUES (2^15 values), sizes every other loop
that bounds its working memory: the blur tiles, the noise-field blocks
and the raster and text-table write blocks. The driver's blocks stay
64 lines each (_ROW_BLOCK), since their count decides the threads.

Threads. One rule decides how many threads a pass runs on, for the
transforms, the blur and the noise field alike (_thread_count): a pass
of fewer than _THREAD_VALUES (2^18) values stays on one thread, and a
larger one takes W = scipy.fft.get_workers() threads, at most half its
blocks, so each thread gets two or more. The threads take the blocks
one at a time until none is left (_claim_blocks); a transform pass
walks 64-line blocks, and the cosine kind passes the same W to the
library DCT. Every block is computed as it would be alone, so the
result has the same bytes at any W. The calling thread builds the
plans and allocates every thread's buffers before the threads start,
so the large buffers come from its heap, not from per-thread allocator
arenas. The library calls inside a block run with one worker, so a
caller's worker setting never multiplies the threads. Library calls
stay on one thread, scipy's default; the command line runs each verb
with one worker per CPU the process may run on. BLAS runs only for
matrix products, and the large ones run on one OpenBLAS thread
(_one_blas_thread), which lives here with the other thread rules. There
are four: the symbol product behind every eigenvalue grid
(psf.generating_function), the dense factor SVDs of a tsvd plan and
that plan's maps, and the anti-reflective Gram border products of a
Tikhonov sweep. The rest are small: a C x C channel mix or solve, and
a factor's 1-D symbol (nodes by mask taps). Norms and dots make no BLAS
call (filtering._dot).

On a 2-core Xeon VM (medians of 21 calls), two threads take a two-level
anti-reflective transform at 1024^2 from 161 to 91 ms and the cosine
one from 31 to 18 ms; at 512^2 they take 28 to 20 ms and 6.5 to 3.5 ms.
Below the cutoff, lines of 512 or less do not pay: at 256^2 two threads
made the anti-reflective pair 1.8x slower (4.1 to 7.5 ms). Longer lines
on the Bluestein path would: two threads took one anti-reflective pass
along the long axis of 255x1024 from 14.7 to 12.1 ms. The rule keeps
such passes on one thread, a loss no workload meets.
"""

from __future__ import annotations

import ctypes
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np
from scipy.fft import dct, dst, fft, get_workers, ifft, next_fast_len

from .errors import InvalidParameterError, SizeGuardError, SizeMismatchError, _check_int

# Above this length the type-I sine transform switches to the Bluestein
# path. Below it the direct library call is faster, except at lengths m
# whose library length 2(m+1) has a large prime factor: on a 2-core Xeon
# VM the Bluestein path took 0.69-0.95x the direct time for 78-, 126-,
# 198-, 253- and 382-long lines (2(m+1) = 2*79, 2*127, 2*199, 4*127,
# 2*383) and 1.24-2.6x for the other sizes measured (README,
# "Performance notes").
_SINE_DIRECT_LIMIT = 512
# Passes (transforms, blurs, noise fields) of at least this many values
# run on threads; every pass of the experiment workloads (sides up to
# 256, three channels up to 128) stays below it. A measured cost cutoff,
# not a memory size, so it is not derived from _BLOCK_VALUES.
_THREAD_VALUES = 2**18
# The one working-set budget: every memory-bounded loop outside the
# transform driver sizes its blocks from it. A blur tile holds this many
# float64 values (256 KiB) and its shared products at most twice that
# (operators._correlate_valid), a noise block this many pairs of
# uniforms (metrics.standard_normal_field), and a raster or text-table
# block at most this many samples or values in whole rows
# (imageio.write_image, imageio._write_table).
_BLOCK_VALUES = 2**15
# Lines per block of the sine-family driver. A call allocates one block's
# buffers once and reuses them: two real (64, m) arrays and, above the
# direct limit, a complex (64, nfft) Bluestein scratch. That scratch is
# 2 MiB at m = 1024 and 4 MiB at m = 2046, larger than most caches; it
# bounds working memory and allocator traffic, not cache residency.
# Counted in lines, not sized from _BLOCK_VALUES: the block count feeds
# _thread_count, so budget-sized blocks change thread counts (a 127 x
# 2100 pass goes from 2 blocks to 9, and from one thread to 3), and
# blocks of twice the budget lift a gray anti-reflective 384^2 restore
# from 4.55 to 5.10 image sizes at its tracemalloc peak.
_ROW_BLOCK = 64
_MAX_DENSE_SIDE = 4096


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
    m = _check_int(m, "ramp transform size", 3)
    j = np.arange(1, m - 1)
    p = 1.0 - j / (m - 1)
    alpha = math.sqrt(1.0 + math.fsum(p * p))
    p.flags.writeable = False
    return RampVector(m=m, p=p, alpha=alpha)


def ramp_gram(m):
    """Border columns of the ramp-bordered basis Gram matrix, split in two.

    With S = dense_transform(AR, m), S^T S = I + E, where E is symmetric
    and vanishes outside rows and columns 0 and m-1: the interior sine
    columns are orthonormal and the two ramp columns have unit length.
    Returns the (m, 2) array [c_0, c_{m-1}] with
    E = sum_b (e_b c_b^T + c_b e_b^T) over b = 0, m-1: the columns
    E[:, 0] and E[:, m-1], each holding half of the corner entry
    E[0, m-1] that the two share. Computed in O(m log m):
    c_0 = [0, DST-I(p)/alpha, p.p~/(2 alpha^2)], and c_{m-1} is the
    same with the ramp p reversed into p~.
    """
    rv = ramp_vector(m)
    cols = np.zeros((m, 2))
    cols[1:-1] = dst1_apply(np.stack([rv.p, rv.p[::-1]], axis=1), axis=0) / rv.alpha
    cols[-1, 0] = cols[0, 1] = math.fsum(rv.p * rv.p[::-1]) / rv.alpha**2 * 0.5
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
        self.kernel_f = fft(np.roll(kern, -(length - 1)), workers=1)

    def rows(self, rows, scratch):
        """Transform each row of an (n, length) block in place.

        scratch is a complex array of at least n rows and nfft columns;
        its contents are overwritten.
        """
        work = scratch[: len(rows)]
        np.multiply(rows, self.chirp, out=work[:, : self.length])
        work[:, self.length :] = 0.0
        fft(work, axis=-1, overwrite_x=True, workers=1)
        np.multiply(work, self.kernel_f, out=work)
        ifft(work, axis=-1, overwrite_x=True, workers=1)
        conv = work[:, : self.length]
        np.multiply(conv, self.chirp, out=conv)
        np.multiply(conv.imag, self.scale, out=rows)


def _sine_rows(rows, tmp, scratch):
    """Type-I sine transform of each row of a block, in place.

    scratch is None up to _SINE_DIRECT_LIMIT, where the library
    transform writes into rows; tmp is unused.
    """
    if scratch is None:
        dst(rows, type=1, norm="ortho", axis=-1, overwrite_x=True, workers=1)
    else:
        _SinePlan(rows.shape[-1]).rows(rows, scratch)


def _ar_rows(rows, tmp, scratch, inverse):
    """Ramp-bordered sine transform of each row of a block, in place.

    The inverse subtracts the two ramp corrections from the interior
    (the first border's, then the last's), sine-transforms the interior
    and multiplies the two border entries by alpha. The forward
    transform runs the opposite steps in reverse order: it divides the
    border entries by alpha, sine-transforms the interior and adds the
    two ramp corrections, again the first border's, then the last's.
    The corrections go through tmp, a real block at least as large as
    the row interiors.
    """
    rv, correct = ramp_vector(rows.shape[-1]), np.subtract if inverse else np.add
    interior, tmp = rows[:, 1:-1], tmp[: len(rows), : rv.m - 2]
    if not inverse:
        rows[:, ::rv.m - 1] /= rv.alpha
        _sine_rows(interior, None, scratch)
    for border, ramp in ((rows[:, :1], rv.p), (rows[:, -1:], rv.p[::-1])):
        np.multiply(border, ramp, out=tmp)
        correct(interior, tmp, out=interior)
    if inverse:
        _sine_rows(interior, None, scratch)
        rows[:, ::rv.m - 1] *= rv.alpha


# Row kernel of each kind and the number of ramp entries bordering each
# line; the sine part of a line is that much shorter. The cosine kind has
# no row kernel: the library transforms the whole axis.
_ROW_KERNELS = {
    TransformKind.DCT3: (None, 0),
    TransformKind.DST1: (_sine_rows, 0),
    TransformKind.AR: (partial(_ar_rows, inverse=False), 2),
    TransformKind.AR_INVERSE: (partial(_ar_rows, inverse=True), 2),
}


def _thread_count(blocks, values):
    """Threads for a pass of values output values over independent blocks.

    One below _THREAD_VALUES; from there scipy.fft.get_workers(), but at
    most half the blocks, so each thread gets two or more. The one thread
    rule of the transforms, the blur and the noise field.
    """
    if values < _THREAD_VALUES:
        return 1
    return max(1, min(get_workers(), blocks // 2))


def _claim_blocks(blocks, workers, work):
    """Call work(w, block) once for every block, on workers threads.

    Thread w (0 <= w < workers) takes the next unclaimed block until none
    is left, so a thread on a busy core holds up no fixed share of the
    pass. Each block goes to exactly one thread, because deque.popleft is
    thread-safe. work must give each block the same result whichever
    thread takes it; w only selects that thread's scratch, which the
    caller allocates before the threads start. With one worker the
    calling thread takes the blocks in order and no thread starts.
    """
    todo = deque(blocks)

    def run(w):
        while True:
            try:
                block = todo.popleft()
            except IndexError:  # every block is taken
                return
            work(w, block)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))


@lru_cache(maxsize=1)
def _blas_threads():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None.

    numpy's wheels link their linear algebra against scipy-openblas,
    whose symbols the loader finds through numpy's own extension. A numpy
    built on another BLAS has no such symbols and is not pinned.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_BLAS_PIN = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run the block, or decorated function, on one OpenBLAS thread.

    BLAS runs only for matrix products, and the four large ones run
    here: the symbol product of psf.generating_function, the dense factor
    SVDs (filtering._factor_svds), the dense plan's maps, and the three
    anti-reflective Gram border products of filtering._gram_norm_sq. On
    two threads OpenBLAS splits an SVD or a large matrix product
    differently than on one, with other last bits; at 1024 x 1027 the
    border product y @ c2 did. They keep BLAS because a BLAS-free form is
    slower: on a 2-core Xeon VM the symbol product at 1024 x 1020 took
    2.5 ms by einsum and 0.9 ms pinned. The small products, a 3 x 3
    channel mix of a 3 x 1024 x 1027 stack and a 1-D symbol at 4096
    nodes, gave the same bytes on one and two threads. Norms and dots
    need no BLAS: filtering._dot sums in a fixed order of its own. The
    count is process-wide: one lock covers the whole block, and the
    caller's count comes back afterwards. A numpy built on another BLAS
    is not pinned.
    """
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _BLAS_PIN:
        count = get()
        set_(1)
        try:
            yield
        finally:
            set_(count)


def _transform(x, kind, axis=-1, transposed=False, in_place=False):
    """Apply one transform family along one axis of x.

    The one driver behind every public transform. The cosine family is
    the library DCT. A sine-family kind walks _ROW_BLOCK lines at a time
    along axis: each block is gathered into a contiguous buffer,
    transformed there by the kind's row kernel and written into the
    result. _thread_count threads take the blocks one at a time until
    none is left (_claim_blocks). Each thread's buffers and Bluestein
    scratch are allocated once per call, here, so nothing image-sized is
    copied and no block allocates. in_place overwrites x, which must
    then be a float64 array.
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
    src = np.atleast_2d(np.moveaxis(x, axis, -1))
    rows = src.shape[-2]
    workers = _thread_count(math.prod(src.shape[:-2]) * -(-rows // _ROW_BLOCK), x.size)
    if kernel is None:
        return dct(x, type=2 if transposed else 3, norm="ortho", axis=axis,
                   overwrite_x=in_place, workers=workers)
    out = x if in_place else np.empty(x.shape)
    dest = np.atleast_2d(np.moveaxis(out, axis, -1))
    lines = np.empty((workers, 2, min(rows, _ROW_BLOCK), m))
    scratch = [None] * workers
    if m - ramps > _SINE_DIRECT_LIMIT:
        scratch = np.empty((workers, lines.shape[2], _SinePlan(m - ramps).nfft), dtype=complex)
    if ramps:
        ramp_vector(m)  # cached here, before any thread looks it up

    def work(w, block_at):
        lead, i = block_at
        buf, tmp = lines[w]
        block = buf[: min(rows - i, _ROW_BLOCK)]
        np.copyto(block, src[lead][i : i + _ROW_BLOCK])
        kernel(block, tmp, scratch[w])
        dest[lead][i : i + _ROW_BLOCK] = block

    _claim_blocks(((lead, i) for lead in np.ndindex(src.shape[:-2])
                   for i in range(0, rows, _ROW_BLOCK)), workers, work)
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
    m = _check_int(m, "transform size", 1)
    if m > _MAX_DENSE_SIDE:
        raise SizeGuardError(
            f"dense transform limited to m <= {_MAX_DENSE_SIDE}, got {m}"
        )
    return _transform(np.eye(m), kind, axis=0)
