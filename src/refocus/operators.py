"""Matrix-free blur operators under four boundary rules.

Blurring correlates an image with a mask after extending the image by a
margin on every side. The boundary rule decides what the extension
holds: mirrored samples (reflective), linear anti-reflections that keep
first-order trends (anti-reflective), wrapped samples (periodic) or
zeros. Reflective and anti-reflective are the rules with fast spectral
decompositions; the other two exist as reference models.

All routines act on the last two axes, so stacks of images (for example
color channels) pass through unchanged on the leading axes.

The correlation multiplies once per tile for each mask weight that
several taps share, and a large blur runs its tiles on threads by the
one thread rule of transforms._thread_count; the output bytes are the
same as a sum of whole shifted slices at any thread count (see
_correlate_valid).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    SizeGuardError, SizeMismatchError, SupportConditionError, _check_finite, _check_int
)
from .psf import PsfMask, _check_mask_1d, require_strong_symmetry
from .transforms import _claim_blocks, _thread_count

_MAX_DENSE_PIXELS = 20000
_ASSEMBLE_BATCH = 512
_TILE_BYTES = 256 * 1024
# Scratch per thread of _correlate_valid for the products that several
# taps of one weight share, beyond its tile and its one-tap product.
_SHARE_BYTES = 2 * _TILE_BYTES


class BoundaryCondition(Enum):
    """How an image continues past its edge."""

    REFLECTIVE = "reflective"
    ANTIREFLECTIVE = "antireflective"
    PERIODIC = "periodic"
    ZERO = "zero"


_PAD_MODES = {
    BoundaryCondition.REFLECTIVE: {"mode": "symmetric"},
    BoundaryCondition.ANTIREFLECTIVE: {"mode": "reflect", "reflect_type": "odd"},
    BoundaryCondition.PERIODIC: {"mode": "wrap"},
    BoundaryCondition.ZERO: {"mode": "constant", "constant_values": 0.0},
}
# The rules whose spectral decompositions need strongly symmetric masks.
_SYMMETRIC_RULES = (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTIREFLECTIVE)


def pad(image, bc, margin):
    """Extend the last two axes of an image by a margin on every side.

    Parameters
    ----------
    image : array_like
        Array of shape (..., n1, n2).
    bc : BoundaryCondition
    margin : tuple of int
        Nonnegative widths (q1, q2) added before and after each of the
        two axes.
        The anti-reflective rule needs margin_j <= n_j - 2 so every
        extension sample references pixels that exist.

    Returns
    -------
    ndarray of shape (..., n1 + 2*q1, n2 + 2*q2)
    """
    image = np.asarray(image, dtype=float)
    if image.ndim < 2:
        raise SizeMismatchError("image must have at least 2 dimensions")
    _check_finite(image, "image")
    q1, q2 = (_check_int(q, "margin", 0) for q in margin)
    _check_support((q1, q2), image.shape[-2:], bc)
    widths = [(0, 0)] * (image.ndim - 2) + [(q1, q1), (q2, q2)]
    return np.pad(image, widths, **_PAD_MODES[bc])


@dataclass(frozen=True)
class BlurOperator:
    """A blur mask bound to an image size and a boundary rule.

    The reflective and anti-reflective rules require a strongly
    symmetric mask, which is what makes their spectral decompositions
    exact. The anti-reflective rule additionally requires the mask
    support to vanish for |i_j| >= n_j - 2.
    """

    mask: PsfMask
    bc: BoundaryCondition
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_shape(self.shape))
        if self.bc in _SYMMETRIC_RULES:
            require_strong_symmetry(self.mask)
        _check_support(self.mask.half_support, self.shape, self.bc)

    @property
    def size(self):
        """Number of pixels n1 * n2."""
        return self.shape[0] * self.shape[1]


def _check_shape(shape):
    """The one operator-shape rule: two integer sides, each at least 1.

    Returns the sides as a tuple of Python ints; raises SizeMismatchError
    otherwise, also for a side such as 3.7 or "4" that is not an integer.
    """
    try:
        sides = tuple(operator.index(n) for n in shape)
    except TypeError:
        sides = ()
    if len(sides) != 2 or min(sides) < 1:
        raise SizeMismatchError(f"operator shape must be two integers >= 1, got {shape!r}")
    return sides


def _check_support(reach, shape, bc, spectral=False):
    """The one support rule for padding, operators and spectra.

    reach[j], a margin or the offset of the farthest nonzero weight on
    axis j, must be 0 or at most n_j; n_j - 2 under the anti-reflective
    rule, so every extension sample references pixels that exist; and
    n_j - 3 for its spectral decomposition (spectral=True), so boundary
    corrections stay off the sine-algebra interior block. Each reach is
    a nonnegative int, checked by the caller.
    """
    slack = 0
    if bc is BoundaryCondition.ANTIREFLECTIVE:
        slack = 3 if spectral else 2
    if any(q > 0 and q > n - slack for q, n in zip(reach, shape)):
        raise SupportConditionError(
            f"{'mask support' if spectral else 'margin'} {reach} too wide for"
            f" size {shape} under the {bc.value} rule"
        )


def _support_reach(weights):
    """Largest |offset| from the center per axis over the nonzero weights."""
    w = np.asarray(weights)
    return tuple(np.abs(np.argwhere(w != 0) - np.array(w.shape) // 2).max(axis=0).tolist())


def _correlate_valid(extended, weights, out_shape):
    """Sum of shifted slices: correlation keeping only full overlaps.

    The output is built in tiles of about _TILE_BYTES, so the shifted
    slices and their products stay in cache instead of streaming
    image-sized temporaries through memory. A tile holds as many whole
    extended images as fit, or else a strip of rows of one image. It
    accumulates in the extended layout, where every tap is one
    contiguous run of the flattened input; the samples that fall in
    the margins are discarded. Every kept pixel receives the nonzero
    taps in row-major order, each as one product added onto zero, so
    the result is bitwise the same as summing whole shifted slices.

    A weight that several taps share is multiplied once per tile, over
    the run that covers all of its taps; each of those taps then adds a
    slice of that product, which holds the same rounded values as its
    own multiply would. The weights with the most taps are shared first,
    as long as their products fit in _SHARE_BYTES; the other taps
    multiply into a scratch tile one at a time. A disk mask has one
    weight, so its 69-tap 11x11 mask costs one multiply and 69 adds per
    tile instead of 69 of each.

    The tiles run on the threads transforms._thread_count grants the
    output (see transforms._claim_blocks): each takes whole tiles, with
    its own scratch allocated here, so the bytes do not depend on the
    thread count.
    """
    n1, n2 = out_shape
    e1, e2 = extended.shape[-2:]
    flat = extended.reshape(-1)
    count = flat.size // (e1 * e2)
    out = np.empty((count, n1, n2))
    if 8 * e1 * e2 <= _TILE_BYTES:
        images, strip = _TILE_BYTES // (8 * e1 * e2), n1
        pitch = e1 * e2
    else:
        images, strip = 1, min(n1, max(1, _TILE_BYTES // (8 * e2)))
        pitch = strip * e2
    size = min(images, count) * pitch  # the longest run a tile accumulates
    rows, cols = np.nonzero(weights)
    shifts, values = (rows * e2 + cols).tolist(), weights[rows, cols].tolist()
    groups = {}  # weight -> the shifts of its taps, in row-major order
    for shift, value in zip(shifts, values):
        groups.setdefault(value, []).append(shift)
    # (weight, first shift, reach, scratch offset) of each shared product
    products, offsets, end = [], {}, size
    for value, group in sorted(groups.items(), key=lambda item: -len(item[1])):
        reach = group[-1] - group[0]
        if len(group) > 1 and 8 * (end + reach) <= _SHARE_BYTES:
            products.append((value, group[0], reach, end))
            offsets[value] = end - group[0]
            end += reach + size
    # each tap in row-major order, with the scratch offset of its slice of
    # a shared product, or None for a tap that multiplies on its own
    taps = [(shift, value, offsets[value] + shift if value in offsets else None)
            for shift, value in zip(shifts, values)]
    tiles = [(k0, r0) for k0 in range(0, count, images) for r0 in range(0, n1, strip)]
    workers = _thread_count(len(tiles), out.size)
    lone = len(offsets) < len(groups)  # some taps multiply on their own
    scratch = np.empty((workers, end + lone * size))

    def work(w, tile):
        k0, r0 = tile
        c, h = min(images, count - k0), min(strip, n1 - r0)
        span = (c - 1) * pitch + (h - 1) * e2 + n2
        start = k0 * e1 * e2 + r0 * e2
        buf = scratch[w]
        acc, part = buf[:span], buf[end : end + span]
        acc.fill(0.0)
        for value, first, reach, at in products:
            run = flat[start + first : start + first + reach + span]
            np.multiply(run, value, out=buf[at : at + reach + span])
        for shift, value, at in taps:
            if at is None:
                np.multiply(flat[start + shift : start + shift + span], value, out=part)
                acc += part
            else:
                acc += buf[at : at + span]
        grid = buf[: c * pitch].reshape(c, pitch // e2, e2)
        out[k0 : k0 + c, r0 : r0 + h] = grid[:, :h, :n2]

    _claim_blocks(tiles, workers, work)
    return out.reshape(extended.shape[:-2] + (n1, n2))


def apply_blur(op, image):
    """Blur an image: extend per the boundary rule, then correlate.

    Parameters
    ----------
    op : BlurOperator
    image : array_like
        Shape (..., n1, n2) matching op.shape on the last two axes.

    Returns
    -------
    ndarray
        Blurred image of the same shape.
    """
    image = np.asarray(image, dtype=float)
    if image.shape[-2:] != op.shape:
        raise SizeMismatchError(
            f"image shape {image.shape[-2:]} does not match operator {op.shape}"
        )
    extended = pad(image, op.bc, op.mask.half_support)
    return _correlate_valid(extended, op.mask.weights, op.shape)


def assemble_dense(op):
    """Materialize the operator as an N x N matrix on row-major pixels.

    Built column by column from blurred basis images, so it agrees with
    apply_blur by construction. Guarded to N <= 20000 pixels.
    """
    n1, n2 = op.shape
    total = n1 * n2
    if total > _MAX_DENSE_PIXELS:
        raise SizeGuardError(
            f"dense operator limited to {_MAX_DENSE_PIXELS} pixels, got {total}"
        )
    matrix = np.empty((total, total))
    for start in range(0, total, _ASSEMBLE_BATCH):
        count = min(_ASSEMBLE_BATCH, total - start)
        basis = np.zeros((count, total))
        basis[np.arange(count), start + np.arange(count)] = 1.0
        blurred = apply_blur(op, basis.reshape(count, n1, n2))
        matrix[:, start : start + count] = blurred.reshape(count, total).T
    return matrix


def assemble_dense_1d(weights, m, bc):
    """Dense m x m one-axis blur matrix of a 1-D mask of odd length.

    Used to factor separable blurs into per-axis matrices. The mask and
    margin rules match the 2-D operator: the reflective and
    anti-reflective rules need a symmetric mask; reflective, periodic
    and zero rules need q <= m, the anti-reflective rule needs q <= m - 2
    with off-center support inside |i| < m - 2.
    """
    m = _check_int(m, "matrix size", 1)
    w = _check_mask_1d(weights, symmetric=bc in _SYMMETRIC_RULES)
    q = w.size // 2
    _check_support((q,), (m,), bc)
    if bc is BoundaryCondition.ANTIREFLECTIVE:
        _check_support(_support_reach(w), (m,), bc, spectral=True)
    padded = np.pad(np.eye(m), ((0, 0), (q, q)), **_PAD_MODES[bc])
    rows = _correlate_valid(padded[:, None, :], w[None, :], (1, m))
    # row i holds the blur of basis vector i, so transpose to get columns.
    return rows.reshape(m, m).T


def blur_oversized_scene(scene, mask):
    """Blur a scene larger than the field of view, no boundary model.

    The scene must exceed the mask margins so that every output pixel
    is a full correlation of real samples. This is how ground-truth
    blurred data is produced: the field of view is the central crop of
    the scene by (q1, q2) on each side, and the returned array is the
    exact blur of that field of view with true (non-extrapolated)
    surroundings.

    Parameters
    ----------
    scene : array_like
        Shape (..., n1 + 2*q1, n2 + 2*q2) with n1, n2 >= 1.
    mask : PsfMask

    Returns
    -------
    ndarray of shape (..., n1, n2)
    """
    scene = np.asarray(scene, dtype=float)
    if scene.ndim < 2:
        raise SizeMismatchError("scene must have at least 2 dimensions")
    _check_finite(scene, "scene")
    fov = fov_crop(scene, mask.half_support)
    return _correlate_valid(scene, mask.weights, fov.shape[-2:])


def fov_crop(scene, half_support):
    """Central crop of a scene by the mask margins: the field of view."""
    scene = np.asarray(scene, dtype=float)
    q1, q2 = (_check_int(q, "half support", 0) for q in half_support)
    if scene.shape[-2] <= 2 * q1 or scene.shape[-1] <= 2 * q2:
        raise SizeMismatchError(f"scene {scene.shape} too small for margins {(q1, q2)}")
    rows = slice(q1, scene.shape[-2] - q1) if q1 else slice(None)
    cols = slice(q2, scene.shape[-1] - q2) if q2 else slice(None)
    return scene[..., rows, cols]
