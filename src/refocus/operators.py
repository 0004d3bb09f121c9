"""Matrix-free blur operators under four boundary rules.

Blurring correlates an image with a mask after extending the image by a
margin on every side. The boundary rule decides what the extension
holds: mirrored samples (reflective), linear anti-reflections that keep
first-order trends (anti-reflective), wrapped samples (periodic) or
zeros. Reflective and anti-reflective are the rules with fast spectral
decompositions; the other two exist as reference models.

All routines act on the last two axes, so stacks of images (for example
color channels) pass through unchanged on the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SizeGuardError, SizeMismatchError, SupportConditionError
from .psf import PsfMask, require_strong_symmetry

_DENSE_LIMIT = 20000
_ASSEMBLE_BATCH = 512


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


def pad(image, bc, margin):
    """Extend the last two axes of an image by a margin on every side.

    Parameters
    ----------
    image : array_like
        Array of shape (..., n1, n2).
    bc : BoundaryCondition
    margin : tuple of int
        Widths (q1, q2) added before and after each of the two axes.
        The anti-reflective rule needs margin_j <= n_j - 2 so every
        extension sample references pixels that exist.

    Returns
    -------
    ndarray of shape (..., n1 + 2*q1, n2 + 2*q2)
    """
    image = np.asarray(image, dtype=float)
    if image.ndim < 2:
        raise SizeMismatchError("image must have at least 2 dimensions")
    q1, q2 = int(margin[0]), int(margin[1])
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
        n1, n2 = self.shape
        if n1 < 1 or n2 < 1:
            raise SizeMismatchError("operator shape must be positive")
        object.__setattr__(self, "shape", (int(n1), int(n2)))
        if self.bc in (
            BoundaryCondition.REFLECTIVE,
            BoundaryCondition.ANTIREFLECTIVE,
        ):
            require_strong_symmetry(self.mask)
        _check_support(self.mask.half_support, self.shape, self.bc)

    @property
    def size(self):
        """Number of pixels n1 * n2."""
        return self.shape[0] * self.shape[1]


def _check_support(reach, shape, bc, spectral=False):
    """The one support rule for padding, operators and spectra.

    reach[j], a margin or the offset of the farthest nonzero weight on
    axis j, must be 0 or at most n_j; n_j - 2 under the anti-reflective
    rule, so every extension sample references pixels that exist; and
    n_j - 3 for its spectral decomposition (spectral=True), so boundary
    corrections stay off the sine-algebra interior block.
    """
    slack = 0
    if bc is BoundaryCondition.ANTIREFLECTIVE:
        slack = 3 if spectral else 2
    reach, shape = tuple(int(q) for q in reach), tuple(shape)
    if min(reach) < 0:
        raise SupportConditionError("margins must be nonnegative")
    if any(q > 0 and q > n - slack for q, n in zip(reach, shape)):
        raise SupportConditionError(
            f"{'mask support' if spectral else 'margin'} {reach} too wide for"
            f" size {shape} under the {bc.value} rule"
        )


def _support_reach(weights):
    """Largest |offset| from the center per axis over the nonzero weights."""
    w = np.asarray(weights)
    return tuple(np.abs(np.argwhere(w != 0) - np.array(w.shape) // 2).max(axis=0))


def _correlate_valid(extended, weights, out_shape):
    """Sum of shifted slices: correlation keeping only full overlaps."""
    n1, n2 = out_shape
    out = np.zeros(extended.shape[:-2] + (n1, n2))
    for a in range(weights.shape[0]):
        for b in range(weights.shape[1]):
            w = weights[a, b]
            if w != 0.0:
                out += w * extended[..., a : a + n1, b : b + n2]
    return out


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
    if total > _DENSE_LIMIT:
        raise SizeGuardError(
            f"dense operator limited to {_DENSE_LIMIT} pixels, got {total}"
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
    """Dense m x m one-axis blur matrix of a symmetric 1-D mask.

    Used to factor separable blurs into per-axis matrices. The margin
    rules match the 2-D operator: reflective, periodic and zero rules
    need q <= m, the anti-reflective rule needs q <= m - 2 with
    off-center support inside |i| < m - 2.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size % 2 == 0:
        raise SizeMismatchError("1-D mask must have odd length")
    q = w.size // 2
    if bc in (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTIREFLECTIVE):
        if np.abs(w - w[::-1]).max() > 1e-12 * np.abs(w).max():
            raise SupportConditionError("1-D mask must be symmetric")
    _check_support((q,), (m,), bc)
    if bc is BoundaryCondition.ANTIREFLECTIVE:
        _check_support(_support_reach(w), (m,), bc, spectral=True)
    padded = np.pad(np.eye(m), ((0, 0), (q, q)), **_PAD_MODES[bc])
    rows = np.zeros((m, m))
    for a in range(w.size):
        if w[a] != 0.0:
            rows += w[a] * padded[:, a : a + m]
    # row i holds the blur of basis vector i, so transpose to get columns.
    return rows.T


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
    q1, q2 = mask.half_support
    n1 = scene.shape[-2] - 2 * q1
    n2 = scene.shape[-1] - 2 * q2
    if n1 < 1 or n2 < 1:
        raise SizeMismatchError(
            f"scene {scene.shape[-2:]} leaves no field of view for margins {(q1, q2)}"
        )
    return _correlate_valid(scene, mask.weights, (n1, n2))


def fov_crop(scene, half_support):
    """Central crop of a scene by the mask margins: the field of view."""
    scene = np.asarray(scene, dtype=float)
    q1, q2 = int(half_support[0]), int(half_support[1])
    if scene.shape[-2] <= 2 * q1 or scene.shape[-1] <= 2 * q2:
        raise SizeMismatchError(f"scene {scene.shape} too small for margins {(q1, q2)}")
    rows = slice(q1, scene.shape[-2] - q1) if q1 else slice(None)
    cols = slice(q2, scene.shape[-1] - q2) if q2 else slice(None)
    return scene[..., rows, cols]
