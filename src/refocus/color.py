"""Cross-channel extensions of the blur and restoration routines.

A color image is an array of shape (3, n1, n2) in RGB channel order.
Cross-channel blur applies the same spatial operator to every channel
and then mixes the channels pixelwise with a row-stochastic 3x3 matrix
M, so the full operator is the Kronecker product of M and the spatial
operator. Gray data is the same model with one channel and M = [1]:
cross_channel_blur takes mixing None for it, and the filters run the
one channel core of filtering.py, which sees every image as a
(C, n1, n2) stack. Because the two factors commute with the spectral
machinery, truncation unmixes the channel coefficients of every kept
spectral index by the inverse of M, and Tikhonov is closed form through
the eigendecomposition M^T M = V diag(d) V^T: fhat = V (lam / (lam^2 d
+ mu)) V^T M^T ghat per index, so there is no 3x3 solve per index and
the work beyond the transforms stays linear in the pixel count. Mixing
by the identity is skipped, so color data without a mix pays for no
mixing pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .filtering import Tikhonov, _channel_stack, _mix, restore
from .operators import apply_blur


@dataclass(frozen=True)
class ColorMixing:
    """Pixelwise channel mixing matrix.

    Entries must be finite and rows must sum to one (within 1e-12), so
    that mixing preserves the brightness of a gray pixel replicated
    across channels.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameterError(f"mixing matrix must be 3x3, got {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidParameterError("mixing matrix entries must be finite")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
            raise InvalidParameterError("mixing matrix rows must sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def identity_mixing():
    """Mixing that leaves channels independent."""
    return ColorMixing(np.eye(3))


def cross_channel_blur(image, mixing, op):
    """Blur every channel with op, then mix channels pixelwise.

    Equivalent to applying the Kronecker product of the mixing matrix
    and the spatial operator to the channel-stacked image vector. With
    mixing None the image is (n1, n2) gray data, blurred as apply_blur
    blurs it; the result has the shape of image. NaN or inf raises
    InvalidParameterError from apply_blur's one scan of the image.
    """
    stack, matrix = _channel_stack(image, op, mixing, finite=False)
    return _mix(matrix, apply_blur(op, stack)).reshape(np.shape(image))


def color_truncated_sd(g, mixing, op, spec):
    """Truncated inversion of a cross-channel blur in the spatial eigenbasis.

    Spectral indices are kept or dropped exactly as in the single-channel
    filter, judged by the spatial eigenvalue magnitude alone; each kept
    index keeps all three channel components, which are unmixed by the
    inverse of the mixing matrix.
    """
    return restore(g, op, "tsd", spec, mixing)


def color_truncated_svd(g, mixing, op, spec):
    """Truncated SVD inversion of a separable cross-channel blur.

    Keeps or drops whole spatial singular triplets (judged by the
    product of factor singular values) and unmixes the three channel
    components of each kept triplet.
    """
    return restore(g, op, "tsvd", spec, mixing)


def color_tikhonov(g, mixing, op, mu):
    """Regularized inversion of a cross-channel blur.

    For every spectral index k the channels couple through the 3x3
    system (lam_k^2 M^T M + mu I) fhat_k = lam_k M^T ghat_k, solved in
    closed form through the eigendecomposition of M^T M computed once;
    the total work stays linear in the pixel count.
    """
    spec = mu if isinstance(mu, Tikhonov) else Tikhonov(mu)
    return restore(g, op, "tikhonov", spec, mixing)
