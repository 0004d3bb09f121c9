"""Blur masks (point spread functions) and their trigonometric symbols.

A mask stores the weights of a finite discrete convolution kernel on the
index box {-q1..q1} x {-q2..q2}. Weights are nonnegative and sum to one,
so blurring preserves the mean brightness of an image. Most spectral
routines additionally need strong symmetry, meaning the weight at
(i1, i2) equals the weight at (|i1|, |i2|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMaskError,
    FormatError,
    InvalidParameterError,
    NotSeparableError,
)


@dataclass(frozen=True)
class PsfMask:
    """Normalized blur mask on a centered (2*q1+1) x (2*q2+1) grid.

    Parameters
    ----------
    weights : ndarray
        Two-dimensional array with odd side lengths, nonnegative entries
        and unit sum. The array is copied and frozen.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] % 2 == 0 or w.shape[1] % 2 == 0:
            raise InvalidParameterError(
                f"mask must be 2-D with odd side lengths, got shape {w.shape}"
            )
        if not np.isfinite(w).all():
            raise InvalidParameterError("mask weights must be finite")
        if (w < 0).any():
            raise InvalidParameterError("mask weights must be nonnegative")
        s = w.sum()
        if not np.isclose(s, 1.0, rtol=1e-12, atol=1e-12):
            raise InvalidParameterError(f"mask weights must sum to 1, got {s!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def half_support(self):
        """Tuple (q1, q2) of half widths along each axis."""
        return (self.weights.shape[0] // 2, self.weights.shape[1] // 2)


def mask_from_weights(weights):
    """Build a mask from raw nonnegative weights, normalizing their sum.

    Parameters
    ----------
    weights : array_like
        Two-dimensional array with odd side lengths and at least one
        positive entry.

    Returns
    -------
    PsfMask
    """
    w = np.array(weights, dtype=float)
    s = w.sum()
    if not s > 0:
        raise InvalidParameterError("mask weights must have positive sum")
    return PsfMask(w / s)


def identity_mask():
    """Return the 1x1 mask that leaves images unchanged."""
    return PsfMask(np.ones((1, 1)))


def gaussian_mask(half_support, sigma):
    """Truncated and renormalized Gaussian mask.

    Parameters
    ----------
    half_support : tuple of int
        Half widths (q1, q2), both nonnegative.
    sigma : float or tuple of float
        Standard deviation per axis, strictly positive.

    Returns
    -------
    PsfMask
    """
    q1, q2 = _check_half_support(half_support)
    s1, s2 = (sigma, sigma) if np.isscalar(sigma) else sigma
    if not (s1 > 0 and s2 > 0):
        raise InvalidParameterError("sigma must be positive")
    # Evaluate one quadrant and mirror it so symmetric entries are
    # bitwise identical.
    g1 = np.exp(-0.5 * (np.arange(q1 + 1) / s1) ** 2)
    g2 = np.exp(-0.5 * (np.arange(q2 + 1) / s2) ** 2)
    quad = np.outer(g1, g2)
    return mask_from_weights(_mirror_quadrant(quad))


def out_of_focus_mask(half_support, radius):
    """Uniform disk mask: equal weight on grid points within the radius.

    Parameters
    ----------
    half_support : tuple of int
        Half widths (q1, q2).
    radius : float
        Disk radius, strictly positive. The center always lies inside,
        so the mask is never empty.

    Returns
    -------
    PsfMask
    """
    q1, q2 = _check_half_support(half_support)
    if not radius > 0:
        raise InvalidParameterError("radius must be positive")
    quad = (
        np.add.outer(np.arange(q1 + 1) ** 2, np.arange(q2 + 1) ** 2)
        <= radius**2
    ).astype(float)
    return mask_from_weights(_mirror_quadrant(quad))


def symmetrize(mask):
    """Project a mask onto the strongly symmetric masks.

    Averages each weight with its three axis reflections. The result is
    exactly symmetric in the floating-point sense and keeps unit sum.
    """
    w = np.asarray(mask.weights)
    w = w + w[::-1, :]
    w = w + w[:, ::-1]
    return mask_from_weights(w)


def _mirrored(w, axis, rtol=1e-12):
    """The one symmetry test: w equals its own reversal along axis.

    Entries may differ by at most rtol times the largest |entry|.
    """
    return np.abs(w - np.flip(w, axis)).max() <= rtol * np.abs(w).max()


def is_strongly_symmetric(mask, rtol=1e-12):
    """Check weights[i1, i2] == weights[|i1|, |i2|] up to rtol."""
    w = np.asarray(mask.weights)
    return _mirrored(w, 0, rtol) and _mirrored(w, 1, rtol)


def require_strong_symmetry(mask, rtol=1e-12):
    """Raise AsymmetricMaskError unless the mask is strongly symmetric."""
    if not is_strongly_symmetric(mask, rtol=rtol):
        raise AsymmetricMaskError(
            "mask must be strongly symmetric; call symmetrize() first"
        )


def generating_function(mask, x1, x2):
    """Evaluate the trigonometric symbol of a strongly symmetric mask.

    The symbol is f(x1, x2) = sum_s weights[s1, s2] cos(s1 x1) cos(s2 x2)
    over the full signed support. It equals 1 at the origin and carries
    the eigenvalues of the blur operators on suitable sample grids.

    Parameters
    ----------
    mask : PsfMask
        Strongly symmetric mask.
    x1, x2 : float or 1-D array
        Sample angles. Array inputs produce the outer evaluation grid
        of shape (len(x1), len(x2)).

    Returns
    -------
    float or ndarray
    """
    require_strong_symmetry(mask)
    q1, q2 = mask.half_support
    s1 = np.arange(-q1, q1 + 1)
    s2 = np.arange(-q2, q2 + 1)
    scalar = np.isscalar(x1) and np.isscalar(x2)
    c1 = np.cos(np.multiply.outer(np.atleast_1d(x1).astype(float), s1))
    c2 = np.cos(np.multiply.outer(s2, np.atleast_1d(x2).astype(float)))
    out = c1 @ mask.weights @ c2
    return float(out[0, 0]) if scalar else out


def _check_mask_1d(weights, symmetric=True):
    """The one 1-D mask rule; returns the weights as a float array.

    Raises InvalidParameterError unless the mask is 1-D of odd length,
    then, when symmetric is set, AsymmetricMaskError unless it equals
    its own reversal (to 1e-12 of its largest |entry|).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size % 2 == 0:
        raise InvalidParameterError("1-D mask must have odd length")
    if symmetric and not _mirrored(w, 0):
        raise AsymmetricMaskError("1-D mask must be symmetric")
    return w


def generating_function_1d(weights, x):
    """Symbol of a one-dimensional symmetric mask of length 2q+1."""
    w = _check_mask_1d(weights)
    q = w.size // 2
    s = np.arange(-q, q + 1)
    out = np.cos(np.multiply.outer(np.atleast_1d(x).astype(float), s)) @ w
    return float(out[0]) if np.isscalar(x) else out


def condensed_masks(mask):
    """Marginal 1-D masks obtained by summing out one axis.

    Returns
    -------
    row_mask : ndarray
        Length 2*q2+1, sums over the first axis. Drives the eigenvalues
        tied to the top and bottom image edges.
    col_mask : ndarray
        Length 2*q1+1, sums over the second axis. Drives the eigenvalues
        tied to the left and right image edges.
    """
    w = np.asarray(mask.weights)
    return w.sum(axis=0), w.sum(axis=1)


def separable_factors(mask, tol=1e-12):
    """Split a rank-one mask into its two normalized 1-D factors.

    Parameters
    ----------
    mask : PsfMask
    tol : float
        Largest allowed entrywise deviation between the mask and the
        outer product of the recovered factors.

    Returns
    -------
    col_factor : ndarray
        Length 2*q1+1 factor acting along the first axis.
    row_factor : ndarray
        Length 2*q2+1 factor acting along the second axis.

    Raises
    ------
    NotSeparableError
        If the mask is not an outer product of 1-D masks.
    """
    row_mask, col_mask = condensed_masks(mask)
    if np.abs(np.outer(col_mask, row_mask) - mask.weights).max() > tol:
        raise NotSeparableError("mask is not separable into 1-D factors")
    return col_mask, row_mask


def save_mask(mask, path):
    """Write a mask as text: a 'q1 q2' header then the weight rows."""
    q1, q2 = mask.half_support
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{q1} {q2}\n")
        for row in mask.weights:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def load_mask(path):
    """Read a mask written by save_mask, normalizing the weights.

    Returns
    -------
    mask : PsfMask
    raw_sum : float
        Sum of the weights before normalization, so callers can report
        how far the file was from unit mass.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: mask header must be 'q1 q2'")
        try:
            q1, q2 = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError(f"{path}: mask header must hold two integers")
        if q1 < 0 or q2 < 0:
            raise FormatError(f"{path}: half supports must be nonnegative")
        rows = []
        for i in range(2 * q1 + 1):
            line = fh.readline().split()
            if len(line) != 2 * q2 + 1:
                raise FormatError(
                    f"{path}: row {i} must hold {2 * q2 + 1} values"
                )
            try:
                rows.append([float(v) for v in line])
            except ValueError:
                raise FormatError(f"{path}: row {i} holds a non-number")
    w = np.array(rows)
    raw_sum = float(w.sum())
    return mask_from_weights(w), raw_sum


def _check_half_support(half_support):
    q1, q2 = half_support
    if q1 != int(q1) or q2 != int(q2) or q1 < 0 or q2 < 0:
        raise InvalidParameterError(
            f"half support must be nonnegative integers, got {half_support!r}"
        )
    return int(q1), int(q2)


def _mirror_quadrant(quad):
    """Expand nonnegative-quadrant values to the full signed support."""
    full = np.block(
        [
            [quad[:0:-1, :0:-1], quad[:0:-1, :]],
            [quad[:, :0:-1], quad],
        ]
    )
    return full
