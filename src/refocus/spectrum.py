"""Eigenvalue grids of the spectrally decomposable blur operators.

A strongly symmetric mask has a trigonometric symbol f(x1, x2), and the
blur operators are diagonalized by sampling it:

* reflective: f on the grid ((s1)pi/n1, (s2)pi/n2), s zero-based, with
  the cosine transform columns as eigenvectors;
* the inner sine algebra: f on (r1 pi/(m1+1), r2 pi/(m2+1)), r one-based;
* anti-reflective: corners exactly 1 (the ramp-pair eigenvalue, counted
  four times), edges carrying the sine eigenvalues of the condensed 1-D
  masks (each counted twice), and the interior equal to the sine grid of
  size (n1-2, n2-2).

Grids are stored in image layout: values[s1, s2] pairs with the
eigenvector that is the outer product of column s1 of the first-axis
transform and column s2 of the second-axis transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, SizeGuardError, UnsupportedAlgebraError
from .imageio import _write_csv
from .operators import (
    _DENSE_LIMIT, BoundaryCondition, apply_blur, _check_shape, _check_support, _support_reach
)
from .psf import generating_function, generating_function_1d, require_strong_symmetry
from .transforms import TransformKind, ramp_gram, two_level_apply


@dataclass(frozen=True)
class EigenGrid:
    """Eigenvalues of a blur operator arranged on the image grid.

    Attributes
    ----------
    values : ndarray
        Shape (n1, n2); entry (s1, s2) belongs to the outer-product
        eigenvector with per-axis column indices s1 and s2.
    algebra : str
        One of "dct3", "tau", "ar"; names the transform family whose
        columns are the eigenvectors.
    """

    values: np.ndarray
    algebra: str

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise InvalidParameterError("eigenvalue grid must be 2-D")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


def eigen_grid_reflective(mask, shape):
    """Eigenvalues of the reflective blur operator of the given shape."""
    n1, n2 = _check_shape(shape)
    x1 = np.arange(n1) * np.pi / n1
    x2 = np.arange(n2) * np.pi / n2
    return EigenGrid(values=generating_function(mask, x1, x2), algebra="dct3")


def tau_eigenvalues(weights, m):
    """Eigenvalues of the 1-D sine-algebra matrix of a symmetric mask.

    Parameters
    ----------
    weights : array_like
        One-dimensional symmetric mask of odd length.
    m : int
        Matrix size; samples the symbol at r*pi/(m+1), r = 1..m.
    """
    if m < 1:
        raise InvalidParameterError("matrix size must be positive")
    x = np.arange(1, m + 1) * np.pi / (m + 1)
    return generating_function_1d(weights, x)


def eigen_grid_tau(mask, shape):
    """Two-level sine-algebra eigenvalues of a strongly symmetric mask."""
    n1, n2 = _check_shape(shape)
    x1 = np.arange(1, n1 + 1) * np.pi / (n1 + 1)
    x2 = np.arange(1, n2 + 1) * np.pi / (n2 + 1)
    return EigenGrid(values=generating_function(mask, x1, x2), algebra="tau")


def eigen_grid_ar(mask, shape):
    """Eigenvalues of the anti-reflective blur operator.

    The node vector per axis is [0, j*pi/(m-1) for j = 1..m-2, 0]; the
    duplicated zero nodes produce the four exact unit eigenvalues at the
    corners and pair each edge with the condensed 1-D mask spectrum.
    """
    n1, n2 = _check_shape(shape)
    if n1 < 3 or n2 < 3:
        raise InvalidParameterError("anti-reflective grid needs n >= 3 per axis")
    require_strong_symmetry(mask)
    reach = _support_reach(mask.weights)
    _check_support(reach, (n1, n2), BoundaryCondition.ANTIREFLECTIVE, spectral=True)
    g1 = np.zeros(n1)
    g1[1 : n1 - 1] = np.arange(1, n1 - 1) * np.pi / (n1 - 1)
    g2 = np.zeros(n2)
    g2[1 : n2 - 1] = np.arange(1, n2 - 1) * np.pi / (n2 - 1)
    values = generating_function(mask, g1, g2)
    values[0, 0] = values[0, -1] = values[-1, 0] = values[-1, -1] = 1.0
    return EigenGrid(values=values, algebra="ar")


class _SpectralBasis(NamedTuple):
    """How one boundary rule diagonalizes its blur operators."""

    eigen_grid: Callable  # (mask, shape) -> EigenGrid
    analysis: TransformKind
    analysis_transposed: bool
    synthesis: TransformKind
    gram: Callable | None  # m -> (m, 2) off-identity Gram columns; None if orthonormal


_BASES = {
    BoundaryCondition.REFLECTIVE: _SpectralBasis(
        eigen_grid_reflective, TransformKind.DCT3, True, TransformKind.DCT3, None
    ),
    BoundaryCondition.ANTIREFLECTIVE: _SpectralBasis(
        eigen_grid_ar, TransformKind.AR_INVERSE, False, TransformKind.AR, ramp_gram
    ),
}


def _basis(bc):
    try:
        return _BASES[bc]
    except KeyError:
        raise UnsupportedAlgebraError(
            f"no spectral decomposition for boundary rule {bc.value}"
        ) from None


def eigen_grid_for(op):
    """Eigenvalue grid of a spectrally decomposable operator."""
    return _basis(op.bc).eigen_grid(op.mask, op.shape)


def eigen_from_first_column(op):
    """Recover reflective eigenvalues from one operator application.

    Transforms the blurred first basis image and divides it by the
    transformed basis image; the denominators are never zero. This is a
    cross-check route independent of the symbol sampling, kept behind
    the oracle size guard.
    """
    if op.bc is not BoundaryCondition.REFLECTIVE:
        raise UnsupportedAlgebraError(
            "first-column eigenvalue recovery requires the reflective rule"
        )
    if op.size > _DENSE_LIMIT:
        raise SizeGuardError(
            f"first-column recovery limited to {_DENSE_LIMIT} pixels"
        )
    basis = np.zeros(op.shape)
    basis[0, 0] = 1.0
    numer = two_level_apply(apply_blur(op, basis), TransformKind.DCT3, transposed=True)
    denom = two_level_apply(basis, TransformKind.DCT3, transposed=True)
    return EigenGrid(values=numer / denom, algebra="dct3")


def spectral_analysis(x, bc):
    """Map data to spectral coefficients of the boundary rule's algebra.

    For the reflective rule this is the transposed cosine transform on
    the last two axes; for the anti-reflective rule it is the explicit
    inverse of the ramp-bordered transform.
    """
    basis = _basis(bc)
    return two_level_apply(x, basis.analysis, transposed=basis.analysis_transposed)


def spectral_synthesis(x, bc):
    """Map spectral coefficients back to an image; inverse of analysis."""
    return two_level_apply(x, _basis(bc).synthesis)


def synthesis_kind(bc):
    """TransformKind whose columns are the synthesis basis for bc."""
    return _basis(bc).synthesis


def synthesis_gram(bc, shape):
    """Per-axis off-identity parts of the synthesis Gram matrices S^T S.

    One entry per axis of shape: None where the basis is orthonormal
    (reflective), else the (m, 2) columns [E[:, 0], E[:, m-1]] of the
    border-supported E = S^T S - I (anti-reflective, see ramp_gram).
    """
    gram = _basis(bc).gram
    return tuple(None if gram is None else gram(n) for n in shape)


def sort_spectrum(grid):
    """Flat indices ordered by non-increasing magnitude.

    grid is an EigenGrid or a plain array of spectral values, such as
    the singular value products of a separable operator. Ties keep
    row-major order (stable sort), so the ordering is fully
    deterministic. Truncating after k indices selects the same set as
    thresholding at a magnitude delta when k is the census of delta, the
    number of entries with magnitude >= delta. On ties the two differ
    otherwise: for magnitudes [[1, .5], [.5, .2]] and k = 2, truncation
    keeps flat indices {0, 1}, while thresholding at the k-th magnitude
    .5 keeps {0, 1, 2}.
    """
    values = grid.values if isinstance(grid, EigenGrid) else grid
    magnitudes = np.abs(np.asarray(values)).ravel()
    return np.argsort(-magnitudes, kind="stable")


def save_eigen_csv(grid, path):
    """Write grid values row-major, one full-precision value per line."""
    _write_csv(path, "value", np.asarray(grid.values).ravel())
