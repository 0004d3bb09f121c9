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

from .errors import InvalidParameterError, SizeGuardError, UnsupportedAlgebraError, _check_int
from .imageio import _write_csv
from .operators import (
    _MAX_DENSE_PIXELS, BoundaryCondition, apply_blur, _check_shape, _check_support, _support_reach
)
from .psf import generating_function, generating_function_1d
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
    nodes = map(_cosine_nodes, _check_shape(shape))
    return EigenGrid(values=generating_function(mask, *nodes), algebra="dct3")


def _cosine_nodes(n):
    """The reflective (cosine) nodes s*pi/n, s = 0..n-1."""
    return np.arange(n) * np.pi / n


def _sine_nodes(m):
    """The sine-algebra nodes r*pi/(m+1), r = 1..m."""
    return np.arange(1, m + 1) * np.pi / (m + 1)


def tau_eigenvalues(weights, m):
    """Eigenvalues of the 1-D sine-algebra matrix of a symmetric mask.

    Parameters
    ----------
    weights : array_like
        One-dimensional symmetric mask of odd length.
    m : int
        Matrix size; samples the symbol at r*pi/(m+1), r = 1..m.
    """
    return generating_function_1d(weights, _sine_nodes(_check_int(m, "matrix size", 1)))


def eigen_grid_tau(mask, shape):
    """Two-level sine-algebra eigenvalues of a strongly symmetric mask."""
    nodes = map(_sine_nodes, _check_shape(shape))
    return EigenGrid(values=generating_function(mask, *nodes), algebra="tau")


def eigen_grid_ar(mask, shape):
    """Eigenvalues of the anti-reflective blur operator.

    The node vector per axis is [0, sine nodes of size m-2, 0]; the
    duplicated zero nodes produce the four exact unit eigenvalues at the
    corners and pair each edge with the condensed 1-D mask spectrum. A
    mask that is not strongly symmetric raises AsymmetricMaskError from
    generating_function, after the shape and support checks.
    """
    n1, n2 = _check_shape(shape)
    if n1 < 3 or n2 < 3:
        raise InvalidParameterError("anti-reflective grid needs n >= 3 per axis")
    reach = _support_reach(mask.weights)
    _check_support(reach, (n1, n2), BoundaryCondition.ANTIREFLECTIVE, spectral=True)
    values = generating_function(mask, *(np.pad(_sine_nodes(n - 2), 1) for n in (n1, n2)))
    values[0, 0] = values[0, -1] = values[-1, 0] = values[-1, -1] = 1.0
    return EigenGrid(values=values, algebra="ar")


class _SpectralBasis(NamedTuple):
    """How one boundary rule diagonalizes its blur operators."""

    eigen_grid: Callable  # (mask, shape) -> EigenGrid
    analysis: TransformKind
    analysis_transposed: bool
    synthesis: TransformKind
    gram: Callable | None  # m -> (m, 2) split Gram border columns; None if orthonormal
    # n -> the 1-D nodes where a symmetric factor's symbol gives its
    # eigenvalues in this orthonormal basis; None where it is not orthonormal
    nodes: Callable | None


_BASES = {
    BoundaryCondition.REFLECTIVE: _SpectralBasis(
        eigen_grid_reflective, TransformKind.DCT3, True, TransformKind.DCT3, None, _cosine_nodes
    ),
    BoundaryCondition.ANTIREFLECTIVE: _SpectralBasis(
        eigen_grid_ar, TransformKind.AR_INVERSE, False, TransformKind.AR, ramp_gram, None
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
    if op.size > _MAX_DENSE_PIXELS:
        raise SizeGuardError(
            f"first-column recovery limited to {_MAX_DENSE_PIXELS} pixels"
        )
    basis = np.zeros(op.shape)
    basis[0, 0] = 1.0
    numer, denom = (spectral_analysis(x, op.bc) for x in (apply_blur(op, basis), basis))
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
    return _magnitude_order(np.ravel(values))


def _magnitude_order(values):
    """The one spectral-order rule: 1-D indices by non-increasing magnitude.

    A stable sort, so ties keep index order. sort_spectrum ranks a whole
    spectrum by it, and a tsvd plan each separable factor's spectrum.
    """
    return np.argsort(-np.abs(values), kind="stable")


def save_eigen_csv(grid, path):
    """Write grid values row-major, one full-precision value per line."""
    _write_csv(path, "value", np.asarray(grid.values).ravel())
