"""Spectral filters: truncated inversion, Tikhonov damping, and sweeps.

Every routine works in the eigenbasis of the blur operator (or, for
separable masks, in the singular bases of the two 1-D factors): analyze
the data, damp or drop the unstable coefficients, divide by the spectrum
and synthesize. Truncation can be requested by count or by magnitude
threshold; both select exactly the same coefficients when the count
matches the threshold's census, including on ties, because the spectrum
ordering is deterministic.

For the anti-reflective rule the Tikhonov formula keeps the operator's
own basis instead of forming adjoint normal equations, which is what
re-blurred regularization means: it minimizes the data misfit and the
penalty measured in analysis coordinates.

One channel-generic core, `restore` and `sweep`, serves gray and color
data alike: gray is one (n1, n2) channel with no mixing step, color is
a (3, n1, n2) stack whose channel coefficients are unmixed by the 3x3
mixing matrix M (see color.py). The per-filter functions here and in
color.py are thin wrappers over that core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameterError, SingularMixingError, SizeMismatchError
from .operators import assemble_dense_1d
from .psf import separable_factors
from .spectrum import (
    eigen_grid_for,
    sort_spectrum,
    spectral_analysis,
    spectral_synthesis,
    synthesis_kind,
)
from .transforms import dense_transform

# Spectral values smaller than this are treated as exact zeros and never
# inverted; count-based truncation skips them and reports how many.
ZERO_SPECTRUM_TOL = 1e-14

METHODS = ("tsd", "tsvd", "tikhonov")


@dataclass(frozen=True)
class TruncateByCount:
    """Keep the k spectrally largest coefficients."""

    k: int

    def __post_init__(self):
        if self.k != int(self.k) or self.k < 0:
            raise InvalidParameterError(f"count must be a nonnegative int, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class TruncateByThreshold:
    """Keep every coefficient whose spectral magnitude is >= delta."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise InvalidParameterError(f"threshold must be positive, got {self.delta!r}")


@dataclass(frozen=True)
class Tikhonov:
    """Damp each coefficient by lam / (lam^2 + mu) instead of truncating."""

    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise InvalidParameterError(f"mu must be positive, got {self.mu!r}")


FilterSpec = Union[TruncateByCount, TruncateByThreshold, Tikhonov]


@dataclass(frozen=True)
class RestorationResult:
    """A restored image together with what the filter actually did.

    Attributes
    ----------
    image : ndarray
        Restored field of view.
    method : str
        One of "tsd", "tsvd", "tikhonov".
    parameter : float
        The count, threshold or mu that produced the image.
    count_kept : int
        Number of spectral coefficients inverted (all of them for
        Tikhonov, which damps instead of dropping).
    skipped_zero : int
        Requested coefficients that fell on zero spectral values and
        were left out of the inversion.
    """

    image: np.ndarray
    method: str
    parameter: float
    count_kept: int
    skipped_zero: int = 0


@dataclass(frozen=True)
class SweepCurve:
    """Restoration error as a function of the filter parameter."""

    params: np.ndarray
    rres: np.ndarray
    method: str

    @property
    def best_index(self):
        return int(np.argmin(self.rres))

    @property
    def best_param(self):
        return self.params[self.best_index]

    @property
    def best_rre(self):
        return float(self.rres[self.best_index])


def _check_data(x, op, mixing, what="data"):
    """The one entry check: (n1, n2) gray or (3, n1, n2) color, finite."""
    x = np.asarray(x, dtype=float)
    expected = op.shape if mixing is None else (3,) + op.shape
    if x.shape != expected:
        raise SizeMismatchError(f"{what} shape {x.shape} does not match {expected}")
    if not np.isfinite(x).all():
        raise InvalidParameterError(f"{what} holds NaN or inf values")
    return x


def _mix(matrix, channels):
    """Mix the channels on the leading axis pixelwise by a 3x3 matrix."""
    return np.tensordot(matrix, channels, axes=([1], [0]))


def _unmix(coef, mixing):
    """Apply M^-1 (from the SVD of M, rejecting singular M); gray as is."""
    if mixing is None:
        return coef
    u, s, vt = np.linalg.svd(mixing.matrix)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularMixingError("mixing matrix is singular")
    return _mix((vt.T / s) @ u.T, coef)


def _tikhonov(coef, lam, mixing):
    """Tikhonov coefficients as a function of mu, from fixed coefficients.

    Every spectral index solves (lam^2 M^T M + mu I) fhat = lam M^T ghat,
    with M = [1] for gray. With eigh(M^T M) = V diag(d) V^T the solution
    is closed form, fhat = V (lam / (lam^2 d + mu)) V^T M^T ghat, so no
    index needs a 3x3 solve and one analysis serves a whole mu grid.
    """
    if mixing is None:
        rhs, lam_sq, rotation = lam * coef, lam * lam, None
    else:
        m = mixing.matrix
        d, rotation = np.linalg.eigh(m.T @ m)
        rhs = lam * _mix(rotation.T @ m.T, coef)
        lam_sq = (lam * lam) * d[:, None, None]

    def damped(mu):
        fhat = lam_sq + mu
        np.divide(rhs, fhat, out=fhat)
        return fhat if rotation is None else _mix(rotation, fhat)

    return damped


def _keep_mask(spectrum, spec):
    """Boolean mask of retained indices plus skipped-zero count."""
    magnitudes = np.abs(spectrum)
    if isinstance(spec, TruncateByThreshold):
        return magnitudes >= spec.delta, 0
    if isinstance(spec, TruncateByCount):
        if spec.k > magnitudes.size:
            raise InvalidParameterError(
                f"count {spec.k} exceeds spectrum size {magnitudes.size}"
            )
        chosen = sort_spectrum(magnitudes)[: spec.k]
        nonzero = magnitudes.ravel()[chosen] >= ZERO_SPECTRUM_TOL
        keep = np.zeros(magnitudes.size, dtype=bool)
        keep[chosen[nonzero]] = True
        return keep.reshape(magnitudes.shape), int(spec.k - nonzero.sum())
    raise InvalidParameterError(f"not a truncation spec: {spec!r}")


def _signed_svd(matrix):
    """SVD with each left singular vector's largest entry made positive."""
    u, s, vt = np.linalg.svd(matrix)
    for k in range(u.shape[1]):
        peak = np.argmax(np.abs(u[:, k]))
        if u[peak, k] < 0:
            u[:, k] = -u[:, k]
            vt[k, :] = -vt[k, :]
    return u, s, vt


def _filter_basis(op, method):
    """(spectrum, analysis, synthesis, dense) of a method's spatial basis.

    The maps act on the last two axes, so channel stacks pass through;
    dense() gives the per-axis synthesis matrices of the basis images.
    """
    if method in ("tsd", "tikhonov"):
        kind = synthesis_kind(op.bc)
        return (
            eigen_grid_for(op).values,
            lambda x: spectral_analysis(x, op.bc),
            lambda x: spectral_synthesis(x, op.bc),
            lambda: [dense_transform(kind, n) for n in op.shape],
        )
    if method == "tsvd":
        (u1, s1, v1t), (u2, s2, v2t) = (
            _signed_svd(assemble_dense_1d(w, n, op.bc))
            for w, n in zip(separable_factors(op.mask), op.shape)
        )
        return (
            np.multiply.outer(s1, s2),
            lambda x: u1.T @ x @ u2,
            lambda x: v1t.T @ x @ v2t,
            lambda: (v1t.T, v2t.T),
        )
    raise InvalidParameterError(f"unknown method {method!r}, expected {METHODS}")


def restore(g, op, method, spec, mixing=None):
    """Restore data with one filter setting; the core of every restore.

    g is (n1, n2) gray data, or (3, n1, n2) color data blurred across
    channels by mixing (a ColorMixing). method is one of METHODS; tsvd
    needs a separable mask. spec is a Tikhonov for tikhonov and a
    truncation spec otherwise. Returns a RestorationResult.
    """
    if isinstance(spec, Tikhonov) != (method == "tikhonov"):
        raise InvalidParameterError(f"method {method!r} cannot use {spec!r}")
    g = _check_data(g, op, mixing)
    lam, analysis, synthesis, _dense = _filter_basis(op, method)
    if method == "tikhonov":
        fhat = _tikhonov(analysis(g), lam, mixing)(spec.mu)
        parameter, kept, skipped = spec.mu, lam.size, 0
    else:
        keep, skipped = _keep_mask(lam, spec)
        coef = _unmix(analysis(g), mixing)
        fhat = np.zeros_like(coef)
        np.divide(coef, lam, out=fhat, where=keep)
        parameter = spec.delta if isinstance(spec, TruncateByThreshold) else spec.k
        kept = int(keep.sum())
    return RestorationResult(
        image=synthesis(fhat),
        method=method,
        parameter=float(parameter),
        count_kept=kept,
        skipped_zero=skipped,
    )


def truncated_sd_restore(g, op, spec):
    """Invert the blur on the retained part of its own eigenbasis.

    Parameters
    ----------
    g : array_like
        Blurred (possibly noisy) data of shape op.shape.
    op : BlurOperator
        Reflective or anti-reflective operator.
    spec : TruncateByCount or TruncateByThreshold

    Returns
    -------
    RestorationResult
    """
    return restore(g, op, "tsd", spec)


def tikhonov_restore(g, op, mu):
    """Regularized inversion lam/(lam^2 + mu) in the operator's basis.

    For the reflective rule this solves the classical normal equations;
    for the anti-reflective rule it is the re-blurred variant that stays
    in the operator's own (non-orthogonal) basis.
    """
    spec = mu if isinstance(mu, Tikhonov) else Tikhonov(mu)
    return restore(g, op, "tikhonov", spec)


def truncated_svd_restore(g, op, spec):
    """Truncated SVD inversion of a separable blur via its 1-D factors.

    The singular values of the two-level operator are the pairwise
    products of the factor singular values, and each singular vector is
    an outer product, so the filter never forms the full operator.

    Raises
    ------
    NotSeparableError
        If the operator's mask is not a 1-D outer product.
    """
    return restore(g, op, "tsvd", spec)


def _incremental_sweep(coef, denom, basis1, basis2, f_true, true_norm, max_terms,
                       method):
    """Grow a truncated expansion one term at a time, recording the RRE.

    Each step adds coefficient coef[idx]/denom[idx] times the rank-one
    basis image, then measures the relative restoration error, so a full
    sweep costs a handful of passes over the image per term. coef and
    f_true may carry a leading channel axis.
    """
    magnitudes = np.abs(denom).ravel()
    order = sort_spectrum(denom)
    usable = order[magnitudes[order] >= ZERO_SPECTRUM_TOL]
    total = usable.size if max_terms is None else min(usable.size, int(max_terms))
    n2 = denom.shape[1]
    current = np.zeros_like(f_true)
    rres = np.empty(total)
    coef_flat = coef.reshape(f_true.shape[:-2] + (-1,))
    denom_flat = denom.ravel()
    for step in range(total):
        idx = usable[step]
        k1, k2 = divmod(int(idx), n2)
        weight = coef_flat[..., idx] / denom_flat[idx]
        current += np.multiply.outer(weight, np.outer(basis1[:, k1], basis2[:, k2]))
        rres[step] = np.linalg.norm(current - f_true) / true_norm
    return SweepCurve(
        params=np.arange(1, total + 1), rres=rres, method=method
    )


def sweep(g, op, method, f_true, mixing=None, max_terms=None, mu_grid=None):
    """Restoration error over a parameter range; the core of every sweep.

    Arguments as in restore; f_true is the reference, shaped like g. The
    data is analyzed once per curve. The truncation methods add one index
    at a time in spectral order, up to max_terms; tikhonov runs over
    mu_grid (default_mu_grid() when None). Returns a SweepCurve.
    """
    g = _check_data(g, op, mixing)
    f_true = _check_data(f_true, op, mixing, "reference")
    true_norm = np.linalg.norm(f_true)
    if not true_norm > 0:
        raise InvalidParameterError("reference image must be nonzero")
    if method == "tikhonov":
        mu_grid = _check_mu_grid(mu_grid)
    lam, analysis, synthesis, dense = _filter_basis(op, method)
    coef = analysis(g)
    if method != "tikhonov":
        return _incremental_sweep(
            _unmix(coef, mixing), lam, *dense(), f_true, true_norm, max_terms, method
        )
    damped = _tikhonov(coef, lam, mixing)
    rres = np.empty(mu_grid.size)
    for i, mu in enumerate(mu_grid):
        rres[i] = np.linalg.norm(synthesis(damped(mu)) - f_true) / true_norm
    return SweepCurve(params=mu_grid, rres=rres, method=method)


def rre_sweep(g, op, f_true, max_terms=None):
    """Restoration error of truncated inversion for every count k.

    Returns
    -------
    SweepCurve
        params holds k = 1..K in spectral order; best_param is the
        count with the smallest error.
    """
    return sweep(g, op, "tsd", f_true, max_terms=max_terms)


def svd_rre_sweep(g, op, f_true, max_terms=None):
    """Restoration error of the separable truncated SVD for every count."""
    return sweep(g, op, "tsvd", f_true, max_terms=max_terms)


def default_mu_grid():
    """Forty log-spaced regularization weights spanning [1e-8, 1]."""
    return np.logspace(-8.0, 0.0, 40)


def _check_mu_grid(mu_grid):
    if mu_grid is None:
        return default_mu_grid()
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.ndim != 1 or mu_grid.size == 0:
        raise InvalidParameterError("mu grid must be a nonempty 1-D array")
    if not (mu_grid > 0).all():
        raise InvalidParameterError("mu grid must be strictly positive")
    if mu_grid.size > 1 and not (np.diff(mu_grid) > 0).all():
        raise InvalidParameterError("mu grid must be strictly increasing")
    return mu_grid


def mu_sweep(g, op, f_true, mu_grid=None):
    """Restoration error of Tikhonov damping over a grid of weights.

    The analysis coefficients and the eigenvalue grid are computed once
    and reused across the whole grid.
    """
    return sweep(g, op, "tikhonov", f_true, mu_grid=mu_grid)


def save_curve_csv(curve, path):
    """Write a sweep curve as 'param,rre' lines at full precision."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("param,rre\n")
        for p, r in zip(curve.params, curve.rres):
            fh.write(f"{format(p, '.17g')},{format(r, '.17g')}\n")
