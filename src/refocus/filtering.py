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

The core runs in a filter plan, one per (operator, basis): the
eigenbasis, shared by tsd and tikhonov, or the singular bases of the
separable factors, for tsvd. A plan holds the spectrum and the basis
maps; it sorts the spectrum and builds the Gram border vectors only
when a filter first needs them. `restore` and `sweep` build a plan per
call; an experiment builds each operator's plans once and passes them
to every sweep, restore and Picard plot of the run.

Sweeps never synthesize an image. The error of a restoration is the
norm of its coefficient difference from the reference's coefficients,
weighted by the Gram matrix S^T S of the synthesis basis per axis. That
matrix is the identity for the cosine and singular bases and the
identity plus a term on the two border rows and columns for the
ramp-bordered basis. So a whole truncation curve costs one spectrum sort
plus O(N) work, and each Tikhonov weight on a mu grid costs O(N).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InvalidParameterError, SingularMixingError, SizeMismatchError
from .imageio import _write_csv
from .operators import assemble_dense_1d
from .psf import separable_factors
from .spectrum import (
    eigen_grid_for,
    sort_spectrum,
    spectral_analysis,
    spectral_synthesis,
    synthesis_gram,
)

# Spectral values smaller than this are treated as exact zeros and never
# inverted; count-based truncation skips them and reports how many.
ZERO_SPECTRUM_TOL = 1e-14

# The basis each method filters in: the operator's own eigenbasis, or the
# singular bases of its two separable 1-D factors.
_BASIS = {"tsd": "eigen", "tsvd": "svd", "tikhonov": "eigen"}
METHODS = tuple(_BASIS)

# The default Tikhonov weights: (lo, hi, count) for log_mu_grid.
DEFAULT_MU_RANGE = (1e-8, 1.0, 40)


def _finite_real(value):
    """True if value is a finite real number (a Python or numpy scalar)."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


@dataclass(frozen=True)
class TruncateByCount:
    """Keep the k spectrally largest coefficients."""

    k: int

    def __post_init__(self):
        if not _finite_real(self.k) or self.k != int(self.k) or self.k < 0:
            raise InvalidParameterError(f"count must be a nonnegative int, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class TruncateByThreshold:
    """Keep every coefficient whose spectral magnitude is >= delta."""

    delta: float

    def __post_init__(self):
        if not (_finite_real(self.delta) and self.delta > 0):
            raise InvalidParameterError(f"threshold must be finite and > 0, got {self.delta!r}")


@dataclass(frozen=True)
class Tikhonov:
    """Damp each coefficient by lam / (lam^2 + mu) instead of truncating."""

    mu: float

    def __post_init__(self):
        if not (_finite_real(self.mu) and self.mu > 0):
            raise InvalidParameterError(f"mu must be finite and > 0, got {self.mu!r}")


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


def _check_data(x, op, color, what="data"):
    """The one entry check: (n1, n2) gray or (3, n1, n2) color, finite."""
    x = np.asarray(x, dtype=float)
    expected = (3,) + op.shape if color else op.shape
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


def _keep_mask(plan, spec):
    """Boolean mask of retained indices plus skipped-zero count."""
    if isinstance(spec, TruncateByThreshold):
        return np.abs(plan.lam) >= spec.delta, 0
    if isinstance(spec, TruncateByCount):
        if spec.k > plan.lam.size:
            raise InvalidParameterError(
                f"count {spec.k} exceeds spectrum size {plan.lam.size}"
            )
        # zero values rank at the usable count, so rank < k would keep them
        rank, usable = plan.rank()
        kept = min(spec.k, usable)
        return rank < kept, spec.k - kept
    raise InvalidParameterError(f"not a truncation spec: {spec!r}")


class _Plan:
    """One basis of one operator, built once and shared by its filters.

    basis is "eigen" (the operator's eigenbasis, for tsd and tikhonov) or
    "svd" (the singular bases of its separable 1-D factors, for tsvd).
    lam is the spectrum; analysis, synthesis and coordinates map on the
    last two axes, so channel stacks pass through, and coordinates()
    gives an image's coefficients in the synthesis basis. The spectral
    order and the Gram border vectors are computed on first use, so a
    Tikhonov or threshold restore never sorts and only sweeps build the
    borders. A plan lives as long as the call or run that built it.
    """

    def __init__(self, op, basis):
        self.op = op
        if basis == "eigen":
            self.lam = eigen_grid_for(op).values
            self.analysis = self.coordinates = lambda x: spectral_analysis(x, op.bc)
            self.synthesis = lambda x: spectral_synthesis(x, op.bc)
        else:
            (u1, s1, v1t), (u2, s2, v2t) = (
                np.linalg.svd(assemble_dense_1d(w, n, op.bc))
                for w, n in zip(separable_factors(op.mask), op.shape)
            )
            self.lam = np.multiply.outer(s1, s2)
            self.analysis = lambda x: u1.T @ x @ u2
            self.synthesis = lambda x: v1t.T @ x @ v2t
            self.coordinates = lambda x: v1t @ x @ v2t.T
            self.borders = (None, None)  # both singular bases are orthonormal

    @cached_property
    def order(self):
        """Flat indices in spectral order: the one stable sort of lam."""
        return sort_spectrum(self.lam)

    def rank(self):
        """Each index's position in spectral order, and the usable count.

        Indices whose spectral value is below ZERO_SPECTRUM_TOL are never
        kept; their rank is the usable count itself.
        """
        usable = int(np.count_nonzero(np.abs(self.lam) >= ZERO_SPECTRUM_TOL))
        rank = np.full(self.lam.size, usable)
        rank[self.order[:usable]] = np.arange(usable)
        return rank.reshape(self.lam.shape), usable

    @cached_property
    def borders(self):
        """Per axis, the Gram matrix S^T S of the eigenbasis synthesis.

        Each entry is None where the basis is orthonormal, else the (m, 2)
        vectors c_b with S^T S = I + sum_b (e_b c_b^T + c_b e_b^T) over the
        border indices b = 0, m-1: the columns E[:, 0] and E[:, m-1] of
        spectrum.synthesis_gram, each with half of the corner entry
        E[0, m-1] that the two share.
        """
        borders = []
        for cols in synthesis_gram(self.op.bc, self.op.shape):
            if cols is not None:
                cols = cols.copy()
                cols[-1, 0] *= 0.5
                cols[0, 1] *= 0.5
            borders.append(cols)
        return tuple(borders)


def _plan(op, method):
    """A new plan of the basis that method filters in."""
    if method not in _BASIS:
        raise InvalidParameterError(f"unknown method {method!r}, expected {METHODS}")
    return _Plan(op, _BASIS[method])


def restore(g, op, method, spec, mixing=None):
    """Restore data with one filter setting; the core of every restore.

    g is (n1, n2) gray data, or (3, n1, n2) color data blurred across
    channels by mixing (a ColorMixing). method is one of METHODS; tsvd
    needs a separable mask. spec is a Tikhonov for tikhonov and a
    truncation spec otherwise. Returns a RestorationResult.
    """
    if isinstance(spec, Tikhonov) != (method == "tikhonov"):
        raise InvalidParameterError(f"method {method!r} cannot use {spec!r}")
    return _restore(g, _plan(op, method), method, spec, mixing)


def _restore(g, plan, method, spec, mixing):
    """restore in a plan already built for method's basis."""
    g = _check_data(g, plan.op, mixing is not None)
    if method == "tikhonov":
        fhat = _tikhonov(plan.analysis(g), plan.lam, mixing)(spec.mu)
        parameter, kept, skipped = spec.mu, plan.lam.size, 0
    else:
        keep, skipped = _keep_mask(plan, spec)
        coef = _unmix(plan.analysis(g), mixing)
        fhat = np.zeros_like(coef)
        np.divide(coef, plan.lam, out=fhat, where=keep)
        parameter = spec.delta if isinstance(spec, TruncateByThreshold) else spec.k
        kept = int(keep.sum())
    return RestorationResult(
        image=plan.synthesis(fhat),
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


def _check_max_terms(max_terms):
    """None, or an integer-like count of at least 1, as a Python int."""
    if max_terms is None:
        return None
    try:
        count = operator.index(max_terms)
    except TypeError:
        count = 0
    if count < 1:
        raise InvalidParameterError(
            f"max_terms must be None or an int >= 1, got {max_terms!r}"
        )
    return count


# Border rows/columns 0 and m-1 of one axis, as slices so indexing keeps
# the axis and channel stacks broadcast.
_BORDERS = (slice(0, 1), slice(-1, None))
_ALL = slice(None)


def _gram_pairs(borders):
    """The terms w * D[x] * D[y] of the quadratic form sum <D, G1 D G2>.

    G1 and G2 are the per-axis synthesis Gram matrices I + E given by
    _Plan.borders. Expanding <D, D + E1 D + D E2 + E1 D E2> with
    E = sum_b (e_b c_b^T + c_b e_b^T) leaves O(N) entry pairs: each
    entry with itself (the plain sum of squares, not yielded here), each
    border entry with its row or column, each corner with the whole
    grid, and each border row with each border column. Yields
    (ix, iy, w): index tuples for the two spatial axes that select
    broadcastable x and y entries, and the broadcastable weight of each
    pair.
    """
    c1, c2 = borders
    full = (_ALL, _ALL)
    if c1 is not None:
        for k, b in enumerate(_BORDERS):
            yield (b, _ALL), full, 2.0 * c1[:, k, None]
    if c2 is not None:
        for k, d in enumerate(_BORDERS):
            yield (_ALL, d), full, 2.0 * c2[:, k]
    if c1 is not None and c2 is not None:
        for k, b in enumerate(_BORDERS):
            for l, d in enumerate(_BORDERS):
                w = 2.0 * np.multiply.outer(c1[:, k], c2[:, l])
                yield (b, d), full, w
                yield (_ALL, d), (b, _ALL), w


def _gram_norm_sq(y, borders):
    """sum over channels of <Y, G1 Y G2>: the squared norm of S1 Y S2^T.

    The same form as _gram_pairs, contracted with a few thin products,
    so it costs O(N) per call with no transform.
    """
    y = y.reshape((-1,) + y.shape[-2:])
    total = np.vdot(y, y)
    c1, c2 = borders
    ends = [0, -1]
    if c1 is not None:
        u1 = c1.T @ y
        total += 2.0 * np.vdot(y[:, ends, :], u1)
    if c2 is not None:
        v2 = y @ c2
        total += 2.0 * np.vdot(y[:, :, ends], v2)
    if c1 is not None and c2 is not None:
        total += 2.0 * (
            np.vdot(y[:, ends][:, :, ends], u1 @ c2)
            + np.vdot(u1[:, :, ends], v2[:, ends, :])
        )
    return total


def _channel_dot(a, b):
    """Sum of a * b over the leading channel axis; the rest broadcasts."""
    out = a[0] * b[0]
    for c in range(1, a.shape[0]):
        out += a[c] * b[c]
    return out


def _truncation_errors(coef, plan, target, max_terms):
    """Squared errors after keeping k = 1..K usable indices in spectral order.

    With w = coef/lam the filtered coefficients and t the reference's
    coefficients, the error after k terms is the Gram form of
    D_k = P_k + S_k: P_k holds the residuals w - t of the kept indices,
    S_k holds -t on the indices not yet kept. Each pair term of the form
    (_gram_pairs) is then a step function of k: its P.P part switches on
    once both entries are kept, its S.S part is on until either is, and
    its P.S part is on in between. So each pair drops a few weighted
    events on the step axis; the P.P and P.S parts accumulate forward
    and the S.S parts backward, so no sum cancels down to a noiseless
    tail.
    """
    rank, size = plan.rank()
    total = size if max_terms is None else min(size, max_terms)
    target = target.reshape((-1,) + rank.shape)
    resid = np.zeros_like(target)
    np.divide(coef.reshape(target.shape), plan.lam, out=resid, where=rank < size)
    resid -= target
    # each entry with itself: kept from step rank + 1 on, else unkept
    flat_rank = rank.ravel()
    forward = np.bincount(flat_rank + 1, _channel_dot(resid, resid).ravel(), size + 2)
    backward = np.bincount(flat_rank, _channel_dot(target, target).ravel(), size + 2)
    for ix, iy, w in _gram_pairs(plan.borders):
        rank_x, rank_y = rank[ix], rank[iy]
        px, tx = resid[(_ALL,) + ix], target[(_ALL,) + ix]
        py, ty = resid[(_ALL,) + iy], target[(_ALL,) + iy]
        lo = np.minimum(rank_x, rank_y).ravel()
        hi = np.maximum(rank_x, rank_y).ravel()
        both_kept = (w * _channel_dot(px, py)).ravel()
        one_kept = -w * np.where(
            rank_x < rank_y, _channel_dot(px, ty), _channel_dot(py, tx)
        )
        one_kept = one_kept.ravel()
        forward += np.bincount(hi + 1, both_kept - one_kept, size + 2)
        forward += np.bincount(lo + 1, one_kept, size + 2)
        backward += np.bincount(lo, (w * _channel_dot(tx, ty)).ravel(), size + 2)
    err_sq = np.cumsum(forward) + np.cumsum(backward[::-1])[::-1]
    return err_sq[1 : total + 1]


def sweep(g, op, method, f_true, mixing=None, max_terms=None, mu_grid=None):
    """Restoration error over a parameter range; the core of every sweep.

    Arguments as in restore; f_true is the reference, shaped like g. The
    truncation methods add one index at a time in spectral order, up to
    max_terms (None for all; else an int >= 1); tikhonov runs over
    mu_grid (default_mu_grid() when None). Returns a SweepCurve.

    No curve point is synthesized. The data and the reference are each
    analyzed once; every error is the norm of a coefficient difference,
    weighted by the Gram matrix of the synthesis basis: the identity for
    the cosine and singular bases, the identity plus a rank-4 term on
    the border rows and columns for the ramp-bordered one. A whole
    truncation curve costs one sort and O(N) more work, for any N (no
    dense basis matrix is formed); each mu costs O(N).
    """
    return _sweep(g, _plan(op, method), method, f_true, mixing, max_terms, mu_grid)


def _sweep(g, plan, method, f_true, mixing, max_terms, mu_grid):
    """sweep in a plan already built for method's basis."""
    color = mixing is not None
    g = _check_data(g, plan.op, color)
    f_true = _check_data(f_true, plan.op, color, "reference")
    true_norm = np.linalg.norm(f_true)
    if not true_norm > 0:
        raise InvalidParameterError("reference image must be nonzero")
    max_terms = _check_max_terms(max_terms)
    if method == "tikhonov":
        mu_grid = _check_mu_grid(mu_grid)
    coef = plan.analysis(g)
    target = plan.coordinates(f_true)
    if method == "tikhonov":
        damped = _tikhonov(coef, plan.lam, mixing)
        params = mu_grid
        err_sq = np.array([_gram_norm_sq(damped(mu) - target, plan.borders) for mu in mu_grid])
    else:
        err_sq = _truncation_errors(_unmix(coef, mixing), plan, target, max_terms)
        params = np.arange(1, err_sq.size + 1)
    rres = np.sqrt(np.maximum(err_sq, 0.0)) / true_norm
    return SweepCurve(params=params, rres=rres, method=method)


def rre_sweep(g, op, f_true, max_terms=None):
    """Restoration error of truncated inversion for every count k.

    The whole curve comes from the data and reference coefficients
    alone (see sweep): one sort of the spectrum and O(N) more work.
    max_terms caps K; it is None or an int >= 1.

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
    return log_mu_grid(*DEFAULT_MU_RANGE)


def log_mu_grid(lo, hi, count):
    """count log-spaced weights from lo to hi, checked as sweep checks a grid."""
    ends = _check_mu_grid((lo, hi))
    if count < 1:
        raise InvalidParameterError(f"mu count must be >= 1, got {count!r}")
    return _check_mu_grid(np.logspace(*np.log10(ends), count))


def _check_mu_grid(mu_grid):
    if mu_grid is None:
        return default_mu_grid()
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.ndim != 1 or mu_grid.size == 0:
        raise InvalidParameterError("mu grid must be a nonempty 1-D array")
    if not (np.isfinite(mu_grid) & (mu_grid > 0)).all():
        raise InvalidParameterError("mu grid must be finite and strictly positive")
    if mu_grid.size > 1 and not (np.diff(mu_grid) > 0).all():
        raise InvalidParameterError("mu grid must be strictly increasing")
    return mu_grid


def mu_sweep(g, op, f_true, mu_grid=None):
    """Restoration error of Tikhonov damping over a grid of weights.

    The analysis coefficients and the eigenvalue grid are computed once
    and reused across the whole grid. Each weight then costs O(N) in
    coefficient space (see sweep), with no synthesis.
    """
    return sweep(g, op, "tikhonov", f_true, mu_grid=mu_grid)


def save_curve_csv(curve, path):
    """Write a sweep curve as 'param,rre' lines at full precision."""
    _write_csv(path, "param,rre", curve.params, curve.rres)
