"""Spectral filters: truncated inversion, Tikhonov damping, and sweeps.

Every routine works in the eigenbasis of the blur operator (or, for
separable masks, in the singular bases of the two 1-D factors): analyze
the data, damp or drop the unstable coefficients, divide by the spectrum
and synthesize. Truncation can be requested by count or by magnitude
threshold. Neither inverts a spectral value below ZERO_SPECTRUM_TOL;
each reports the ones it reached as skipped zeros. So when the count
matches the threshold's census (the number of values of magnitude at
least delta), both keep exactly the same coefficients and skip the same
zeros, including on ties, because the spectrum ordering is
deterministic.

For the anti-reflective rule the Tikhonov formula keeps the operator's
own basis instead of forming adjoint normal equations, which is what
re-blurred regularization means: it minimizes the data misfit and the
penalty measured in analysis coordinates.

One channel core, `restore` and `sweep`, serves gray and color data on
one path. The entry check turns the data into a (C, n1, n2) channel
stack and the core mixes and unmixes its channel coefficients by a C x C
matrix M: gray is the one-channel stack (n1, n2) -> (1, n1, n2) with
M = [1], color a (3, n1, n2) stack with the 3x3 mixing matrix (see
color.py). Mixing by the identity returns the channels as they are, so
gray data, and color data without a mix, pay for no mixing pass. The
per-filter functions here and in color.py are thin wrappers over that
core.

The core runs in a filter plan, one per (operator, basis): the
eigenbasis, shared by tsd and tikhonov, or the singular bases of the
separable factors, for tsvd. A plan holds the spectrum, the basis
maps and the Gram border vectors. It names no boundary rule: every
fact of a rule comes from the rule's basis record (spectrum._BASES).
It sorts the spectrum only when a filter first needs the order.
`restore` and `sweep` build a plan per call. A run of many cases
builds every plan it needs at once, before any work (_run_plans), and
shares them between its Picard data, sweeps and restores;
_sweep_restore sweeps one case and restores it at the curve's optimum.
So each method rule (the basis a method filters in, the spec a sweep
optimum becomes, the methods that must unmix a mix) is written here
once, and the experiment runner and the CLI only dispatch to this
core.

A basis record that names a node rule has an orthonormal basis that
diagonalizes each symmetric factor, whose eigenvalues lambda are the
1-D symbol at those nodes. So the factor's SVD is that basis with the
singular values |lambda| and the signs of lambda moved into the left
vectors: the tsvd plan is the eigen plan's two-level transform plus a
per-axis permutation into descending |lambda|, with no dense matrix
and no LAPACK call. Its spectrum keeps the signs, since dividing by
lambda has the bytes of dividing the sign-flipped coefficient by
|lambda|. A rule without a node rule, or without a record, has its
dense 1-D factor matrices decomposed by LAPACK, once per distinct
factor of the plan, on one BLAS thread, so the bytes do not depend on
the BLAS thread count.

Sweeps never synthesize an image. The error of a restoration is the
norm of its coefficient difference from the reference's coefficients,
weighted by the Gram matrix S^T S of the synthesis basis per axis. A
basis is either orthonormal on both axes (cosine, singular), where that
matrix is the identity, or ramp-bordered on both (anti-reflective),
where it is the identity plus a term on the two border rows and columns
of each axis, given once as split border vectors (the gram of the
rule's basis record). So a whole truncation curve costs one
spectrum sort plus O(N) work, and each Tikhonov weight on a mu grid
costs O(N).

One inner-product rule: every norm and dot, of the noise scale and rre
(metrics), of a sweep's reference and of the Gram forms, is _dot, a
fixed-order einsum sum that makes no BLAS call. So its bytes depend on
no BLAS thread count or build, and on a 2-core Xeon VM it costs about
what a BLAS dot on one thread does: 0.44 against 0.34 ms at 1M values.
BLAS runs only for matrix products, and the large ones run on one
OpenBLAS thread (transforms._one_blas_thread); here those are the dense
factor SVDs, the dense plan's maps and the three anti-reflective Gram
border products of a Tikhonov sweep. Noise, rre, tsd sweeps and
reflective Tikhonov sweeps need no pin once their plans are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    InvalidParameterError, SingularMixingError, SizeMismatchError,
    _check_finite, _check_int, _check_real,
)
from .imageio import _write_csv
from .operators import assemble_dense_1d
from .psf import generating_function_1d, separable_factors
from .spectrum import (
    _BASES,
    _magnitude_order,
    eigen_grid_for,
    sort_spectrum,
    spectral_analysis,
    spectral_synthesis,
)
from .transforms import _one_blas_thread

# Spectral values smaller than this in magnitude are treated as exact
# zeros and never inverted, by either truncation: a count or a threshold
# that reaches them skips them and reports how many (_usable).
ZERO_SPECTRUM_TOL = 1e-14

# The basis each method filters in: the operator's own eigenbasis, or the
# singular bases of its two separable 1-D factors.
_BASIS = {"tsd": "eigen", "tsvd": "svd", "tikhonov": "eigen"}
METHODS = tuple(_BASIS)

# The default Tikhonov weights: (lo, hi, count) for log_mu_grid.
DEFAULT_MU_RANGE = (1e-8, 1.0, 40)


@dataclass(frozen=True)
class TruncateByCount:
    """Keep the k spectrally largest coefficients."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _check_int(self.k, "count", 0))


@dataclass(frozen=True)
class TruncateByThreshold:
    """Keep every coefficient whose spectral magnitude is >= delta."""

    delta: float

    def __post_init__(self):
        _check_real(self.delta, "threshold")


@dataclass(frozen=True)
class Tikhonov:
    """Damp each coefficient by lam / (lam^2 + mu) instead of truncating."""

    mu: float

    def __post_init__(self):
        _check_real(self.mu, "mu")


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


def format_optimum(curve):
    """A sweep optimum as text: '%.6e' for a mu, an int for a count."""
    if curve.method == "tikhonov":
        return f"{curve.best_param:.6e}"
    return str(int(curve.best_param))


def _check_data(x, op, channels, what="data", finite=True):
    """The one entry check: finite data as a (C, n1, n2) channel stack.

    channels are the channel counts the caller accepts. One channel is an
    (n1, n2) gray image, C > 1 channels a (C, n1, n2) array. finite=False
    checks the shape alone, for a caller whose next step scans the values
    itself, so that no input is scanned twice.
    """
    x = np.asarray(x, dtype=float)
    shapes = [op.shape if c == 1 else (c,) + op.shape for c in channels]
    if x.shape not in shapes:
        raise SizeMismatchError(f"{what} shape {x.shape} does not match any of {shapes}")
    x = x.reshape((-1,) + op.shape)
    return _check_finite(x, what) if finite else x


def _channel_stack(x, op, mixing, what="data", finite=True):
    """x checked as a channel stack, and the C x C matrix that mixes it.

    mixing None takes (n1, n2) gray data, mixed by [1]; a ColorMixing
    takes (3, n1, n2) color data, mixed by its matrix. finite is passed
    to _check_data.
    """
    matrix = np.eye(1) if mixing is None else mixing.matrix
    return _check_data(x, op, [len(matrix)], what, finite), matrix


def _mixer(matrix):
    """The function mixing the channels on the leading axis by a C x C matrix.

    The mix is pixelwise. Mixing by the identity returns its argument
    itself, so a caller may write into the result only when it owns the
    argument: both _tikhonov callers pass a fresh analysis output. The
    matrix is tested once, here: a Tikhonov sweep makes its mixer once
    and mixes once per mu. The test compares Python lists, which is
    cheaper than an array comparison for a matrix this small.
    """
    if matrix.tolist() == np.eye(len(matrix)).tolist():
        return lambda channels: channels
    return lambda channels: np.tensordot(matrix, channels, axes=([1], [0]))


def _mix(matrix, channels):
    """Mix channels once by a C x C matrix; see _mixer."""
    return _mixer(matrix)(channels)


def _unmixing(matrix):
    """M^-1 from the SVD of M; a singular M raises SingularMixingError."""
    u, s, vt = np.linalg.svd(matrix)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularMixingError("mixing matrix is singular")
    return (vt.T / s) @ u.T


def _tikhonov(coef, lam, matrix):
    """Tikhonov coefficients as a function of mu, from fixed coefficients.

    Every spectral index solves (lam^2 M^T M + mu I) fhat = lam M^T ghat
    for the C x C mixing matrix M. With eigh(M^T M) = V diag(d) V^T the
    solution is closed form, fhat = V (lam / (lam^2 d + mu)) V^T M^T ghat,
    so no index needs a C x C solve and one analysis serves a whole mu
    grid.

    coef is the caller's fresh analysis output, which the right-hand side
    overwrites (see _mixer). damped(mu) divides into a new denominator
    lam^2 d + mu, once per weight of a sweep. damped(mu, last=True) forms
    it in the buffer of lam^2 d and frees the right-hand side before the
    rotation, so a one-weight restore holds one image-sized buffer fewer;
    no call may follow it. Both give the same bytes.
    """
    d, rotation = np.linalg.eigh(matrix.T @ matrix)
    # lam M^T ghat in the analysis output's buffer: a color mix's new array is freed at once
    rhs = np.multiply(_mix(rotation.T @ matrix.T, coef), lam, out=coef)
    # lam^2 d, with lam^2 squared into the first channel: no lam-sized temporary
    lam_sq = np.empty(rhs.shape)
    np.multiply(lam, lam, out=lam_sq[0])
    for c in reversed(range(len(d))):
        np.multiply(d[c], lam_sq[0], out=lam_sq[c])
    rotate = _mixer(rotation)

    def damped(mu, last=False):
        nonlocal rhs
        fhat = np.add(lam_sq, mu, out=lam_sq if last else None)
        np.divide(rhs, fhat, out=fhat)
        if last:
            rhs = None  # the quotient is in lam_sq's buffer
        return rotate(fhat)

    return damped


def _usable(magnitudes, floor=0.0):
    """The one usable-value rule: magnitudes at least floor and ZERO_SPECTRUM_TOL."""
    return magnitudes >= max(floor, ZERO_SPECTRUM_TOL)


def _largest(magnitudes, k):
    """Mask of the k largest magnitudes, found by selection, not sorting.

    Ties at the k-th largest value t go to the first of them in row-major
    order, so the mask is exactly the first k indices of the stable sort
    (sort_spectrum), at O(N) cost instead of O(N log N).
    """
    if k == 0:
        return np.zeros(magnitudes.shape, dtype=bool)
    flat = magnitudes.ravel()
    t = np.partition(flat, flat.size - k)[flat.size - k]
    keep = magnitudes > t
    keep.flat[np.flatnonzero(flat == t)[: k - np.count_nonzero(keep)]] = True
    return keep


def _keep_mask(plan, spec):
    """The indices a truncation spec keeps: (keep, kept, skipped).

    keep is the boolean mask of retained indices, kept its number of
    True entries and skipped the number of requested indices that fell
    on zero spectral values (below ZERO_SPECTRUM_TOL); both counts are
    Python ints.
    """
    magnitudes = np.abs(plan.lam)
    if isinstance(spec, TruncateByThreshold):
        keep = _usable(magnitudes, spec.delta)
        kept = int(np.count_nonzero(keep))
        if spec.delta >= ZERO_SPECTRUM_TOL:
            return keep, kept, 0
        return keep, kept, int(np.count_nonzero(magnitudes >= spec.delta)) - kept
    if isinstance(spec, TruncateByCount):
        if spec.k > plan.lam.size:
            raise InvalidParameterError(
                f"count {spec.k} exceeds spectrum size {plan.lam.size}"
            )
        kept = min(spec.k, int(np.count_nonzero(_usable(magnitudes))))
        return _largest(magnitudes, kept), kept, spec.k - kept
    raise InvalidParameterError(f"not a truncation spec: {spec!r}")


class _Plan:
    """One basis of one operator, built once and shared by its filters.

    basis is "eigen" (the operator's eigenbasis, for tsd and tikhonov) or
    "svd" (the singular bases of its separable 1-D factors, for tsvd).
    lam is the spectrum; analysis, synthesis and coordinates map on the
    last two axes, so channel stacks pass through, and coordinates()
    gives an image's coefficients in the synthesis basis. borders is the
    Gram border form of the synthesis basis: None when it is orthonormal,
    else one (c1, c2) pair of split border vectors. All five are set when
    the plan is built; only the spectral order waits for its first use,
    so a restore never sorts (count truncation selects, see _largest). A
    plan lives as long as the call or run that built it.

    A plan is built on one of two paths. An svd plan whose rule has no
    basis record, or a record that names no node rule, holds LAPACK's
    singular values and vectors of the dense factor matrices
    (_factor_svds). Every other plan runs on the record's transform
    path, where analysis is coordinates, and the eigen plan and the svd
    plan differ only in lam and in an optional per-axis permutation. The
    eigen plan's lam is the eigen grid. The svd plan's holds each
    factor's signed spectrum at the record's nodes, in descending
    magnitude per axis (_factor_spectrum), so lam[i, j] = s1[i] s2[j]
    and ties resolve in that order; its analysis permutes the
    coefficients into that order and its synthesis undoes the
    permutation. Every filter reads lam through its magnitude or divides
    by it, and a division by -s has the bytes of the negated quotient, so
    keeping the sign in lam is the SVD with the sign in its left vectors.
    """

    def __init__(self, op, basis):
        self.op = op
        record = _BASES.get(op.bc)
        if basis == "svd" and (record is None or record.nodes is None):
            (u1, s1, v1t), (u2, s2, v2t) = _factor_svds(op)
            self.lam, self.borders = np.multiply.outer(s1, s2), None
            pinned = _one_blas_thread()
            self.analysis = pinned(lambda x: u1.T @ x @ u2)
            self.synthesis = pinned(lambda x: v1t.T @ x @ v2t)
            self.coordinates = pinned(lambda x: v1t @ x @ v2t.T)
        else:
            if basis == "eigen":
                self.lam, order, back = eigen_grid_for(op).values, None, None
            else:
                factors = zip(separable_factors(op.mask), op.shape)
                (p1, l1), (p2, l2) = (_factor_spectrum(w, record.nodes(n)) for w, n in factors)
                self.lam = np.multiply.outer(l1, l2)
                order, back = (p1, p2), [np.argsort(p) for p in (p1, p2)]
            # an svd plan gets here only by a node rule, whose basis has no Gram borders
            self.borders = None if record.gram is None else tuple(map(record.gram, op.shape))
            self.analysis = self.coordinates = (
                lambda x: _permuted(spectral_analysis(x, op.bc), order)
            )
            self.synthesis = lambda x: spectral_synthesis(_permuted(x, back), op.bc)

    @cached_property
    def order(self):
        """Flat indices in spectral order: the one stable sort of lam."""
        return sort_spectrum(self.lam)


def _factor_spectrum(w, nodes):
    """The SVD of a symmetric 1-D factor in an orthonormal basis, read off its symbol.

    nodes are the basis record's nodes for the factor's size, where the
    symbol gives the factor's eigenvalues lam in the order of the basis
    columns. The singular values are |lam| and the singular vectors the
    basis columns, the left ones times sign(lam). Returns the stable
    permutation p into descending |lam|, by the spectral-order rule of
    sort_spectrum, and the signed lam[p]: a plan divides by lam itself,
    which moves each sign onto the singular value and leaves the
    analysis as it is.
    """
    lam = generating_function_1d(w, nodes)
    p = _magnitude_order(lam)
    return p, lam[p]


def _permuted(x, perms):
    """x with its last two axes reordered by the pair perms; x itself for None."""
    return x if perms is None else np.take(np.take(x, perms[0], axis=-2), perms[1], axis=-1)


def _factor_svds(op):
    """The SVD of each 1-D factor matrix of op, one LAPACK call per distinct factor.

    Bitwise equal factors, such as the two of a symmetric mask on a
    square field, share one decomposition.
    """
    svds, out = {}, []
    for w, n in zip(separable_factors(op.mask), op.shape):
        key = (w.tobytes(), n)
        if key not in svds:
            with _one_blas_thread():
                svds[key] = np.linalg.svd(assemble_dense_1d(w, n, op.bc))
        out.append(svds[key])
    return out


def _plan(op, method):
    """A new plan of the basis that method filters in."""
    if method not in _BASIS:
        raise InvalidParameterError(f"unknown method {method!r}, expected {METHODS}")
    return _Plan(op, _BASIS[method])


def _run_plans(ops, methods, mix):
    """Every plan a run needs, built before any work and shared by all of it.

    ops maps a key to an operator. Returns {key: (eigen, by_method)}: the
    operator's eigenbasis plan, which its Picard data uses, and the plan
    each method filters in, one per basis. A mask that a basis cannot use
    raises here, and so does a mix (a ColorMixing, or None) that a
    truncation method in methods cannot unmix.
    """
    bases = dict.fromkeys(["eigen"] + [_BASIS[method] for method in methods])
    plans = {(key, basis): _Plan(op, basis) for basis in bases for key, op in ops.items()}
    if mix is not None and set(methods) != {"tikhonov"}:
        _unmixing(mix.matrix)
    return {key: (plans[key, "eigen"], {m: plans[key, _BASIS[m]] for m in methods}) for key in ops}


def restore(g, op, method, spec, mixing=None):
    """Restore data with one filter setting; the core of every restore.

    g is (n1, n2) gray data with mixing None, or (3, n1, n2) color data
    blurred across channels by mixing (a ColorMixing). method is one of
    METHODS; tsvd needs a separable mask. spec is a Tikhonov for tikhonov
    and a truncation spec otherwise. Returns a RestorationResult whose
    image has the shape of g.
    """
    if isinstance(spec, Tikhonov) != (method == "tikhonov"):
        raise InvalidParameterError(f"method {method!r} cannot use {spec!r}")
    return _restore(g, _plan(op, method), method, spec, mixing)


def _restore(g, plan, method, spec, mixing):
    """restore in a plan already built for method's basis."""
    stack, matrix = _channel_stack(g, plan.op, mixing)
    if method == "tikhonov":
        fhat = _tikhonov(plan.analysis(stack), plan.lam, matrix)(spec.mu, last=True)
        parameter, kept, skipped = spec.mu, plan.lam.size, 0
    else:
        keep, kept, skipped = _keep_mask(plan, spec)
        coef = _mix(_unmixing(matrix), plan.analysis(stack))
        fhat = np.zeros_like(coef)
        np.divide(coef, plan.lam, out=fhat, where=keep)
        del coef, keep  # freed before the synthesis allocates
        parameter = spec.delta if isinstance(spec, TruncateByThreshold) else spec.k
    return RestorationResult(
        image=plan.synthesis(fhat).reshape(np.shape(g)),
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
    return None if max_terms is None else _check_int(max_terms, "max_terms", 1)


# Border rows/columns 0 and m-1 of one axis, as slices so indexing keeps
# the axis and channel stacks broadcast.
_BORDERS = (slice(0, 1), slice(-1, None))
_ALL = slice(None)


def _gram_pairs(borders):
    """The terms w * D[x] * D[y] of the quadratic form sum <D, G1 D G2>.

    G1 and G2 are the per-axis synthesis Gram matrices I + E given by
    _Plan.borders; with borders None both are the identity and nothing
    is yielded. Expanding <D, D + E1 D + D E2 + E1 D E2> with
    E = sum_b (e_b c_b^T + c_b e_b^T) leaves O(N) entry pairs: each
    entry with itself (the plain sum of squares, not yielded here), each
    border entry with its row or column, each corner with the whole
    grid, and each border row with each border column. Yields
    (ix, iy, w): index tuples for the two spatial axes that select
    broadcastable x and y entries, and the broadcastable weight of each
    pair.
    """
    if borders is None:
        return
    c1, c2 = borders
    full = (_ALL, _ALL)
    for k, b in enumerate(_BORDERS):
        yield (b, _ALL), full, 2.0 * c1[:, k, None]
    for k, d in enumerate(_BORDERS):
        yield (_ALL, d), full, 2.0 * c2[:, k]
    for k, b in enumerate(_BORDERS):
        for l, d in enumerate(_BORDERS):
            w = 2.0 * np.multiply.outer(c1[:, k], c2[:, l])
            yield (b, d), full, w
            yield (_ALL, d), (b, _ALL), w


def _gram_norm_sq(y, borders):
    """sum over channels of <Y, G1 Y G2>: the squared norm of S1 Y S2^T.

    The same form as _gram_pairs, contracted with a few thin products,
    so it costs O(N) per call with no transform. The three border
    products are BLAS matrix products, pinned to one thread; every inner
    product is _dot.
    """
    y = y.reshape((-1,) + y.shape[-2:])
    total = _dot(y, y)
    if borders is None:
        return total
    c1, c2 = borders
    ends = [0, -1]
    with _one_blas_thread():
        u1, v2 = c1.T @ y, y @ c2
        u12 = u1 @ c2
    total += 2.0 * _dot(y[:, ends, :], u1)
    total += 2.0 * _dot(y[:, :, ends], v2)
    total += 2.0 * (_dot(y[:, ends][:, :, ends], u12) + _dot(u1[:, :, ends], v2[:, ends, :]))
    return total


def _dot(a, b):
    """The inner product of a and b over all their entries, with no BLAS call.

    einsum without optimize sums in a fixed order of its own, so the
    bytes depend neither on the BLAS thread count nor on the BLAS build.
    ravel copies a strided view, which einsum would otherwise read in
    another order; a contiguous array at any alignment gives the same
    bytes as a fresh copy of it.
    """
    return np.einsum("i,i->", np.ravel(a), np.ravel(b))


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

    Each index's rank is its position in spectral order; an index whose
    spectral value is below ZERO_SPECTRUM_TOL is never kept, and its
    rank is the usable count itself.
    """
    size = int(np.count_nonzero(_usable(np.abs(plan.lam))))
    rank = np.full(plan.lam.size, size)
    rank[plan.order[:size]] = np.arange(size)
    rank = rank.reshape(plan.lam.shape)
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
    g, matrix = _channel_stack(g, plan.op, mixing)
    f_true, _ = _channel_stack(f_true, plan.op, mixing, "reference")
    true_norm = np.sqrt(_dot(f_true, f_true))
    if not true_norm > 0:
        raise InvalidParameterError("reference image must be nonzero")
    max_terms = _check_max_terms(max_terms)
    if method == "tikhonov":
        mu_grid = _check_mu_grid(mu_grid)
    coef = plan.analysis(g)
    target = plan.coordinates(f_true)
    if method == "tikhonov":
        damped, params = _tikhonov(coef, plan.lam, matrix), mu_grid
        err_sq = np.array([_gram_norm_sq(damped(mu) - target, plan.borders) for mu in mu_grid])
    else:
        err_sq = _truncation_errors(_mix(_unmixing(matrix), coef), plan, target, max_terms)
        params = np.arange(1, err_sq.size + 1)
    rres = np.sqrt(np.maximum(err_sq, 0.0)) / true_norm
    return SweepCurve(params=params, rres=rres, method=method)


def _sweep_restore(g, plan, method, f_true, mixing, max_terms, mu_grid):
    """_sweep, then _restore at the curve's optimum: (curve, RestorationResult)."""
    curve = _sweep(g, plan, method, f_true, mixing, max_terms, mu_grid)
    best = curve.best_param
    spec = Tikhonov(float(best)) if method == "tikhonov" else TruncateByCount(best)
    return curve, _restore(g, plan, method, spec, mixing)


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
    """count log-spaced weights from lo to hi, checked as sweep checks a grid.

    A bad value raises InvalidParameterError naming it as the config key
    that holds it: mu_lo, mu_hi or mu_count. Ends that give no strictly
    increasing grid are reported with all three values.
    """
    ends = [_check_real(lo, "mu_lo"), _check_real(hi, "mu_hi")]
    count = _check_int(count, "mu_count", 1)
    try:
        return _check_mu_grid(np.logspace(*np.log10(_check_mu_grid(ends)), count))
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"mu_lo={lo}, mu_hi={hi}, mu_count={count}: {exc}") from None


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
