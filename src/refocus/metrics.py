"""Noise generation, error metrics, and spectral diagnostics.

The noise generator is a counter mode pseudo random source: output
element i depends only on (seed, i), so fields of any shape are
reproducible across platforms and immune to numpy RNG version drift.
A large field is filled in blocks on threads by the one thread rule of
transforms._thread_count, with the same bytes at any thread count;
its blocks are sized by the one working-set budget,
transforms._BLOCK_VALUES.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError, SizeMismatchError, _check_finite, _check_int, _check_real
)
from .filtering import _channel_dot, _check_data, _dot, _Plan
from .imageio import _write_csv
from .transforms import _BLOCK_VALUES, _claim_blocks, _thread_count

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(2**53)


@dataclass(frozen=True)
class NoiseSpec:
    """White noise level as a fraction rho of the data norm, plus a seed.

    Any integer-like seed (a numpy integer, say) is stored as a Python int.
    """

    rho: float
    seed: int = 0

    def __post_init__(self):
        _check_real(self.rho, "rho", strict=False)
        object.__setattr__(self, "seed", _check_int(self.seed, "seed"))


def _mix64_in_place(z, tmp):
    """The splitmix64 output mix of a uint64 array, in place; tmp is scratch."""
    for shift, factor in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if factor is not None:
            z *= factor
    return z


def standard_normal_field(seed, shape):
    """Deterministic standard normal samples of the given shape.

    Draws pairs of uniforms from a splitmix-style counter stream and
    maps them through the Box-Muller transform, so the field depends
    only on the seed and the element count. The pairs are made in
    blocks of _BLOCK_VALUES pairs (transforms' one working-set budget),
    each from its own offset into the stream, so value i is the same
    function of (seed, i) as in one whole-field pass.

    The blocks run on the threads transforms._thread_count grants the
    field (see transforms._claim_blocks), each taking whole blocks. The
    calling thread allocates every thread's two uint64 block buffers
    (1 MiB) and the counter steps they share (0.5 MiB) first, and the
    block math runs in them and in the output with out=. So the working
    memory above the output does not grow with the field, and none of it
    comes from per-thread allocator arenas.

    Parameters
    ----------
    seed : int
        Any integer; reduced modulo 2**64.
    shape : int or tuple of int
        Shape of the returned array; each side an integer >= 1.

    Returns
    -------
    ndarray
        Standard normal samples, C-ordered by counter index.
    """
    sides = (shape,) if np.ndim(shape) == 0 else shape
    shape = tuple(_check_int(n, "field size", 1) for n in sides)
    size = math.prod(shape)
    out = np.empty(size + size % 2)  # whole pairs
    base = operator.index(seed) & 0xFFFFFFFFFFFFFFFF
    block = 2 * _BLOCK_VALUES
    starts = range(0, out.size, block)
    workers = _thread_count(len(starts), size)
    # counter j of the block at start is start + j, so base + (start + j) *
    # gamma is (base + start * gamma) + j * gamma: the same modulo 2**64
    with np.errstate(over="ignore"):
        steps = np.arange(1, min(block, out.size) + 1, dtype=np.uint64) * _GAMMA
    buffers = np.empty((workers, 2, steps.size), dtype=np.uint64)

    def work(w, start):
        pairs = out[start : start + block]
        n, half = pairs.size, pairs.size // 2
        z, tmp = buffers[w, :, :n]
        np.add(steps[:n], np.uint64((base + start * int(_GAMMA)) % 2**64), out=z)
        _mix64_in_place(z, tmp)
        np.right_shift(z, np.uint64(11), out=z)
        # tmp now holds the uniforms, and the halves of z take u1 and the
        # angle; then the first half of tmp takes the log, cos and sin
        u = tmp.view(float)
        np.copyto(u, z, casting="unsafe")
        u /= _TWO53  # uniforms in [0, 1), exactly
        u1, angle = z.view(float)[:half], z.view(float)[half:]
        np.add(u[0::2], 1.0 / _TWO53, out=u1)
        np.multiply(u[1::2], 2.0 * np.pi, out=angle)  # once for cos and sin
        radius, trig = u1, u[:half]
        np.log(u1, out=trig)
        trig *= -2.0
        np.sqrt(trig, out=radius)
        for wave, half_pairs in ((np.cos, pairs[0::2]), (np.sin, pairs[1::2])):
            wave(angle, out=trig)
            np.multiply(radius, trig, out=half_pairs)

    _claim_blocks(starts, workers, work)
    return out[:size].reshape(shape)


def snr_from_rho(rho):
    """Signal to noise ratio in dB for a finite relative noise level rho >= 0."""
    _check_real(rho, "rho", strict=False)
    if rho == 0:
        return math.inf
    return 20.0 * math.log10(1.0 / rho)


def add_noise(g, spec):
    """Add white noise scaled to a fraction of the data norm.

    The perturbation is rho * ||g|| / ||nu|| * nu for a standard normal
    field nu, so the relative noise level is exactly rho.

    Parameters
    ----------
    g : ndarray
        Clean data of any shape; NaN or inf raises InvalidParameterError.
    spec : NoiseSpec
        Noise level and seed.

    Returns
    -------
    noisy : ndarray
        Perturbed copy of g, made in place in the noise field's buffer.
    snr_db : float
        20*log10(1/rho), infinite when rho is zero.
    """
    g = _check_finite(np.asarray(g, dtype=float), "noise data")
    if spec.rho == 0:
        return g.copy(), math.inf
    nu = standard_normal_field(spec.seed, g.shape)
    scale = spec.rho * np.sqrt(_dot(g, g)) / np.sqrt(_dot(nu, nu))
    # bitwise g + scale * nu: IEEE products and sums commute
    nu *= scale
    nu += g
    return nu, snr_from_rho(spec.rho)


def rre(estimate, reference):
    """Relative restoration error ||estimate - reference|| / ||reference||.

    NaN or inf in either array raises InvalidParameterError.
    """
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if estimate.shape != reference.shape:
        raise SizeMismatchError(
            f"shape mismatch: {estimate.shape} vs {reference.shape}"
        )
    _check_finite(estimate, "estimate")
    _check_finite(reference, "reference")
    denom = np.sqrt(_dot(reference, reference))
    if denom == 0:
        raise InvalidParameterError("reference image has zero norm")
    diff = estimate - reference
    return float(np.sqrt(_dot(diff, diff)) / denom)


def picard_data(g, op):
    """Eigenvalue and coefficient magnitudes for a discrete Picard plot.

    Transforms the data into the operator eigenbasis and pairs the
    absolute eigenvalues with the absolute coefficients, ordered by
    non-increasing eigenvalue magnitude. Coefficients that decay with
    the eigenvalues indicate recoverable data; a plateau near the noise
    floor marks the indices a filter should drop.

    Parameters
    ----------
    g : ndarray
        Observed image, either (n1, n2) or (3, n1, n2); the coefficient
        magnitude is the norm over channels, for gray the absolute value.
        Checked at entry like filter data: a wrong shape raises
        SizeMismatchError, NaN or inf raises InvalidParameterError.
    op : BlurOperator
        Operator whose eigenbasis is used.

    Returns
    -------
    magnitudes : ndarray
        |eigenvalue| in sorted order.
    coefficients : ndarray
        Matching |coefficient| values.
    """
    return _picard_data(g, _Plan(op, "eigen"))


def _picard_data(g, plan):
    """picard_data in an eigenbasis plan already built for the operator."""
    # the data as observed: gray or three color channels, no mixing step
    ghat = plan.analysis(_check_data(g, plan.op, [1, 3]))
    coef = np.sqrt(_channel_dot(ghat, ghat)).ravel()
    return np.abs(plan.lam).ravel()[plan.order], coef[plan.order]


def save_picard_csv(path, magnitudes, coefficients):
    """Write Picard plot data as CSV with columns abs_value,abs_coef.

    Columns that are not equal-length 1-D raise SizeMismatchError, and
    NaN or inf in either raises InvalidParameterError, both before the
    file is opened.
    """
    _write_csv(path, "abs_value,abs_coef", magnitudes, coefficients)
