"""Every filter, Picard plot and blur against a dense oracle.

One hypothesis property test draws a problem from the whole filter
space and compares the library with a solve built only from
`assemble_dense`, `dense_transform` and `np.linalg`. It draws:

* sides 3-14 per axis, so primes and non-square shapes;
* a strongly symmetric mask, separable or not, with reach up to the
  rule's limit (n for reflective, n - 3 for the anti-reflective
  spectrum), optionally convolved along the first axis with a box whose
  symbol vanishes on that axis's spectral nodes, which makes whole rows
  of the spectrum exact zeros;
* the boundary rule, the method and its filter setting (a count or a
  threshold on a tie-free cut, or a Tikhonov mu);
* gray data, or color data under a random nonsingular row-stochastic M.

The oracles:

* truncation is S diag(keep / lam) S^-1, with S the dense synthesis
  basis and lam read off diag(S^-1 A S);
* Tikhonov solves (normal + mu I) f = A g as criterion 4 does
  (normal = A^T A for reflective, A A for anti-reflective), and for
  color (M^T M kron normal + mu I) f = (M^T kron A) g as criterion 5
  does;
* tsvd keeps the leading singular triplets of the dense 2-D operator;
* picard_data pairs the sorted dense |lam| with |S^-1 g|;
* apply_blur and cross_channel_blur, under all four rules, equal the
  dense A and (M kron A) matvecs.

A relative error may be at most 1e-12 times the kept conditioning: the
largest over the smallest inverted |lam| or singular value for a
truncation (times cond(M) for color), max |lam|^2 ||M||^2 / mu + 1 for
Tikhonov, and 1 for Picard data and blurs. When the module ends it
prints the worst error over its conditioning per check, rule and
gray/color.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refocus as r
from refocus.filtering import METHODS, restore
from refocus.operators import BoundaryCondition as BC
from refocus.transforms import TransformKind

BOUND = 1e-12
# dense spectral values in this band could fall on either side of the
# library's zero tolerance (1e-14), so no cut keeps or skips them
AMBIGUOUS = (2e-15, 5e-14)
# a cut between sorted values closer than this (relative to the largest)
# is inside a tie, where the kept set depends on rounding
TIE_GAP = 1e-10
SYNTHESIS = {BC.REFLECTIVE: TransformKind.DCT3, BC.ANTIREFLECTIVE: TransformKind.AR}


@st.composite
def problems(draw):
    """An operator, a method, a filter draw, the mixing and the data."""
    bc = draw(st.sampled_from(tuple(SYNTHESIS)))
    n1, n2 = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    method = draw(st.sampled_from(METHODS))
    separable = method == "tsvd" or draw(st.booleans())
    slack = 0 if bc is BC.REFLECTIVE else 3
    # a box of length 2p + 1 has symbol zeros at 2 pi j / (2p + 1); they
    # are spectral nodes when 2p + 1 divides n1 (reflective nodes pi s / n1)
    # or n1 - 1 (anti-reflective nodes pi s / (n1 - 1))
    period = n1 - (bc is BC.ANTIREFLECTIVE)
    boxes = [p for p in range(1, n1 - slack + 1) if period % (2 * p + 1) == 0]
    p = draw(st.sampled_from(boxes + [0]))
    q1, q2 = draw(st.integers(0, n1 - slack - p)), draw(st.integers(0, n2 - slack))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if separable:
        quadrant = np.outer(rng.random(q1 + 1), rng.random(q2 + 1))
    else:
        quadrant = rng.random((q1 + 1, q2 + 1)) * (rng.random((q1 + 1, q2 + 1)) > 0.3)
        quadrant[0, 0] = 1.0
    w = np.pad(quadrant, ((q1, 0), (q2, 0)), mode="reflect")
    boxed = np.zeros((w.shape[0] + 2 * p, w.shape[1]))
    for i in range(2 * p + 1):
        boxed[i : i + w.shape[0]] += w
    mixing = None
    if draw(st.booleans()):
        stochastic = rng.random((3, 3)) + 0.05
        stochastic /= stochastic.sum(axis=1, keepdims=True)
        t = 0.45 * rng.random()
        # rows sum to one, and diagonal dominance makes M nonsingular
        mixing = r.ColorMixing((1 - t) * np.eye(3) + t * stochastic)
    if method == "tikhonov":
        setting = r.Tikhonov(10.0 ** (-8.0 * rng.random()))
    else:
        setting = (draw(st.booleans()), *rng.random(2))
    op = r.BlurOperator(r.mask_from_weights(boxed), bc, (n1, n2))
    data = rng.random((n1, n2) if mixing is None else (3, n1, n2))
    return op, method, setting, mixing, data


def _cut(values, threshold, u, v):
    """A truncation of values that no rounding can move, chosen by u, v in [0, 1).

    A cut keeps the k largest |values|, all clearly nonzero, with a gap
    of more than TIE_GAP to the next value (or to the ambiguous band);
    k = 0 keeps nothing; u picks one. When there are zeros and no value
    is ambiguous, v < 1/2 asks for every value instead, so the library
    keeps the clearly nonzero ones and skips the zeros. Returns the
    spec, the kept mask, and the skipped count the library must report
    (None where rounding decides it).
    """
    mags = np.abs(values).ravel()
    order = np.argsort(-mags, kind="stable")
    ranked = mags[order]
    clear = int(np.count_nonzero(ranked > AMBIGUOUS[1]))
    floor = np.maximum(np.append(ranked[1:], 0.0), AMBIGUOUS[1])
    cuts = [0] + [k for k in range(1, clear + 1)
                  if ranked[k - 1] - floor[k - 1] > TIE_GAP * ranked[0]]
    k = cuts[int(u * len(cuts))]
    if clear < mags.size and np.count_nonzero(ranked >= AMBIGUOUS[0]) == clear and v < 0.5:
        k = mags.size
    keep = np.zeros(mags.size, dtype=bool)
    keep[order[: min(k, clear)]] = True
    keep = keep.reshape(np.shape(values))
    if not threshold:
        return r.TruncateByCount(k), keep, k - min(k, clear)
    if k == 0:
        return r.TruncateByThreshold(2.0 * ranked[0]), keep, 0
    if k == mags.size:
        return r.TruncateByThreshold(1e-300), keep, None
    return r.TruncateByThreshold(float(np.sqrt(ranked[k - 1] * floor[k - 1]))), keep, 0


def _unmixed(mixing, data):
    """M^-1 across the leading channel axis; gray data as is."""
    if mixing is None:
        return data
    return np.linalg.solve(mixing.matrix, data.reshape(3, -1)).reshape(data.shape)


def _apply(matrix, data):
    """matrix applied to the row-major flattening of each channel."""
    return (data.reshape(-1, matrix.shape[1]) @ matrix.T).reshape(data.shape)


def _filter_oracle(op, a, basis, lam, method, setting, mixing, data):
    """The library's spec and result fields, the reference image, its conditioning."""
    size = a.shape[0]
    if method == "tikhonov":
        normal = a.T @ a if op.bc is BC.REFLECTIVE else a @ a
        m = np.eye(1) if mixing is None else mixing.matrix
        lhs = np.kron(m.T @ m, normal) + setting.mu * np.eye(m.shape[0] * size)
        ref = np.linalg.solve(lhs, np.kron(m.T, a) @ data.ravel()).reshape(data.shape)
        cond = np.abs(lam).max() ** 2 * np.linalg.norm(m, 2) ** 2 / setting.mu + 1.0
        return setting, size, 0, ref, cond
    if method == "tsd":
        s, s_inv = basis
        values = lam
    else:
        u, values, vt = np.linalg.svd(a)
        s, s_inv = vt.T, u.T
    spec, keep, skipped = _cut(values, *setting)
    inverse = np.zeros(values.shape)
    np.divide(1.0, values, out=inverse, where=keep)
    ref = _apply(s @ (inverse.ravel()[:, None] * s_inv), _unmixed(mixing, data))
    kept = np.abs(values[keep])
    cond = kept.max() / kept.min() if kept.size else 1.0
    if mixing is not None:
        cond *= np.linalg.cond(mixing.matrix)
    return spec, int(keep.sum()), skipped, ref, cond


def _rel(ours, ref):
    scale = np.linalg.norm(ref)
    return np.linalg.norm(ours - ref) / scale if scale else np.linalg.norm(ours)


def _tie_groups(ranked):
    """Group labels of sorted magnitudes: a new group where the gap exceeds TIE_GAP."""
    return np.concatenate([[0], np.cumsum(-np.diff(ranked) > TIE_GAP * ranked[0])])


@pytest.fixture(scope="module")
def worst():
    """(check, rule, gray/color) -> (largest error / conditioning, largest error)."""
    table = defaultdict(lambda: (0.0, 0.0))
    yield table
    print("\ndense oracle, worst relative error over its conditioning, and worst error:")
    for key in sorted(table):
        print(f"  {' '.join(key):32s} {table[key][0]:.2e}  {table[key][1]:.2e}")


def _record(worst, key, err, cond):
    assert err <= BOUND * cond, f"{key}: error {err:.3e} above {BOUND} x conditioning {cond:.3e}"
    worst[key] = (max(worst[key][0], err / cond), max(worst[key][1], err))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problems())
def test_filters_picard_and_blur_match_dense_oracles(worst, problem):
    op, method, setting, mixing, data = problem
    kind = "gray" if mixing is None else "color"
    a = r.assemble_dense(op)
    axes = [r.dense_transform(SYNTHESIS[op.bc], n) for n in op.shape]
    s = np.kron(*axes)
    s_inv = np.kron(*(np.linalg.inv(b) for b in axes))
    lam = np.diag(s_inv @ a @ s).reshape(op.shape)

    spec, kept, skipped, ref, cond = _filter_oracle(
        op, a, (s, s_inv), lam, method, setting, mixing, data
    )
    result = restore(data, op, method, spec, mixing)
    assert result.count_kept == kept
    assert skipped is None or result.skipped_zero == skipped
    _record(worst, (method, op.bc.value, kind), _rel(result.image, ref), cond)

    magnitudes, coefficients = r.picard_data(data, op)
    order = np.argsort(-np.abs(lam).ravel(), kind="stable")
    ranked = np.abs(lam).ravel()[order]
    coef = np.abs(_apply(s_inv, data)).reshape(-1, lam.size)
    coef = np.sqrt((coef**2).sum(axis=0))[order]
    err = np.abs(magnitudes - ranked).max() / ranked[0]
    # within a tie the pairing order is the library's own, so compare sets
    groups = _tie_groups(ranked)
    for g in np.unique(groups):
        ours, theirs = np.sort(coefficients[groups == g]), np.sort(coef[groups == g])
        err = max(err, np.abs(ours - theirs).max() / coef.max())
    _record(worst, ("picard", op.bc.value, kind), err, 1.0)

    wide = any(q > n - 2 for q, n in zip(op.mask.half_support, op.shape))
    for bc in BC:
        if bc is BC.ANTIREFLECTIVE and wide:
            continue  # the margin rule refuses this mask
        blur_op = r.BlurOperator(op.mask, bc, op.shape)
        dense = r.assemble_dense(blur_op)
        if mixing is None:
            ours, ref = r.apply_blur(blur_op, data), _apply(dense, data)
        else:
            ours = r.cross_channel_blur(data, mixing, blur_op)
            ref = (np.kron(mixing.matrix, dense) @ data.ravel()).reshape(data.shape)
        _record(worst, ("blur", bc.value, kind), _rel(ours, ref), 1.0)
