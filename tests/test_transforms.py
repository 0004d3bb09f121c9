import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import refocus as r
from refocus import transforms
from refocus.transforms import TransformKind

from conftest import rough_image


def test_cosine_transform_is_orthogonal():
    for m in (4, 9, 17):
        b = r.dense_transform(TransformKind.DCT3, m)
        assert np.allclose(b @ b.T, np.eye(m), atol=1e-13)


def test_cosine_transposed_flag_matches_dense():
    m = 11
    x = rough_image((m, 7))
    b = r.dense_transform(TransformKind.DCT3, m)
    assert np.allclose(r.dct3_apply(x, axis=0, transposed=True), b.T @ x, atol=1e-13)
    assert np.allclose(r.dct3_apply(x, axis=0), b @ x, atol=1e-13)


def test_sine_transform_is_symmetric_involution():
    for m in (4, 9, 17):
        q = r.dense_transform(TransformKind.DST1, m)
        assert np.allclose(q, q.T, atol=1e-13)
        assert np.allclose(q @ q, np.eye(m), atol=1e-13)


def test_ramp_vector_m5_exact():
    ramp = r.ramp_vector(5)
    assert np.array_equal(ramp.p, [0.75, 0.5, 0.25])
    assert ramp.alpha == math.sqrt(1.875)
    with pytest.raises(r.InvalidParameterError):
        r.ramp_vector(2)


def test_ramp_bordered_round_trip():
    for m in (3, 4, 5, 8, 33, 600, 1024):
        x = rough_image((3, m))
        back = r.ar_inverse_apply(r.ar_apply(x, axis=-1), axis=-1)
        assert np.abs(back - x).max() <= 1e-12
        back = r.ar_apply(r.ar_inverse_apply(x, axis=-1), axis=-1)
        assert np.abs(back - x).max() <= 1e-12


def test_analysis_first_column_norm_identity():
    for m in (5, 8, 33, 129):
        e1 = np.zeros(m)
        e1[0] = 1.0
        col = r.ar_inverse_apply(e1)
        p = r.ramp_vector(m).p
        expected = 1.0 + 2.0 * float(p @ p)
        assert float(col @ col) == pytest.approx(expected, rel=1e-12)
    assert float(
        r.ar_inverse_apply(np.eye(5)[0]) @ r.ar_inverse_apply(np.eye(5)[0])
    ) == pytest.approx(2.75, rel=1e-13)


def test_analysis_largest_singular_value_bound():
    for m in (8, 16, 64):
        t_inv = r.dense_transform(TransformKind.AR_INVERSE, m)
        p = r.ramp_vector(m).p
        sigma = np.linalg.svd(t_inv, compute_uv=False)[0]
        assert sigma <= 1.0 + 2.0 * np.linalg.norm(p)


def test_dense_synthesis_analysis_are_inverses():
    for m in (3, 4, 9):
        t = r.dense_transform(TransformKind.AR, m)
        t_inv = r.dense_transform(TransformKind.AR_INVERSE, m)
        assert np.allclose(t @ t_inv, np.eye(m), atol=1e-13)
        # first row of the analysis map scales the first sample by alpha
        alpha = r.ramp_vector(m).alpha
        expected = np.zeros(m)
        expected[0] = alpha
        assert np.allclose(t_inv[0], expected, atol=1e-15)


def test_long_sine_transform_matches_direct():
    # lengths above the direct-evaluation limit take the chirp path
    for m in (513, 600, 1024, 2046):
        x = rough_image((2, m))
        ours = r.dst1_apply(x, axis=-1)
        ref = scipy.fft.dst(x, type=1, norm="ortho", axis=-1)
        assert np.abs(ours - ref).max() <= 1e-12


def test_two_level_matches_axis_by_axis():
    x = rough_image((6, 5))
    stacked = np.stack([x, 2.0 * x])
    out = r.two_level_apply(stacked, TransformKind.AR)
    ref = r.ar_apply(r.ar_apply(x, axis=0), axis=1)
    assert np.allclose(out[0], ref, atol=1e-14)
    assert np.allclose(out[1], 2.0 * ref, atol=1e-14)


def test_two_level_mixed_pair():
    x = rough_image((6, 5))
    out = r.two_level_apply(x, (TransformKind.DCT3, TransformKind.DST1))
    ref = r.dst1_apply(r.dct3_apply(x, axis=0), axis=1)
    assert np.allclose(out, ref, atol=1e-14)


def test_dense_transform_guard():
    with pytest.raises(r.SizeGuardError):
        r.dense_transform(TransformKind.DCT3, 4097)


def test_ramp_transform_needs_three_samples():
    with pytest.raises(r.SizeMismatchError):
        r.ar_apply(np.ones(2))


def _median_time(func, reps=5):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def test_one_dimensional_doubling_cost():
    # transform cost per doubling stays below 2.5x at large sizes
    m = 1 << 16
    x1 = rough_image((4, m))
    x2 = rough_image((2, 2 * m))
    r.dst1_apply(x1, axis=-1)
    r.dst1_apply(x2, axis=-1)
    t1 = _median_time(lambda: r.dst1_apply(x1, axis=-1))
    t2 = _median_time(lambda: r.dst1_apply(x2, axis=-1))
    # same total element count per call; doubling the length may only
    # add the logarithmic factor
    assert t2 <= 2.5 * t1


# Reference for the block driver: the transforms it replaced, which staged
# each pass through a contiguous copy of the whole array and looped over
# 64-row blocks inside the sine and ramp kernels. The driver must match
# them bit for bit.
def _ref_sine_rows(block):
    length = block.shape[-1]
    if length <= 512:
        return scipy.fft.dst(block, type=1, norm="ortho", axis=-1)
    plan = transforms._SinePlan(length)
    out = np.empty_like(block)
    for i in range(0, block.shape[0], 64):
        spec = scipy.fft.fft(block[i : i + 64] * plan.chirp, n=plan.nfft, axis=-1)
        conv = scipy.fft.ifft(spec * plan.kernel_f, axis=-1)[:, :length]
        np.multiply(conv, plan.chirp, out=conv)
        out[i : i + 64] = plan.scale * conv.imag
    return out


def _ref_ar_rows(block, inverse):
    rv = r.ramp_vector(block.shape[-1])
    p = rv.p
    out = np.empty_like(block)
    for i in range(0, block.shape[0], 64):
        blk = block[i : i + 64]
        dest = out[i : i + 64]
        if inverse:
            interior = blk[:, 1:-1] - np.multiply.outer(blk[:, 0], p)
            interior -= np.multiply.outer(blk[:, -1], p[::-1])
            dest[:, 1:-1] = _ref_sine_rows(np.ascontiguousarray(interior))
            dest[:, 0] = rv.alpha * blk[:, 0]
            dest[:, -1] = rv.alpha * blk[:, -1]
        else:
            first = blk[:, 0] / rv.alpha
            last = blk[:, -1] / rv.alpha
            interior = _ref_sine_rows(np.ascontiguousarray(blk[:, 1:-1]))
            interior += np.multiply.outer(first, p)
            interior += np.multiply.outer(last, p[::-1])
            dest[:, 1:-1] = interior
            dest[:, 0] = first
            dest[:, -1] = last
    return out


def _ref_over_axis(x, axis, rows_fn):
    xm = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    rows = np.ascontiguousarray(xm).reshape(-1, xm.shape[-1])
    return np.moveaxis(rows_fn(rows).reshape(xm.shape), -1, axis)


def _ref_apply(x, kind, axis=-1, transposed=False):
    if kind is TransformKind.DCT3:
        dct_type = 2 if transposed else 3
        return scipy.fft.dct(np.asarray(x, dtype=float), type=dct_type, norm="ortho", axis=axis)
    if kind is TransformKind.DST1:
        return _ref_over_axis(x, axis, _ref_sine_rows)
    inverse = kind is TransformKind.AR_INVERSE
    return _ref_over_axis(x, axis, lambda rows: _ref_ar_rows(rows, inverse))


def _assert_same_bytes(ours, ref):
    assert ours.dtype == ref.dtype == np.float64 and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


_RAMP_KINDS = (TransformKind.AR, TransformKind.AR_INVERSE)
_SINE_KINDS = (TransformKind.DST1,) + _RAMP_KINDS


def _entries(kind):
    """Every public one-axis entry that applies kind, as f(x, axis)."""
    entry = {
        TransformKind.DCT3: r.dct3_apply,
        TransformKind.DST1: r.dst1_apply,
        TransformKind.AR: r.ar_apply,
        TransformKind.AR_INVERSE: r.ar_inverse_apply,
    }[kind]
    return [lambda x, axis: r.apply_transform(x, kind, axis=axis), entry]


@pytest.mark.parametrize("length", [3, 512, 513, 514, 515, 1022])
@pytest.mark.parametrize("rows", [63, 64, 65, 129])
def test_driver_bitwise_matches_reference_lengths_and_rows(length, rows):
    # lengths straddle the direct limit for DST1 (m) and for the ramp
    # interior (m - 2); row counts straddle the 64-line block
    x = rough_image((rows, length), seed=length + rows)
    for kind in _SINE_KINDS:
        for axis, data in ((-1, x), (0, x.T)):
            ref = _ref_apply(data, kind, axis=axis)
            for entry in _entries(kind):
                _assert_same_bytes(entry(data, axis), ref)


@pytest.mark.parametrize("shape", [(3,), (515,), (1022,), (4, 5, 513), (3, 2, 65, 514), (2, 3, 4, 5)])
def test_driver_bitwise_matches_reference_on_every_axis(shape):
    x = r.standard_normal_field(len(shape), shape)
    for axis in range(-len(shape), len(shape)):
        for kind in TransformKind:
            if kind in _RAMP_KINDS and shape[axis] < 3:
                for entry in _entries(kind):
                    with pytest.raises(r.SizeMismatchError):
                        entry(x, axis)
                continue
            ref = _ref_apply(x, kind, axis)
            for entry in _entries(kind):
                _assert_same_bytes(entry(x, axis), ref)
        ref = _ref_apply(x, TransformKind.DCT3, axis, transposed=True)
        _assert_same_bytes(r.dct3_apply(x, axis, transposed=True), ref)
        _assert_same_bytes(r.apply_transform(x, TransformKind.DCT3, axis, True), ref)


def test_driver_bitwise_on_strided_and_non_float64_inputs():
    base = r.standard_normal_field(9, (260, 2100))
    strided = base[1::2, ::2]  # 130 x 1050, neither axis contiguous
    inputs = (strided, strided.astype(np.float32), (100 * strided).astype(np.int32))
    for data in inputs:
        for kind in TransformKind:
            for axis in (0, 1):
                for entry in _entries(kind):
                    _assert_same_bytes(entry(data, axis), _ref_apply(data, kind, axis))
    assert np.array_equal(base[1::2, ::2], strided)


@pytest.mark.parametrize("shape", [(5, 3), (65, 514), (3, 129, 1022), (2, 64, 513)])
def test_two_level_bitwise_matches_reference(shape):
    x = r.standard_normal_field(3, shape)
    before = x.copy()
    kinds = list(TransformKind) + [
        (TransformKind.DCT3, TransformKind.DST1),
        (TransformKind.AR, TransformKind.DCT3),
    ]
    for kind in kinds:
        kind0, kind1 = kind if isinstance(kind, tuple) else (kind, kind)
        for transposed in (False, True):
            ref = _ref_apply(_ref_apply(x, kind0, -2, transposed), kind1, -1, transposed)
            _assert_same_bytes(r.two_level_apply(x, kind, transposed), ref)
    assert x.tobytes() == before.tobytes()  # the input is never overwritten


def test_dense_transform_bitwise_matches_reference():
    for m in (1, 3, 64, 65, 515):
        for kind in TransformKind:
            if kind in _RAMP_KINDS and m < 3:
                continue
            _assert_same_bytes(r.dense_transform(kind, m), _ref_apply(np.eye(m), kind, axis=0))


def test_unknown_kind_and_short_axes_rejected():
    with pytest.raises(r.InvalidParameterError):
        r.apply_transform(np.ones(4), "dst1")
    with pytest.raises(r.SizeMismatchError):
        r.dst1_apply(np.ones((3, 0)))
    with pytest.raises(r.SizeMismatchError):
        r.ar_inverse_apply(np.ones((4, 2)), axis=1)


@pytest.mark.parametrize("call", [
    lambda: r.dct3_apply(np.ones(4), axis=3),
    lambda: r.dst1_apply(np.ones((4, 4)), axis=2),
    lambda: r.ar_apply(np.ones((4, 4)), axis=-3),
    lambda: r.ar_inverse_apply(np.ones((2, 4, 4)), axis=-4),
    lambda: r.apply_transform(np.ones(4), TransformKind.DST1, axis=1),
    lambda: r.two_level_apply(np.ones((4, 4)), (TransformKind.DCT3,)),
    lambda: r.two_level_apply(np.ones((4, 4)), (TransformKind.AR,) * 3),
], ids=["dct3", "dst1", "ar", "ar_inverse", "apply_transform", "one-kind", "three-kinds"])
def test_axis_out_of_range_and_kind_not_a_pair_rejected(call):
    with pytest.raises(r.InvalidParameterError):
        call()


def test_two_level_memory_is_output_plus_one_block():
    x = r.standard_normal_field(3, (1024, 1024))
    r.two_level_apply(x, TransformKind.AR)  # warm the plan caches
    tracemalloc.start()
    try:
        out = r.two_level_apply(x, TransformKind.AR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 64-line block: the gathered lines and the ramp temporary
    # (2 x 64 x 1024 floats, 1 MiB) and the Bluestein scratch of the
    # 1022-long interiors (64 x 2048 complex, 2 MiB); measured 3.4 MiB
    assert peak - out.nbytes <= 4 * 2**20
