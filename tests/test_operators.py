import os
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.signal

import refocus as r
from refocus import transforms
from refocus.filtering import log_mu_grid, restore, sweep
from refocus.operators import _correlate_valid
from refocus.operators import BoundaryCondition as BC
from refocus.transforms import _BLOCK_VALUES, _THREAD_VALUES

from conftest import rough_image, smooth_image


def test_pad_reflective_mirrors_with_edge_repeat():
    x = rough_image((4, 5))
    padded = r.pad(x, BC.REFLECTIVE, (2, 1))
    assert np.array_equal(padded[2:-2, 1:-1], x)
    assert np.array_equal(padded[1, 1:-1], x[0])
    assert np.array_equal(padded[0, 1:-1], x[1])
    assert np.array_equal(padded[2:-2, 0], x[:, 0])


def test_pad_antireflective_edge_and_corner_formulas():
    x = rough_image((5, 6))
    padded = r.pad(x, BC.ANTIREFLECTIVE, (2, 2))
    # edges: odd reflection about the boundary sample
    assert np.allclose(padded[1, 2:-2], 2.0 * x[0] - x[1], atol=1e-15)
    assert np.allclose(padded[0, 2:-2], 2.0 * x[0] - x[2], atol=1e-15)
    assert np.allclose(padded[2:-2, -1], 2.0 * x[:, -1] - x[:, -3], atol=1e-15)
    # corner: both odd reflections composed, a 4-term combination
    expected = 4.0 * x[0, 0] - 2.0 * x[1, 0] - 2.0 * x[0, 1] + x[1, 1]
    assert padded[1, 1] == pytest.approx(expected, rel=1e-14)


def test_pad_periodic_and_zero():
    x = rough_image((3, 4))
    wrap = r.pad(x, BC.PERIODIC, (1, 1))
    assert np.array_equal(wrap[0, 1:-1], x[-1])
    zero = r.pad(x, BC.ZERO, (1, 1))
    assert np.all(zero[0] == 0.0)


def test_pad_margin_limits():
    x = rough_image((5, 5))
    r.pad(x, BC.ANTIREFLECTIVE, (3, 3))
    with pytest.raises(r.SupportConditionError):
        r.pad(x, BC.ANTIREFLECTIVE, (4, 1))
    r.pad(x, BC.REFLECTIVE, (5, 5))
    with pytest.raises(r.SupportConditionError):
        r.pad(x, BC.REFLECTIVE, (6, 0))
    # zero margins are always fine
    assert np.array_equal(r.pad(x, BC.ANTIREFLECTIVE, (0, 0)), x)


def test_operator_requires_symmetry_for_spectral_rules():
    lopsided = r.PsfMask(np.array([[0.2, 0.5, 0.3]]))
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        with pytest.raises(r.AsymmetricMaskError):
            r.BlurOperator(lopsided, bc, (6, 6))
    # averaging rules take any mask
    r.BlurOperator(lopsided, BC.PERIODIC, (6, 6))
    r.BlurOperator(lopsided, BC.ZERO, (6, 6))


def test_identity_mask_is_noop(gauss11):
    x = rough_image((7, 6))
    op = r.BlurOperator(r.identity_mask(), BC.ANTIREFLECTIVE, (7, 6))
    assert np.array_equal(r.apply_blur(op, x), x)


def test_apply_blur_matches_dense_all_rules():
    mask = r.gaussian_mask((2, 1), (1.1, 0.9))
    x = rough_image((7, 6))
    for bc in BC:
        op = r.BlurOperator(mask, bc, (7, 6))
        dense = r.assemble_dense(op)
        direct = r.apply_blur(op, x).ravel()
        assert np.abs(dense @ x.ravel() - direct).max() <= 1e-13


def test_apply_blur_batched(gauss11):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (5, 4))
    stack = np.stack([rough_image((5, 4)), smooth_image((5, 4))])
    out = r.apply_blur(op, stack)
    assert np.array_equal(out[0], r.apply_blur(op, stack[0]))
    assert np.array_equal(out[1], r.apply_blur(op, stack[1]))


def test_dense_1d_reflective_m3_exact():
    w = np.array([0.25, 0.5, 0.25])
    dense = r.assemble_dense_1d(w, 3, BC.REFLECTIVE)
    expected = np.array(
        [[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]]
    )
    assert np.array_equal(dense, expected)


def test_dense_1d_antireflective_first_row():
    w = np.array([0.25, 0.5, 0.25])
    dense = r.assemble_dense_1d(w, 4, BC.ANTIREFLECTIVE)
    assert np.array_equal(dense[0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(dense[-1], [0.0, 0.0, 0.0, 1.0])


_EVEN_1D = np.array([0.5, 0.5])
_LOPSIDED_1D = np.array([0.2, 0.5, 0.3])
_SPECTRAL_RULES = (BC.REFLECTIVE, BC.ANTIREFLECTIVE)
_SHAPE_ENTRIES = [
    lambda shape: r.BlurOperator(r.identity_mask(), BC.REFLECTIVE, shape),
    lambda shape: r.eigen_grid_reflective(r.identity_mask(), shape),
    lambda shape: r.eigen_grid_tau(r.identity_mask(), shape),
    lambda shape: r.eigen_grid_ar(r.identity_mask(), shape),
]


_W3 = np.array([0.25, 0.5, 0.25])
_X6 = rough_image((6, 6))
_OP6 = r.BlurOperator(r.identity_mask(), BC.REFLECTIVE, (6, 6))


def _max_terms(v):
    return r.rre_sweep(_X6, _OP6, _X6, max_terms=v)  # None means all: no bound to test


# Each entry passes v to one integer parameter, with the bound v must reach
# (None: any integer).
_INT_ENTRIES = [
    (lambda v: r.gaussian_mask((v, 1), 1.0), 0),
    (lambda v: r.out_of_focus_mask((1, v), 1.0), 0),
    (lambda v: r.pad(_X6, BC.REFLECTIVE, (v, 1)), 0),
    (lambda v: r.fov_crop(_X6, (1, v)), 0),
    (lambda v: r.assemble_dense_1d(_W3, v, BC.REFLECTIVE), 1),
    (lambda v: r.tau_eigenvalues(_W3, v), 1),
    (lambda v: r.dense_transform(r.TransformKind.DST1, v), 1),
    (lambda v: r.ramp_vector(v), 3),
    (lambda v: r.TruncateByCount(v), 0),
    (_max_terms, 1),
    (lambda v: log_mu_grid(1e-8, 1.0, v), 1),
    (lambda v: r.NoiseSpec(0.01, v), None),
]
# Each entry passes v to one finite real parameter, with the largest value
# it refuses: the bound itself for "> 0", a value below it for ">= 0".
_REAL_ENTRIES = [
    (lambda v: r.TruncateByThreshold(v), 0.0),
    (lambda v: r.Tikhonov(v), 0.0),
    (lambda v: r.gaussian_mask((1, 1), v), 0.0),
    (lambda v: r.out_of_focus_mask((1, 1), v), 0.0),
    (lambda v: r.NoiseSpec(v), -0.1),
    (lambda v: r.snr_from_rho(v), -0.1),
]
_CONFIG_SCALARS = (
    [{name: v} for name in ("seed", "mu_count", "maxval") for v in (3.7, "4", None, 2.0)]
    + [{"mu_count": 0}, {"maxval": 255.0}]
    + [{"rhos": (v,)} for v in (np.inf, np.nan, "x", -0.1)]
)


def _x6_with(value):
    x = _X6.copy()
    x[2, 3] = value
    return x


# Each entry passes a data array, or one of two, through the finite-array
# rule; a file entry writes to the null device, so nothing is left behind.
_FINITE_ENTRIES = [
    lambda x: r.pad(x, BC.REFLECTIVE, (1, 1)),
    lambda x: r.blur_oversized_scene(x, r.identity_mask()),
    lambda x: r.picard_data(x, _OP6),
    lambda x: r.add_noise(x, r.NoiseSpec(0.1, 1)),
    lambda x: r.write_image(os.devnull, x),
    lambda x: r.write_matrix(os.devnull, x),
    lambda x: r.rre(x, _X6),
    lambda x: r.rre(_X6, x),
    lambda x: r.save_picard_csv(os.devnull, x.ravel(), _X6.ravel()),
    lambda x: r.save_picard_csv(os.devnull, _X6.ravel(), x.ravel()),
]


def _int_row(value):
    return [lambda e=e: e(value) for e, _ in _INT_ENTRIES
            if not (value is None and e is _max_terms)]


@pytest.mark.parametrize("entries, error", [
    # an even 1-D length: every entry that takes a 1-D mask, under every rule
    ([lambda: r.generating_function_1d(_EVEN_1D, 0.0), lambda: r.tau_eigenvalues(_EVEN_1D, 4)]
     + [lambda bc=bc: r.assemble_dense_1d(_EVEN_1D, 4, bc) for bc in BC],
     r.InvalidParameterError),
    # a lopsided 1-D mask: every entry whose rule needs a symmetric mask
    ([lambda: r.generating_function_1d(_LOPSIDED_1D, 0.0),
      lambda: r.tau_eigenvalues(_LOPSIDED_1D, 4)]
     + [lambda bc=bc: r.assemble_dense_1d(_LOPSIDED_1D, 4, bc) for bc in _SPECTRAL_RULES],
     r.AsymmetricMaskError),
    # a non-integer side, and a non-positive one: every operator or grid shape
    ([lambda e=e, s=s: e(s) for e in _SHAPE_ENTRIES for s in ((3.7, 5), (5, "4"))],
     r.SizeMismatchError),
    ([lambda e=e, s=s: e(s) for e in _SHAPE_ENTRIES for s in ((0, 5), (5, -2))],
     r.SizeMismatchError),
    # the integer rule: a value operator.index refuses, or one below the bound
    (_int_row(3.7), r.InvalidParameterError),
    (_int_row("4"), r.InvalidParameterError),
    (_int_row(None), r.InvalidParameterError),
    (_int_row(2.0), r.InvalidParameterError),
    ([lambda e=e, low=low: e(low - 1) for e, low in _INT_ENTRIES if low is not None],
     r.InvalidParameterError),
    # the finite-real rule: inf, NaN, a non-number, and a value at or below the bound
    ([lambda e=e, v=v: e(v) for e, _ in _REAL_ENTRIES for v in (np.inf, -np.inf)],
     r.InvalidParameterError),
    ([lambda e=e: e(np.nan) for e, _ in _REAL_ENTRIES], r.InvalidParameterError),
    ([lambda e=e: e("x") for e, _ in _REAL_ENTRIES], r.InvalidParameterError),
    ([lambda e=e, v=v: e(v) for e, v in _REAL_ENTRIES], r.InvalidParameterError),
    # both rules inside an experiment config
    ([lambda kw=kw: r.ExperimentConfig(scene="sinusoids:8x8", psf="identity", **kw)
      for kw in _CONFIG_SCALARS], r.ConfigError),
    # a scene shape goes through the operator-shape rule
    ([lambda f=f, s=s: f(s) for f in (r.low_frequency_scene, r.low_frequency_scene_color)
      for s in ((3.7, 5), (5, "4"), (0, 5), (5, -2))], r.SizeMismatchError),
    # the finite-array rule: NaN or inf in any data array, on any entry
    ([lambda e=e, v=v: e(_x6_with(v))
      for e in _FINITE_ENTRIES for v in (np.nan, np.inf, -np.inf)],
     r.InvalidParameterError),
    # a noise field's sides go through the integer rule (>= 1)
    ([lambda s=s: r.standard_normal_field(1, s)
      for s in ((2.5,), (-1, -1), (2, 0), (3, "4"), (None,), 2.5, -1)],
     r.InvalidParameterError),
    # data with fewer than two axes, or axes that do not match their partner
    ([lambda: r.pad(_X6[0], BC.REFLECTIVE, (1, 1)),
      lambda: r.blur_oversized_scene(_X6[0], r.identity_mask()),
      lambda: r.two_level_apply(_X6[0], r.TransformKind.DCT3),
      lambda: r.apply_blur(_OP6, _X6[:5]),
      lambda: r.save_picard_csv(os.devnull, _X6[0], _X6[0, :5]),
      lambda: r.save_picard_csv(os.devnull, _X6, _X6)],
     r.SizeMismatchError),
    # a filter call whose method, spec, reference or mu grid is malformed
    ([lambda: restore(_X6, _OP6, "tsd", 0.5),
      lambda: restore(_X6, _OP6, "magic", r.TruncateByCount(1)),
      lambda: restore(_X6, _OP6, "tsd", r.Tikhonov(0.1)),
      lambda: sweep(_X6, _OP6, "tsd", np.zeros((6, 6))),
      lambda: r.mu_sweep(_X6, _OP6, _X6, []),
      lambda: r.mu_sweep(_X6, _OP6, _X6, np.full((2, 2), 0.1))],
     r.InvalidParameterError),
    # an eigenvalue grid that is not 2-D, or an anti-reflective side below 3
    ([lambda: r.EigenGrid(values=np.ones(3), algebra="dct3"),
      lambda: r.eigen_grid_ar(r.identity_mask(), (2, 5))],
     r.InvalidParameterError),
    # first-column recovery: reflective only, and only under the dense size guard
    ([lambda bc=bc: r.eigen_from_first_column(r.BlurOperator(r.identity_mask(), bc, (6, 6)))
      for bc in (BC.ANTIREFLECTIVE, BC.PERIODIC)],
     r.UnsupportedAlgebraError),
    ([lambda: r.eigen_from_first_column(
        r.BlurOperator(r.identity_mask(), BC.REFLECTIVE, (200, 101)))],
     r.SizeGuardError),
], ids=["even-1d-length", "lopsided-1d-mask", "non-integer-side", "non-positive-side",
        "int-3.7", "int-str", "int-none", "int-2.0", "int-below-bound",
        "real-inf", "real-nan", "real-str", "real-at-or-below-bound",
        "config-int-and-real", "scene-shape", "finite-array", "noise-field-shape",
        "data-axes", "filter-arguments", "grid-arguments", "first-column-rule",
        "first-column-size"])
def test_each_rule_raises_its_one_error_from_every_entry(entries, error):
    for entry in entries:
        with pytest.raises(error) as info:
            entry()
        assert type(info.value) is error


def test_averaging_rules_take_a_lopsided_1d_mask():
    for bc in (BC.PERIODIC, BC.ZERO):
        dense = r.assemble_dense_1d(_LOPSIDED_1D, 4, bc)
        assert np.array_equal(dense[:, 1], _LOPSIDED_1D[::-1].tolist() + [0.0])


def test_blur_oversized_scene_matches_scipy(gauss22):
    scene = rough_image((11, 12))
    ours = r.blur_oversized_scene(scene, gauss22)
    ref = scipy.signal.correlate2d(scene, gauss22.weights, mode="valid")
    assert np.abs(ours - ref).max() <= 1e-14
    assert ours.shape == (7, 8)


def test_blur_of_padded_fov_equals_operator(gauss22):
    # extending the field of view by the boundary rule and blurring the
    # oversized result must equal the matrix-free operator exactly
    f = rough_image((8, 9))
    for bc in BC:
        op = r.BlurOperator(gauss22, bc, (8, 9))
        scene = r.pad(f, bc, gauss22.half_support)
        assert np.array_equal(
            r.blur_oversized_scene(scene, gauss22), r.apply_blur(op, f)
        )


def test_blur_entries_reject_non_finite(gauss11):
    x = rough_image((6, 7))
    x[2, 3] = np.nan
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (6, 7))
    scene = r.pad(rough_image((6, 7)), BC.REFLECTIVE, (1, 1))
    scene[0, 0] = -np.inf
    for call in (lambda: r.pad(x, BC.ZERO, (1, 1)), lambda: r.apply_blur(op, x),
                 lambda: r.blur_oversized_scene(scene, gauss11)):
        with pytest.raises(r.InvalidParameterError, match="NaN or inf"):
            call()


def test_fov_crop():
    scene = rough_image((9, 8))
    crop = r.fov_crop(scene, (2, 1))
    assert np.array_equal(crop, scene[2:-2, 1:-1])
    with pytest.raises(r.SizeMismatchError):
        r.fov_crop(scene, (5, 1))


def test_operator_margin_validation(gauss22):
    with pytest.raises(r.SupportConditionError):
        r.BlurOperator(gauss22, BC.ANTIREFLECTIVE, (3, 8))
    r.BlurOperator(gauss22, BC.ANTIREFLECTIVE, (4, 8))


def test_assemble_dense_guard(gauss11):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (150, 150))
    with pytest.raises(r.SizeGuardError):
        r.assemble_dense(op)


def _whole_slice_correlate(extended, weights, out_shape):
    """Reference kernel: one image-sized product per nonzero tap."""
    n1, n2 = out_shape
    out = np.zeros(extended.shape[:-2] + (n1, n2))
    for a in range(weights.shape[0]):
        for b in range(weights.shape[1]):
            w = weights[a, b]
            if w != 0.0:
                out += w * extended[..., a : a + n1, b : b + n2]
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# gaussian_mask((2, 1), ...) pads rows by 2 on each side and columns by
# 1, so n2 = 254 makes extended rows of 256 floats: a tile then holds
# whole images up to n1 = _TILE_ROWS - 4 and strips of _TILE_ROWS rows.
_TILE_ROWS = _BLOCK_VALUES // 256


@pytest.mark.parametrize(
    "shape",
    [
        (1, 7, 6),
        (3, 7, 6),
        (512, 9, 8),
        (2, 3, 20, 22),
        (3, _TILE_ROWS - 5, 254),
        (3, _TILE_ROWS - 4, 254),
        (3, _TILE_ROWS - 3, 254),
        (1, _TILE_ROWS - 1, 254),
        (2, _TILE_ROWS, 254),
        (1, _TILE_ROWS + 1, 254),
        (1, 2 * _TILE_ROWS - 1, 254),
        (3, 2 * _TILE_ROWS + 1, 254),
    ],
)
def test_tiled_blur_is_bitwise_whole_slice_sum(shape):
    mask = r.gaussian_mask((2, 1), (1.1, 0.9))
    x = r.standard_normal_field(11, shape)
    x.flat[::7] = -0.0
    for bc in BC:
        ext = r.pad(x, bc, mask.half_support)
        want = _whole_slice_correlate(ext, mask.weights, shape[-2:])
        assert _same_bits(_correlate_valid(ext, mask.weights, shape[-2:]), want)
        op = r.BlurOperator(mask, bc, shape[-2:])
        assert _same_bits(r.apply_blur(op, x), want)


def test_tiled_blur_sparse_zero_and_identity_masks():
    x = r.standard_normal_field(3, (3, 2 * _TILE_ROWS + 1, 254))
    x.flat[::5] = -0.0
    disk = r.out_of_focus_mask((2, 1), 2.0)
    assert (disk.weights == 0).any()
    ext = r.pad(x, BC.REFLECTIVE, disk.half_support)
    want = _whole_slice_correlate(ext, disk.weights, x.shape[-2:])
    assert _same_bits(_correlate_valid(ext, disk.weights, x.shape[-2:]), want)
    # no nonzero tap at all: an exact zero field
    empty = np.zeros((5, 3))
    assert _same_bits(_correlate_valid(ext, empty, x.shape[-2:]), np.zeros(x.shape))
    op = r.BlurOperator(r.identity_mask(), BC.PERIODIC, x.shape[-2:])
    assert r.apply_blur(op, np.empty((0,) + x.shape)).shape == (0,) + x.shape
    blurred = r.apply_blur(op, x)
    assert np.array_equal(blurred, x)
    assert _same_bits(blurred, _whole_slice_correlate(x, np.ones((1, 1)), x.shape[-2:]))


def test_tiled_blur_oversized_and_strided_scenes():
    mask = r.gaussian_mask((2, 2), 1.0)
    scene = r.standard_normal_field(9, (3, 2 * _TILE_ROWS + 5, 300))
    for view in (scene, scene[:, :, ::2], scene.transpose(0, 2, 1)):
        out_shape = (view.shape[-2] - 4, view.shape[-1] - 4)
        want = _whole_slice_correlate(view, mask.weights, out_shape)
        assert _same_bits(r.blur_oversized_scene(view, mask), want)


def test_blur_memory_is_output_plus_extension_plus_one_mib():
    disk = r.out_of_focus_mask((5, 5), 4.5)
    op = r.BlurOperator(disk, BC.REFLECTIVE, (512, 512))
    x = r.standard_normal_field(1, (512, 512))
    extension_bytes = 8 * (512 + 10) ** 2
    tracemalloc.start()
    try:
        out = r.apply_blur(op, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + extension_bytes + 2**20


def _correlate_at(workers, extended, weights, out_shape):
    with scipy.fft.set_workers(workers):
        return _correlate_valid(extended, weights, out_shape)


def _sparse_weights():
    w = np.zeros((5, 5))
    w[0, 0] = w[4, 4] = 0.5  # one weight on two taps four rows apart
    w[2, 1] = 0.25  # a weight on a single tap
    return w


# the disk has one weight on its 69 taps; the 15 x 15 gaussian has 35
# weights, more than the scratch shares; the ramp puts each weight on
# one tap, so nothing is shared
_PIN_MASKS = {
    "disk": r.out_of_focus_mask((5, 5), 4.5).weights,
    "gauss15": r.gaussian_mask((7, 7), 2.0).weights,
    "ramp": np.arange(1.0, 10.0).reshape(3, 3) / 45.0,
    "sparse": _sparse_weights(),
    "zero": np.zeros((5, 3)),
}


# Above the thread cutoff: 520 x 516 images take strip tiles, one and
# three channels; 40 images of 80 x 90 take whole-image tiles, three or
# more images each. The empty stack has no tile at all.
@pytest.mark.parametrize("shape", [(1, 520, 516), (3, 520, 516), (40, 80, 90), (0, 520, 516)])
@pytest.mark.parametrize("name", list(_PIN_MASKS))
def test_threads_and_shared_products_leave_blur_bytes_unchanged(shape, name):
    weights = _PIN_MASKS[name]
    x = np.zeros(shape) if 0 in shape else r.standard_normal_field(len(shape), shape)
    x.flat[::7] = -0.0
    ext = r.pad(x, BC.REFLECTIVE, tuple(n // 2 for n in weights.shape))
    want = _whole_slice_correlate(ext, weights, shape[-2:])
    for workers in (1, 2, 3):
        assert _same_bits(_correlate_at(workers, ext, weights, shape[-2:]), want)


def test_fast_switching_blur_threads_keep_their_scratch():
    # three threads switching every microsecond: a tile lost, taken twice
    # or built in another thread's scratch changes the bytes
    weights = _PIN_MASKS["gauss15"]
    x = r.standard_normal_field(4, (3, 520, 516))
    ext = r.pad(x, BC.REFLECTIVE, (7, 7))
    want = _correlate_at(1, ext, weights, x.shape[-2:])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert _same_bits(_correlate_at(3, ext, weights, x.shape[-2:]), want)
    finally:
        sys.setswitchinterval(interval)


def test_pin_masks_cover_shared_and_lone_taps():
    # every shared product spans at least a tile, so the gaussian's 35
    # weights need more scratch than the shares may take
    gauss = _PIN_MASKS["gauss15"]
    assert np.unique(gauss).size * _BLOCK_VALUES > 2 * _BLOCK_VALUES
    assert np.unique(_PIN_MASKS["disk"][_PIN_MASKS["disk"] != 0]).size == 1
    assert (np.unique(gauss, return_counts=True)[1] == 1).any()
    assert np.count_nonzero(_PIN_MASKS["sparse"]) == 3


def test_blur_threads_start_only_above_the_cutoff(monkeypatch):
    started = []

    class Counted(transforms.ThreadPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(transforms, "ThreadPoolExecutor", Counted)
    disk = r.out_of_focus_mask((3, 3), 2.5)
    # the experiment workloads (gray sides up to 256, color up to 128)
    # and one value below the cutoff
    below = [(48, 48), (80, 80), (256, 256), (3, 64, 64), (3, 128, 128), (3, 256, 256)]
    below.append((1, 511, 513))
    assert 511 * 513 == _THREAD_VALUES - 1
    for shape in below:
        x = np.ones(shape)
        op = r.BlurOperator(disk, BC.REFLECTIVE, shape[-2:])
        with scipy.fft.set_workers(3):
            r.apply_blur(op, x)
            r.blur_oversized_scene(r.pad(x, BC.REFLECTIVE, (3, 3)), disk)
    assert started == []
    # the library default of one worker never starts a thread
    op = r.BlurOperator(disk, BC.REFLECTIVE, (1024, 1024))
    r.apply_blur(op, np.ones((1024, 1024)))
    assert started == []
    # from the cutoff up: at most half the tiles (9 strips at 512^2)
    with scipy.fft.set_workers(3):
        r.apply_blur(r.BlurOperator(disk, BC.REFLECTIVE, (512, 512)), np.ones((512, 512)))
    with scipy.fft.set_workers(2):
        r.apply_blur(r.BlurOperator(disk, BC.ZERO, (10, 10)), np.ones((3000, 10, 10)))
    assert started == [3, 2]
