import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import refocus as r
from refocus import transforms
from refocus.metrics import _FIELD_BLOCK, _GAMMA, _mix64_in_place
from refocus.operators import BoundaryCondition as BC
from refocus.transforms import _THREAD_VALUES

from conftest import rough_image


def test_counter_mix_matches_reference_stream():
    # published reference outputs of the splitmix64 generator, seed 0
    counters = np.arange(1, 4, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = counters * _GAMMA
        z = _mix64_in_place(x, np.empty_like(x))
    assert list(z) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_normal_field_deterministic_counter_mode():
    a = r.standard_normal_field(42, (40,))
    b = r.standard_normal_field(42, (8, 5))
    assert np.array_equal(a, b.ravel())
    # prefix property: the field is a pure function of (seed, index)
    assert np.array_equal(a[:13], r.standard_normal_field(42, (13,)))
    assert not np.array_equal(a, r.standard_normal_field(43, (40,)))


def _one_shot_field(seed, size):
    """Reference: the field formula evaluated over the whole field at once."""
    npairs = (size + 1) // 2
    idx = np.arange(1, 2 * npairs + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed % 2**64) + idx * _GAMMA
        z = _mix64_in_place(x, np.empty_like(x))
    u = (z >> np.uint64(11)).astype(float) / 2.0**53
    radius = np.sqrt(-2.0 * np.log(u[0::2] + 1.0 / 2.0**53))
    out = np.empty(2 * npairs)
    out[0::2] = radius * np.cos(2.0 * np.pi * u[1::2])
    out[1::2] = radius * np.sin(2.0 * np.pi * u[1::2])
    return out[:size]


@pytest.mark.parametrize("size", [
    1, 2, 3, 2 * _FIELD_BLOCK - 1, 2 * _FIELD_BLOCK, 2 * _FIELD_BLOCK + 1,
])
def test_blocked_field_matches_one_shot_formula(size):
    for seed in (0, 11, -5):
        field = r.standard_normal_field(seed, size)
        assert field.tobytes() == _one_shot_field(seed, size).tobytes()


def test_blocked_field_is_a_function_of_seed_and_index():
    shape = (3, 97, 2 * _FIELD_BLOCK // 97 + 5)  # several blocks, a partial one last
    field = r.standard_normal_field(8, shape)
    assert field.shape == shape
    assert field.tobytes() == _one_shot_field(8, math.prod(shape)).tobytes()
    # a longer field extends a shorter one across block boundaries
    short = r.standard_normal_field(8, 2 * _FIELD_BLOCK + 3)
    assert field.ravel()[: short.size].tobytes() == short.tobytes()


@pytest.mark.parametrize("shape", [(37, 41), (3, 29, 31)])
def test_add_noise_is_data_plus_scaled_field_bitwise(shape):
    g = r.standard_normal_field(2, shape) ** 2
    before = g.copy()
    spec = r.NoiseSpec(0.03, 9)
    nu = r.standard_normal_field(spec.seed, shape)
    # each norm is a fixed-order einsum sum, which makes no BLAS call
    g_norm, nu_norm = (np.sqrt(np.einsum("i,i->", x.ravel(), x.ravel())) for x in (g, nu))
    scale = spec.rho * g_norm / nu_norm
    noisy, _snr = r.add_noise(g, spec)
    assert noisy.tobytes() == (g + scale * nu).tobytes()
    assert not np.shares_memory(noisy, g)
    assert g.tobytes() == before.tobytes()


def test_normal_field_statistics():
    z = r.standard_normal_field(7, (20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    assert np.isfinite(z).all()


def test_noise_scaling_is_exact():
    g = rough_image((12, 11))
    for rho in (1e-3, 1e-2, 0.1):
        noisy, snr = r.add_noise(g, r.NoiseSpec(rho, 5))
        level = np.linalg.norm(noisy - g) / np.linalg.norm(g)
        assert level == pytest.approx(rho, rel=1e-12)
        assert snr == pytest.approx(20.0 * math.log10(1.0 / rho), rel=1e-12)


def test_zero_noise_returns_copy():
    g = rough_image((6, 6))
    noisy, snr = r.add_noise(g, r.NoiseSpec(0.0, 1))
    assert np.array_equal(noisy, g)
    assert noisy is not g
    assert snr == math.inf
    assert r.snr_from_rho(0) == math.inf


def test_noise_spec_validation():
    with pytest.raises(r.InvalidParameterError):
        r.NoiseSpec(-0.1, 0)
    with pytest.raises(r.InvalidParameterError):
        r.NoiseSpec(float("nan"), 0)


def test_rre_known_value():
    ref = np.array([[3.0, 4.0]])
    est = np.array([[3.0, 4.0 + 5.0 * 0.01]])
    assert r.rre(est, ref) == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(r.InvalidParameterError):
        r.rre(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(r.SizeMismatchError):
        r.rre(np.zeros((2, 2)), np.zeros((2, 3)))


def test_picard_data_ordering_and_decay(gauss11):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (8, 8))
    f = rough_image((8, 8))
    g = r.apply_blur(op, f)
    lam, coef = r.picard_data(g, op)
    assert lam.shape == coef.shape == (64,)
    assert np.all(np.diff(lam) <= 1e-15)
    # model-consistent data: coefficients decay with the eigenvalues
    fhat = r.spectral_analysis(f, op.bc)
    assert np.all(coef <= lam * (np.abs(fhat).max() + 1e-12))


def test_picard_data_color(gauss11, mix_matrix):
    op = r.BlurOperator(gauss11, BC.ANTIREFLECTIVE, (6, 6))
    f = np.stack([rough_image((6, 6), seed=s) for s in (1, 2, 3)])
    g = r.cross_channel_blur(f, mix_matrix, op)
    lam, coef = r.picard_data(g, op)
    assert lam.shape == coef.shape == (36,)
    assert np.all(coef >= 0)


def test_picard_data_checks_entry(gauss11):
    # one NaN pixel used to turn every returned coefficient into NaN
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (8, 8))
    g = r.apply_blur(op, rough_image((8, 8)))
    g[3, 4] = np.nan
    with pytest.raises(r.InvalidParameterError):
        r.picard_data(g, op)
    with pytest.raises(r.InvalidParameterError):
        r.picard_data(np.full((3, 8, 8), np.inf), op)
    with pytest.raises(r.SizeMismatchError):
        r.picard_data(np.ones((8, 7)), op)
    with pytest.raises(r.SizeMismatchError):
        r.picard_data(np.ones((2, 8, 8)), op)


def test_save_picard_csv(tmp_path):
    path = tmp_path / "picard.csv"
    r.save_picard_csv(path, np.array([1.0, 0.5]), np.array([2.0, 0.25]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "abs_value,abs_coef"
    assert lines[1] == "1,2"
    assert [float(x) for x in lines[2].split(",")] == [0.5, 0.25]


def test_noise_spec_accepts_integer_like_seeds():
    spec = r.NoiseSpec(0.1, np.int64(3))
    assert spec.seed == 3 and type(spec.seed) is int
    g = np.ones((4, 5))
    expected, _ = r.add_noise(g, r.NoiseSpec(0.1, 3))
    assert np.array_equal(r.add_noise(g, spec)[0], expected)
    with pytest.raises(r.InvalidParameterError):
        r.NoiseSpec(0.1, 3.0)


def test_normal_field_takes_numpy_integer_seeds_modulo_2_64():
    expected = r.standard_normal_field(-1, (2,))
    for seed in (np.int64(-1), 2**64 - 1, np.uint64(2**64 - 1)):
        assert r.standard_normal_field(seed, (2,)).tobytes() == expected.tobytes()
    assert r.standard_normal_field(np.int32(42), (5,)).tobytes() == (
        r.standard_normal_field(42, (5,)).tobytes()
    )
    # Python-int seeds keep their fields, bit for bit
    pinned = {
        0: "8fabcf99fbf9dcbf768d38db1398ca3f",
        7: "62eecd2902d7f53f110e77dfab7fc23f",
        -1: "4424e3b677d9d93f5ff0b1a643a3cfbf",
        2**64 + 5: "cecb62266775943fb0f66747250df6bf",
    }
    for seed, hexbytes in pinned.items():
        assert r.standard_normal_field(seed, (2,)).tobytes().hex() == hexbytes
    with pytest.raises(TypeError):
        r.standard_normal_field(1.5, (2,))


def test_normal_field_takes_a_bare_int_or_empty_shape():
    five = r.standard_normal_field(3, (5,))
    assert r.standard_normal_field(3, 5).tobytes() == five.tobytes()
    assert r.standard_normal_field(3, np.int64(5)).tobytes() == five.tobytes()
    assert r.standard_normal_field(3, (np.int32(5),)).tobytes() == five.tobytes()
    scalar = r.standard_normal_field(3, ())
    assert scalar.shape == () and scalar.tobytes() == five[:1].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_add_noise_rejects_non_finite_data(bad):
    for rho in (0.1, 0.0):
        with pytest.raises(r.InvalidParameterError, match="NaN or inf"):
            r.add_noise([[bad, 1.0]], r.NoiseSpec(rho, 1))


def _field_at(workers, seed, shape):
    with scipy.fft.set_workers(workers):
        return r.standard_normal_field(seed, shape)


_BLOCK = 2 * _FIELD_BLOCK  # values per block


# from one value below the thread cutoff (four blocks) up, around whole
# blocks and whole pairs, and one odd 3-D field with a partial block
@pytest.mark.parametrize("shape", [
    4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, 5 * _BLOCK - 2, 7 * _BLOCK + 3, (3, 311, 299),
])
def test_threaded_field_matches_one_shot_formula(shape):
    want = _one_shot_field(-9, math.prod(np.atleast_1d(shape))).tobytes()
    for workers in (1, 2, 3):
        field = _field_at(workers, -9, shape)
        assert field.shape == np.empty(shape).shape and field.tobytes() == want


def test_threaded_field_memory_is_output_plus_block_buffers():
    shape = (1020, 1020)
    _field_at(2, 1, shape)  # warm-up: first-call allocations stay out of the peak
    with scipy.fft.set_workers(2):
        tracemalloc.start()
        try:
            out = r.standard_normal_field(1, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # two uint64 block buffers per thread, plus the counter steps they share
    assert peak <= out.nbytes + (2 * 2 + 1) * 8 * _BLOCK + 2**16


def test_field_threads_start_only_above_the_cutoff(monkeypatch):
    started = []

    class Counted(transforms.ThreadPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(transforms, "ThreadPoolExecutor", Counted)
    assert _THREAD_VALUES == 4 * _BLOCK
    # the experiment workloads' fields: 256^2 gray, 3 x 128^2 color, and
    # one value below the cutoff
    for shape in [(256, 256), (3, 128, 128), (3, 256, 256), _THREAD_VALUES - 1]:
        _field_at(3, 1, shape)
    assert started == []
    r.standard_normal_field(1, (1020, 1020))  # the library default of one worker
    assert started == []
    # at most half the blocks
    _field_at(3, 1, _THREAD_VALUES)
    _field_at(3, 1, (1020, 1020))
    assert started == [2, 3]
