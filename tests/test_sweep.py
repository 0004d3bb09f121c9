"""The coefficient-space sweep engine: curves, Gram factors and costs."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import refocus as r
from refocus import filtering, imageio, spectrum, transforms
from refocus.filtering import Tikhonov, TruncateByCount, restore, sweep
from refocus.operators import BoundaryCondition as BC
from refocus.transforms import TransformKind

from conftest import rough_image

# the channel mixing of the benchmark's color workload
MIX = r.ColorMixing(
    np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.15, 0.1, 0.75]])
)
METHODS = ("tsd", "tsvd", "tikhonov")
RULES = (BC.REFLECTIVE, BC.ANTIREFLECTIVE)
# 3 is the smallest anti-reflective side; 515 has an interior of 513,
# one past the direct sine-transform limit
SIDES = (3, 4, 5, 7, 11, 13, 16)
LONG_SIDE = 515


def _problem(shape, bc, color, rho, seed=4):
    """A separable blur, a reference and its noisy observation."""
    half = tuple(1 if n >= 4 else 0 for n in shape)
    op = r.BlurOperator(r.gaussian_mask(half, (0.9, 1.3)), bc, shape)
    f = rough_image(shape, seed=seed)
    if color:
        f = np.stack([f, 0.9 * f[::-1], 1.1 * f[:, ::-1]])
        g = r.cross_channel_blur(f, MIX, op)
    else:
        g = r.apply_blur(op, f)
    g, _snr = r.add_noise(g, r.NoiseSpec(rho, seed))
    return op, f, g, MIX if color else None


def _spec(method, param):
    return Tikhonov(float(param)) if method == "tikhonov" else TruncateByCount(int(param))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n1=st.sampled_from(SIDES),
    n2=st.sampled_from(SIDES + (LONG_SIDE,)),
    method=st.sampled_from(METHODS),
    bc=st.sampled_from(RULES),
    color=st.booleans(),
    rho=st.sampled_from((0.0, 0.01)),
)
@example(n1=3, n2=LONG_SIDE, method="tsd", bc=BC.ANTIREFLECTIVE, color=True, rho=0.0)
@example(n1=3, n2=LONG_SIDE, method="tikhonov", bc=BC.ANTIREFLECTIVE, color=False, rho=0.01)
@example(n1=13, n2=LONG_SIDE, method="tsvd", bc=BC.ANTIREFLECTIVE, color=True, rho=0.01)
def test_curve_matches_restorations(n1, n2, method, bc, color, rho):
    op, f, g, mixing = _problem((n1, n2), bc, color, rho)
    curve = sweep(g, op, method, f, mixing)
    for i in sorted({0, curve.best_index, curve.params.size - 1}):
        res = restore(g, op, method, _spec(method, curve.params[i]), mixing)
        assert abs(curve.rres[i] - r.rre(res.image, f)) <= 1e-12


@pytest.mark.parametrize("m", [3, 4, 17, LONG_SIDE])
def test_ramp_gram_matches_dense_basis(m):
    s = r.dense_transform(TransformKind.AR, m)
    cols = transforms.ramp_gram(m)
    # E = sum_b (e_b c_b^T + c_b e_b^T): the split columns share the corner
    e = np.zeros((m, m))
    for k, b in enumerate((0, m - 1)):
        e[:, b] += cols[:, k]
        e[b, :] += cols[:, k]
    assert np.abs(s.T @ s - np.eye(m) - e).max() <= 1e-13


def test_synthesis_gram_and_kind_per_rule():
    assert spectrum._BASES[BC.REFLECTIVE].gram is None
    g1, g2 = (spectrum._BASES[BC.ANTIREFLECTIVE].gram(n) for n in (5, 6))
    assert g1.shape == (5, 2) and g2.shape == (6, 2)
    assert r.synthesis_kind(BC.REFLECTIVE) is TransformKind.DCT3
    assert r.synthesis_kind(BC.ANTIREFLECTIVE) is TransformKind.AR
    with pytest.raises(r.UnsupportedAlgebraError):
        r.synthesis_kind(BC.PERIODIC)


def _dense_synthesis(plan, basis):
    """The per-axis synthesis matrices S1, S2 of a plan, built densely."""
    op = plan.op
    if basis == "eigen":
        return [r.dense_transform(r.synthesis_kind(op.bc), n) for n in op.shape]
    factors = r.separable_factors(op.mask)
    return [np.linalg.svd(r.assemble_dense_1d(w, n, op.bc))[2].T
            for w, n in zip(factors, op.shape)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n1=st.integers(3, 14),
    n2=st.integers(3, 14),
    bc=st.sampled_from(RULES),
    basis=st.sampled_from(("eigen", "svd")),
    channels=st.sampled_from((None, 3)),
    seed=st.integers(0, 2**16),
)
@example(n1=13, n2=7, bc=BC.ANTIREFLECTIVE, basis="eigen", channels=3, seed=0)
@example(n1=3, n2=11, bc=BC.ANTIREFLECTIVE, basis="eigen", channels=None, seed=1)
def test_gram_form_matches_dense_synthesis(n1, n2, bc, basis, channels, seed):
    half = tuple(1 if n >= 4 else 0 for n in (n1, n2))
    op = r.BlurOperator(r.gaussian_mask(half, (0.9, 1.3)), bc, (n1, n2))
    plan = filtering._Plan(op, basis)
    s1, s2 = _dense_synthesis(plan, basis)
    rng = np.random.default_rng(seed)
    shape = (n1, n2) if channels is None else (channels, n1, n2)
    coef, target, d = (rng.standard_normal(shape) for _ in range(3))

    def dense_norm_sq(y):
        return np.sum((s1 @ y @ s2.T) ** 2, axis=(-3, -2, -1) if y.ndim > 3 else None)

    expected = dense_norm_sq(d)
    assert abs(filtering._gram_norm_sq(d, plan.borders) - expected) <= 1e-12 * expected
    # D_k holds coef/lam - target on the k first usable indices of the
    # stable spectral order and -target elsewhere
    lam = plan.lam.ravel()
    order = np.argsort(-np.abs(lam), kind="stable")
    usable = int(np.count_nonzero(np.abs(lam) >= filtering.ZERO_SPECTRUM_TOL))
    position = np.empty(lam.size, dtype=int)
    position[order] = np.arange(lam.size)
    flat_target = target.reshape(-1, lam.size)
    resid = coef.reshape(-1, lam.size) / lam - flat_target
    kept = (position < np.arange(1, usable + 1)[:, None])[:, None, :]
    d_k = np.where(kept, resid, -flat_target).reshape((usable, -1, n1, n2))
    expected = dense_norm_sq(d_k)
    errors = filtering._truncation_errors(coef, plan, target, None)
    assert errors.shape == (usable,)
    assert np.all(np.abs(errors - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("bc", RULES)
def test_full_sweep_beyond_dense_transform_limit(bc):
    # a 5000-row side used to need 5000 x 5000 dense basis matrices
    op, f, g, _ = _problem((5000, 8), bc, False, 0.01)
    curve = r.rre_sweep(g, op, f)
    assert curve.params.size == 40000
    for i in (curve.best_index, curve.params.size - 1):
        res = r.truncated_sd_restore(g, op, TruncateByCount(int(curve.params[i])))
        assert abs(curve.rres[i] - r.rre(res.image, f)) <= 1e-12


def _count_calls(monkeypatch, calls, name, counts=lambda *a, **k: True):
    """Wrap name in every refocus module that binds it; tally calls."""
    for module in [m for key, m in sys.modules.items() if key.startswith("refocus")]:
        real = getattr(module, name, None)
        if real is None:
            continue

        def wrapper(*args, _real=real, **kwargs):
            if counts(*args, **kwargs):
                calls[name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)


def _synthesis_kind(x, kind, axis=-1, transposed=False, in_place=False):
    return kind is TransformKind.AR or (kind is TransformKind.DCT3 and not transposed)


def test_sweep_makes_no_synthesis_and_no_dense_transform(monkeypatch):
    calls = {"basis_synthesis": 0, "_transform": 0, "dense_transform": 0,
             "spectral_synthesis": 0}
    real_plan = filtering._plan

    def counted_plan(op, method):
        plan = real_plan(op, method)
        synthesis = plan.synthesis

        def counted_synthesis(x):
            calls["basis_synthesis"] += 1
            return synthesis(x)

        plan.synthesis = counted_synthesis
        return plan

    monkeypatch.setattr(filtering, "_plan", counted_plan)
    # every public transform goes through the private driver
    _count_calls(monkeypatch, calls, "_transform", _synthesis_kind)
    _count_calls(monkeypatch, calls, "dense_transform")
    _count_calls(monkeypatch, calls, "spectral_synthesis")
    for bc in RULES:
        for method in METHODS:
            for color in (False, True):
                op, f, g, mixing = _problem((9, 8), bc, color, 0.01)
                sweep(g, op, method, f, mixing)
                assert calls == dict.fromkeys(calls, 0), (bc, method, color)
    # the counters do see the synthesis of a restoration
    for method in METHODS:
        restore(g, op, method, _spec(method, 3), mixing)
    assert calls["basis_synthesis"] == 3
    assert calls["spectral_synthesis"] == 2
    assert calls["_transform"] == 4


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", np.float64(2.0)])
def test_max_terms_validated(bad):
    op, f, g, _ = _problem((6, 6), BC.REFLECTIVE, False, 0.0)
    with pytest.raises(r.InvalidParameterError):
        sweep(g, op, "tsd", f, max_terms=bad)
    with pytest.raises(r.InvalidParameterError):
        r.rre_sweep(g, op, f, max_terms=bad)


def test_max_terms_accepts_integer_like():
    op, f, g, _ = _problem((6, 6), BC.REFLECTIVE, False, 0.0)
    curve = sweep(g, op, "tsvd", f, max_terms=np.int64(4))
    assert curve.params.tolist() == [1, 2, 3, 4]
    assert sweep(g, op, "tsd", f, max_terms=1000).params.size == 36


def _rows_per_value(*columns):
    """The per-row writer the batched CSV formatter replaced."""
    return "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in zip(*columns)
    )


def test_write_csv_matches_per_row_format(tmp_path, monkeypatch):
    ints = np.array([1, 2, 40000, 2**53 + 1, -7, 0, 3])
    floats = np.array([-0.0, 5e-324, 1e300, -1e300, 0.1, np.pi, -2.5e-308])
    monkeypatch.setattr(imageio, "_CSV_BLOCK", 3)  # several blocks, one partial
    path = tmp_path / "rows.csv"
    for columns in ((ints, floats), (floats, ints), (floats,), (ints[:0], floats[:0])):
        imageio._write_csv(path, "h", *columns)
        assert path.read_text() == "h\n" + _rows_per_value(*columns)


def test_csv_writers_keep_their_bytes(tmp_path):
    op, f, g, _ = _problem((6, 7), BC.ANTIREFLECTIVE, False, 0.01)
    curve = r.rre_sweep(g, op, f)
    r.save_curve_csv(curve, tmp_path / "curve.csv")
    assert (tmp_path / "curve.csv").read_text() == "param,rre\n" + _rows_per_value(
        curve.params, curve.rres
    )
    mags, coefs = r.picard_data(g, op)
    r.save_picard_csv(tmp_path / "picard.csv", mags, coefs)
    assert (tmp_path / "picard.csv").read_text() == (
        "abs_value,abs_coef\n" + _rows_per_value(mags, coefs)
    )
    grid = r.eigen_grid_for(op)
    r.save_eigen_csv(grid, tmp_path / "eigen.csv")
    assert (tmp_path / "eigen.csv").read_text() == "value\n" + _rows_per_value(
        grid.values.ravel()
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_writers_refuse_non_finite_before_opening(tmp_path, bad):
    column = np.array([0.5, bad, 0.25])
    path = tmp_path / "bad.csv"
    for write in (
        lambda: r.save_curve_csv(filtering.SweepCurve(np.arange(3), column, "tsd"), path),
        lambda: r.save_eigen_csv(r.EigenGrid(column[None, :], "dct3"), path),
        lambda: r.save_picard_csv(path, column, np.ones(3)),
    ):
        with pytest.raises(r.InvalidParameterError, match="NaN or inf"):
            write()
        assert not path.exists()
