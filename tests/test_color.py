import numpy as np
import pytest

import refocus as r
from refocus.filtering import restore, sweep
from refocus.operators import BoundaryCondition as BC

from conftest import rough_image


def _color_image(shape, seed=11):
    return np.stack(
        [rough_image(shape, seed=seed + c) for c in range(3)]
    )


def test_mixing_validation():
    with pytest.raises(r.InvalidParameterError):
        r.ColorMixing(np.eye(2))
    bad = np.eye(3)
    bad[0, 0] = 0.9
    with pytest.raises(r.InvalidParameterError):
        r.ColorMixing(bad)
    for value in (np.nan, np.inf):
        bad = np.eye(3)
        bad[0, 0] = value
        with pytest.raises(r.InvalidParameterError, match="finite"):
            r.ColorMixing(bad)
    assert np.array_equal(r.identity_mixing().matrix, np.eye(3))


def test_cross_channel_blur_mixes_channels(mix_matrix):
    op = r.BlurOperator(r.identity_mask(), BC.REFLECTIVE, (4, 4))
    red_only = np.zeros((3, 4, 4))
    red_only[0] = 1.0
    out = r.cross_channel_blur(red_only, mix_matrix, op)
    assert np.allclose(out[0], 0.7, atol=1e-15)
    assert np.allclose(out[1], 0.25, atol=1e-15)
    assert np.allclose(out[2], 0.15, atol=1e-15)


def test_cross_channel_blur_matches_kronecker(gauss11, mix_matrix):
    x = _color_image((5, 5))
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss11, bc, (5, 5))
        dense = np.kron(mix_matrix.matrix, r.assemble_dense(op))
        ours = r.cross_channel_blur(x, mix_matrix, op).ravel()
        assert np.abs(dense @ x.ravel() - ours).max() <= 1e-12


def test_color_truncated_sd_inverts_model_data(gauss11, mix_matrix):
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss11, bc, (6, 6))
        f = _color_image((6, 6))
        g = r.cross_channel_blur(f, mix_matrix, op)
        res = r.color_truncated_sd(g, mix_matrix, op, r.TruncateByCount(36))
        assert r.rre(res.image, f) <= 1e-10
        assert res.count_kept == 36


def test_color_matches_per_channel_under_identity_mixing(gauss11):
    ident = r.identity_mixing()
    count = r.TruncateByCount(12)
    cases = (
        ("tsd", count, r.color_truncated_sd, r.truncated_sd_restore),
        ("tsvd", count, r.color_truncated_svd, r.truncated_svd_restore),
        ("tikhonov", r.Tikhonov(1e-3), r.color_tikhonov, r.tikhonov_restore),
    )
    gray_sweeps = {"tsd": r.rre_sweep, "tsvd": r.svd_rre_sweep, "tikhonov": r.mu_sweep}
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss11, bc, (6, 5))
        f = _color_image((6, 5))
        g = r.cross_channel_blur(f, ident, op)
        for method, spec, color_fn, gray_fn in cases:
            color = color_fn(g, ident, op, spec)
            for c in range(3):
                gray = gray_fn(g[c], op, spec)
                assert np.abs(color.image[c] - gray.image).max() <= 1e-13
            # the color error norm collects the per-channel error norms
            curve = sweep(g, op, method, f, ident)
            parts = [gray_sweeps[method](g[c], op, f[c]) for c in range(3)]
            combined = np.sqrt(
                sum((p.rres * np.linalg.norm(f[c])) ** 2 for c, p in enumerate(parts))
            ) / np.linalg.norm(f)
            assert np.array_equal(curve.params, parts[0].params)
            assert np.abs(curve.rres - combined).max() <= 1e-12


@pytest.mark.parametrize("bc", list(BC))
def test_gray_cross_channel_blur_is_apply_blur(gauss11, bc):
    op = r.BlurOperator(gauss11, bc, (7, 6))
    g = rough_image((7, 6))
    out = r.cross_channel_blur(g, None, op)
    assert out.shape == g.shape
    assert out.tobytes() == r.apply_blur(op, g).tobytes()


@pytest.mark.parametrize("bc", [BC.REFLECTIVE, BC.ANTIREFLECTIVE])
def test_identity_mixing_restores_exactly_per_channel(gauss11, bc):
    # the identity mix is skipped, so each channel runs the gray arithmetic
    ident = r.identity_mixing()
    op = r.BlurOperator(gauss11, bc, (6, 5))
    f = _color_image((6, 5))
    g, _ = r.add_noise(r.cross_channel_blur(f, ident, op), r.NoiseSpec(0.01, 3))
    for method, spec in (("tsd", r.TruncateByCount(12)), ("tsd", r.TruncateByThreshold(0.2)),
                         ("tsvd", r.TruncateByCount(12)), ("tikhonov", r.Tikhonov(1e-3))):
        color = restore(g, op, method, spec, ident)
        for c in range(3):
            gray = restore(g[c], op, method, spec)
            assert gray.image.shape == (6, 5)
            assert np.array_equal(color.image[c], gray.image), (method, spec, c)


def test_gray_data_makes_no_channel_mix(gauss11, mix_matrix, monkeypatch):
    # gray data is mixed by [1], which the identity rule skips
    calls = []
    real = np.tensordot

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counted)
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss11, bc, (6, 5))
        f = rough_image((6, 5))
        g = r.cross_channel_blur(f, None, op)
        for method, spec in (("tsd", r.TruncateByCount(12)), ("tsvd", r.TruncateByCount(12)),
                             ("tikhonov", r.Tikhonov(1e-3))):
            restore(g, op, method, spec)
            sweep(g, op, method, f)
    assert calls == []
    # the counter sees a color restore's unmixing
    g = r.cross_channel_blur(_color_image((6, 5)), mix_matrix, op)
    calls.clear()
    restore(g, op, "tsd", r.TruncateByCount(12), mix_matrix)
    assert calls == [1]


def test_color_mu_sweep_matches_pointwise_restorations(gauss11, mix_matrix):
    grid = np.logspace(-6, 0, 7)
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss11, bc, (7, 6))
        f = _color_image((7, 6))
        g = r.cross_channel_blur(f, mix_matrix, op)
        g, _ = r.add_noise(g, r.NoiseSpec(0.01, 2))
        curve = sweep(g, op, "tikhonov", f, mix_matrix, mu_grid=grid)
        assert np.array_equal(curve.params, grid)
        for mu, err in zip(grid, curve.rres):
            res = r.color_tikhonov(g, mix_matrix, op, mu)
            assert abs(err - r.rre(res.image, f)) <= 1e-12


def test_color_truncation_keeps_whole_indices(gauss11, mix_matrix):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (5, 5))
    g = _color_image((5, 5))
    res = r.color_truncated_sd(g, mix_matrix, op, r.TruncateByCount(7))
    # seven spectral indices kept, each carrying all three channels
    assert res.count_kept == 7
    order = r.sort_spectrum(r.eigen_grid_for(op))
    dropped = np.zeros(25, dtype=bool)
    dropped[order[7:]] = True
    fhat = r.spectral_analysis(res.image, op.bc).reshape(3, -1)
    assert np.abs(fhat[:, dropped]).max() <= 1e-12


def test_singular_mixing_rejected(gauss11):
    weights = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
    mixing = r.ColorMixing(weights)
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (5, 5))
    g = _color_image((5, 5))
    with pytest.raises(r.SingularMixingError):
        r.color_truncated_sd(g, mixing, op, r.TruncateByCount(5))


def test_color_tikhonov_matches_dense_kronecker_system(gauss11, mix_matrix):
    mu = 1e-3
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss11, bc, (6, 6))
        f = _color_image((6, 6))
        g = r.cross_channel_blur(f, mix_matrix, op)
        a = r.assemble_dense(op)
        m = mix_matrix.matrix
        lhs = np.kron(m.T @ m, a @ a) + mu * np.eye(108)
        rhs = np.kron(m.T, a) @ g.ravel()
        ref = np.linalg.solve(lhs, rhs)
        res = r.color_tikhonov(g, mix_matrix, op, mu)
        assert np.abs(res.image.ravel() - ref).max() <= 1e-10
        assert res.method == "tikhonov"


def test_color_truncated_svd_inverts_model_data(mix_matrix):
    mask = r.gaussian_mask((1, 1), (0.9, 1.2))
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(mask, bc, (6, 6))
        f = _color_image((6, 6))
        g = r.cross_channel_blur(f, mix_matrix, op)
        res = r.color_truncated_svd(g, mix_matrix, op, r.TruncateByCount(36))
        assert r.rre(res.image, f) <= 1e-9


def test_color_shape_validation(gauss11, mix_matrix):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (5, 5))
    with pytest.raises(r.SizeMismatchError):
        r.color_truncated_sd(np.zeros((5, 5)), mix_matrix, op, r.TruncateByCount(3))
    with pytest.raises(r.SizeMismatchError):
        r.cross_channel_blur(np.zeros((4, 5, 5)), mix_matrix, op)


def test_color_data_must_be_finite(gauss11, mix_matrix):
    op = r.BlurOperator(gauss11, BC.ANTIREFLECTIVE, (5, 5))
    g = _color_image((5, 5))
    g[1, 2, 3] = np.inf
    with pytest.raises(r.InvalidParameterError):
        r.color_tikhonov(g, mix_matrix, op, 1e-3)
    with pytest.raises(r.InvalidParameterError):
        r.cross_channel_blur(g, mix_matrix, op)
