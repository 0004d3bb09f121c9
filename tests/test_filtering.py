import numpy as np
import pytest

import refocus as r
from refocus import filtering
from refocus.operators import BoundaryCondition as BC

from conftest import rough_image, smooth_image


def _model_pair(mask, bc, shape, seed=9):
    op = r.BlurOperator(mask, bc, shape)
    f = rough_image(shape, seed=seed)
    return op, f, r.apply_blur(op, f)


def test_spec_validation():
    with pytest.raises(r.InvalidParameterError):
        r.TruncateByCount(-1)
    with pytest.raises(r.InvalidParameterError):
        r.TruncateByThreshold(0.0)
    with pytest.raises(r.InvalidParameterError):
        r.Tikhonov(0.0)
    with pytest.raises(r.InvalidParameterError):
        r.Tikhonov(np.inf)
    # not a finite real number: one check, one error type for every spec
    for bad in ("x", None, np.inf, np.nan):
        for spec in (r.TruncateByCount, r.TruncateByThreshold, r.Tikhonov, r.NoiseSpec):
            with pytest.raises(r.InvalidParameterError):
                spec(bad)


def test_full_count_inverts_model_consistent_data(gauss11):
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op, f, g = _model_pair(gauss11, bc, (9, 8))
        res = r.truncated_sd_restore(g, op, r.TruncateByCount(72))
        assert r.rre(res.image, f) <= 1e-10
        assert res.count_kept == 72
        assert res.method == "tsd"


def test_threshold_equals_count_bitwise(gauss11):
    op, _f, g = _model_pair(gauss11, BC.REFLECTIVE, (9, 8))
    mags = np.abs(r.eigen_grid_for(op).values).ravel()
    ranked = np.sort(mags)[::-1]
    k = 17
    delta = 0.5 * (ranked[k - 1] + ranked[k])
    by_count = r.truncated_sd_restore(g, op, r.TruncateByCount(k))
    by_threshold = r.truncated_sd_restore(g, op, r.TruncateByThreshold(delta))
    assert np.array_equal(by_count.image, by_threshold.image)
    assert by_count.count_kept == by_threshold.count_kept == k


def test_count_beyond_size_raises(gauss11):
    op, _f, g = _model_pair(gauss11, BC.REFLECTIVE, (5, 5))
    with pytest.raises(r.InvalidParameterError):
        r.truncated_sd_restore(g, op, r.TruncateByCount(26))


def test_zero_eigenvalues_skipped_and_reported():
    # symbol cos(x1) vanishes at the s = n/2 node of an even grid
    mask = r.PsfMask(np.array([[0.5], [0.0], [0.5]]))
    op = r.BlurOperator(mask, BC.REFLECTIVE, (6, 6))
    lam = r.eigen_grid_for(op).values
    assert np.count_nonzero(np.abs(lam) < r.ZERO_SPECTRUM_TOL) == 6
    g = r.apply_blur(op, rough_image((6, 6)))
    res = r.truncated_sd_restore(g, op, r.TruncateByCount(36))
    assert res.skipped_zero == 6
    assert res.count_kept == 30
    assert np.isfinite(res.image).all()


def _keep_mask_by_sort(lam, k):
    """Reference: the first k indices in spectral order, minus zero values."""
    chosen = r.sort_spectrum(lam)[:k]
    nonzero = np.abs(lam).ravel()[chosen] >= r.ZERO_SPECTRUM_TOL
    keep = np.zeros(lam.size, dtype=bool)
    keep[chosen[nonzero]] = True
    return keep.reshape(lam.shape), int(k - nonzero.sum())


def _plan_of(lam):
    """A plan holding only a spectrum, all that the keep mask reads."""
    plan = object.__new__(filtering._Plan)
    plan.lam = lam
    return plan


def test_count_mask_matches_sort_reference():
    # zero values, ties and both signs; rank < k alone would keep the zeros
    mask = r.PsfMask(np.array([[0.5], [0.0], [0.5]]))
    grids = [r.eigen_grid_for(r.BlurOperator(mask, BC.REFLECTIVE, (6, 6))).values,
             np.array([[0.5, -0.5, 0.0], [1e-15, 0.25, -0.5]])]
    for lam in grids:
        for k in range(lam.size + 1):
            keep, skipped = filtering._keep_mask(_plan_of(lam), r.TruncateByCount(k))
            ref_keep, ref_skipped = _keep_mask_by_sort(lam, k)
            assert np.array_equal(keep, ref_keep) and skipped == ref_skipped
            assert type(skipped) is int


def _tsvd_outputs(op, g, f, mixing):
    """Restores by count and by threshold, and the sweep curve, of tsvd."""
    outs = [filtering.restore(g, op, "tsvd", spec, mixing).image
            for spec in (r.TruncateByCount(60), r.TruncateByThreshold(0.05))]
    curve = filtering.sweep(g, op, "tsvd", f, mixing)
    return [a.tobytes() for a in outs + [curve.params, curve.rres]]


def test_svd_signs_change_no_output(gauss22, mix_matrix, monkeypatch):
    # a singular pair enters every output only through products holding
    # both u_k and v_k, and negating a float is exact, so flipping the
    # signs LAPACK chose moves no bit
    real_svd = np.linalg.svd
    rng = np.random.default_rng(3)
    cases = []
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss22, bc, (13, 11))
        for mixing in (None, mix_matrix):
            f = rng.random(((3,) if mixing else ()) + op.shape)
            g = rng.random(f.shape)
            cases.append((op, g, f, mixing, _tsvd_outputs(op, g, f, mixing)))
    for flip in (lambda k: k % 2 == 0, lambda k: True):
        def flipped_svd(matrix):
            u, s, vt = real_svd(matrix)
            sign = np.array([-1.0 if flip(k) else 1.0 for k in range(s.size)])
            return u * sign, s, vt * sign[:, None]

        monkeypatch.setattr(np.linalg, "svd", flipped_svd)
        for op, g, f, mixing, want in cases:
            assert _tsvd_outputs(op, g, f, mixing) == want
        monkeypatch.undo()


def test_tikhonov_matches_dense_regularized_solve(gauss11, cross_mask):
    for mask in (gauss11, cross_mask):
        for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
            op, _f, g = _model_pair(mask, bc, (6, 7))
            dense = r.assemble_dense(op)
            for mu in (1e-4, 1e-1):
                res = r.tikhonov_restore(g, op, mu)
                ref = np.linalg.solve(
                    dense @ dense + mu * np.eye(42), dense @ g.ravel()
                )
                assert np.abs(res.image.ravel() - ref).max() <= 1e-11


def test_antireflective_tikhonov_is_weighted_normal_solve(gauss11):
    # the damped inversion in the operator basis solves the normal
    # equations weighted by the analysis map
    op, _f, g = _model_pair(gauss11, BC.ANTIREFLECTIVE, (6, 6))
    from refocus.transforms import TransformKind

    t1 = r.dense_transform(TransformKind.AR_INVERSE, 6)
    w = np.kron(t1, t1)
    a = r.assemble_dense(op)
    mu = 1e-3
    lhs = a.T @ w.T @ w @ a + mu * (w.T @ w)
    rhs = a.T @ w.T @ w @ g.ravel()
    ref = np.linalg.solve(lhs, rhs)
    res = r.tikhonov_restore(g, op, mu)
    assert np.abs(res.image.ravel() - ref).max() <= 1e-9


def test_tikhonov_accepts_spec_object(gauss11):
    op, _f, g = _model_pair(gauss11, BC.REFLECTIVE, (5, 5))
    a = r.tikhonov_restore(g, op, 1e-2)
    b = r.tikhonov_restore(g, op, r.Tikhonov(1e-2))
    assert np.array_equal(a.image, b.image)
    assert b.parameter == 1e-2
    assert b.count_kept == 25


def test_truncated_svd_full_rank_matches_least_squares():
    mask = r.gaussian_mask((1, 1), (0.9, 1.3))
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op, f, g = _model_pair(mask, bc, (5, 6))
        res = r.truncated_svd_restore(g, op, r.TruncateByCount(30))
        assert r.rre(res.image, f) <= 1e-9
        assert res.method == "tsvd"


def test_truncated_svd_requires_separable(cross_mask):
    op = r.BlurOperator(cross_mask, BC.REFLECTIVE, (6, 6))
    g = r.apply_blur(op, smooth_image((6, 6)))
    with pytest.raises(r.NotSeparableError):
        r.truncated_svd_restore(g, op, r.TruncateByCount(5))


def _tie_free_prefixes(products, rel=1e-12):
    ranked = np.sort(products)[::-1]
    scale = ranked[0]
    ks = [
        k
        for k in range(1, ranked.size)
        if ranked[k - 1] - ranked[k] > rel * scale
    ]
    ks.append(ranked.size)
    return ks


def test_truncated_svd_prefixes_match_dense_oracle():
    mask = r.gaussian_mask((1, 2), (0.8, 1.7))
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op, _f, g = _model_pair(mask, bc, (6, 6))
        dense = r.assemble_dense(op)
        u, s, vt = np.linalg.svd(dense)
        col, row = r.separable_factors(mask)
        s1 = np.linalg.svd(r.assemble_dense_1d(col, 6, bc), compute_uv=False)
        s2 = np.linalg.svd(r.assemble_dense_1d(row, 6, bc), compute_uv=False)
        products = np.sort(np.multiply.outer(s1, s2).ravel())[::-1]
        assert np.abs(products - s).max() <= 1e-12
        coef = u.T @ g.ravel()
        for k in _tie_free_prefixes(products):
            ref = vt[:k].T @ (coef[:k] / s[:k])
            res = r.truncated_svd_restore(g, op, r.TruncateByCount(k))
            assert np.abs(res.image.ravel() - ref).max() <= 1e-9


def test_rre_sweep_monotone_and_exact_reflective(gauss11):
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (8, 7))
    curve = r.rre_sweep(g, op, f)
    assert curve.params[0] == 1 and curve.params[-1] == 56
    assert np.all(np.diff(curve.rres) <= 1e-12)
    assert curve.rres[-1] <= 1e-8
    assert curve.method == "tsd"


def test_rre_sweep_final_error_antireflective(gauss11):
    op, f, g = _model_pair(gauss11, BC.ANTIREFLECTIVE, (8, 7))
    curve = r.rre_sweep(g, op, f)
    assert curve.rres[-1] <= 1e-8


def test_sweep_steps_match_direct_restorations(gauss11):
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op, f, g = _model_pair(gauss11, bc, (6, 6))
        curve = r.rre_sweep(g, op, f)
        for k in (1, 7, 36):
            res = r.truncated_sd_restore(g, op, r.TruncateByCount(k))
            assert curve.rres[k - 1] == pytest.approx(
                r.rre(res.image, f), abs=1e-13
            )


def test_svd_sweep_matches_direct_restorations():
    mask = r.gaussian_mask((1, 1), (0.9, 1.3))
    op, f, g = _model_pair(mask, BC.REFLECTIVE, (6, 5))
    curve = r.svd_rre_sweep(g, op, f)
    assert curve.method == "tsvd"
    for k in (1, 11, 30):
        res = r.truncated_svd_restore(g, op, r.TruncateByCount(k))
        assert curve.rres[k - 1] == pytest.approx(r.rre(res.image, f), abs=1e-13)


def test_max_terms_caps_sweep(gauss11):
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (6, 6))
    curve = r.rre_sweep(g, op, f, max_terms=10)
    assert curve.params.size == 10


def test_mu_sweep_matches_pointwise_restorations(gauss11):
    op, f, g = _model_pair(gauss11, BC.ANTIREFLECTIVE, (7, 7))
    noisy, _ = r.add_noise(g, r.NoiseSpec(0.01, 3))
    grid = np.logspace(-6, 0, 10)
    curve = r.mu_sweep(noisy, op, f, grid)
    assert np.array_equal(curve.params, grid)
    for i, mu in enumerate(grid):
        res = r.tikhonov_restore(noisy, op, mu)
        assert curve.rres[i] == pytest.approx(r.rre(res.image, f), abs=1e-14)
    assert curve.best_param == grid[curve.best_index]


def test_mu_sweep_default_grid(gauss11):
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (5, 5))
    curve = r.mu_sweep(g, op, f)
    assert curve.params.size == 40
    assert curve.params[0] == pytest.approx(1e-8)
    assert curve.params[-1] == pytest.approx(1.0)


def test_mu_grid_validation(gauss11):
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (5, 5))
    with pytest.raises(r.InvalidParameterError):
        r.mu_sweep(g, op, f, np.array([1e-3, 1e-4]))
    with pytest.raises(r.InvalidParameterError):
        r.mu_sweep(g, op, f, np.array([0.0, 1e-4]))


def test_mu_grid_rejects_non_finite_weights(gauss11):
    # noise 100 times the data makes the zero image (mu = inf) the best fit
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (6, 6))
    noisy = g + 100.0 * r.standard_normal_field(4, g.shape)
    for bad in ([1e-3, np.inf], [1e-3, np.nan], [np.inf]):
        with pytest.raises(r.InvalidParameterError):
            r.mu_sweep(noisy, op, f, mu_grid=bad)


def test_save_curve_csv_round_trip(tmp_path, gauss11):
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (5, 5))
    curve = r.rre_sweep(g, op, f, max_terms=4)
    path = tmp_path / "curve.csv"
    r.save_curve_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,rre"
    assert len(lines) == 5
    p, e = lines[2].split(",")
    assert float(p) == curve.params[1]
    assert float(e) == curve.rres[1]


def test_data_shape_checked(gauss11):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (5, 5))
    with pytest.raises(r.SizeMismatchError):
        r.truncated_sd_restore(np.ones((4, 5)), op, r.TruncateByCount(3))


def test_non_finite_data_rejected_at_entry(gauss11):
    # one NaN pixel used to spread through the analysis transform into
    # most of an anti-reflective Tikhonov restoration
    op, f, g = _model_pair(gauss11, BC.ANTIREFLECTIVE, (16, 16))
    bad = g.copy()
    bad[7, 9] = np.nan
    with pytest.raises(r.InvalidParameterError):
        r.tikhonov_restore(bad, op, 1e-3)
    bad[7, 9] = -np.inf
    with pytest.raises(r.InvalidParameterError):
        r.truncated_sd_restore(bad, op, r.TruncateByCount(10))
    with pytest.raises(r.InvalidParameterError):
        r.mu_sweep(bad, op, f)


def test_non_finite_sweep_reference_rejected(gauss11):
    op, f, g = _model_pair(gauss11, BC.REFLECTIVE, (6, 6))
    bad = f.copy()
    bad[0, 0] = np.nan
    with pytest.raises(r.InvalidParameterError):
        r.rre_sweep(g, op, bad)
    with pytest.raises(r.InvalidParameterError):
        r.mu_sweep(g, op, bad)
    with pytest.raises(r.SizeMismatchError):
        r.mu_sweep(g, op, f[:5])
