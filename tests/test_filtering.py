import numpy as np
import pytest

import refocus as r
from refocus import filtering, transforms
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


@pytest.mark.parametrize("method", ["tsd", "tsvd"])
@pytest.mark.parametrize("color", [False, True], ids=["gray", "color"])
def test_threshold_and_count_at_the_census_agree_on_zero_values(method, color, mix_matrix):
    # cos(x1) has six eigenvalues of 6.1e-17 on a reflective 6x6 grid (six
    # singular values of 9.3e-18); a threshold below ZERO_SPECTRUM_TOL
    # reaches them, and so does a count
    mask = r.PsfMask(np.array([[0.5], [0.0], [0.5]]))
    op = r.BlurOperator(mask, BC.REFLECTIVE, (6, 6))
    mixing = mix_matrix if color else None
    f = rough_image((6, 6))
    g = np.stack([f, f[::-1], f.T]) if color else f
    lam = filtering._plan(op, method).lam
    for delta in (1e-18, 1e-15, 0.3):
        census = int(np.count_nonzero(np.abs(lam) >= delta))
        by_count = filtering.restore(g, op, method, r.TruncateByCount(census), mixing)
        by_threshold = filtering.restore(g, op, method, r.TruncateByThreshold(delta), mixing)
        assert by_threshold.image.tobytes() == by_count.image.tobytes()
        assert by_threshold.count_kept == by_count.count_kept
        assert by_threshold.skipped_zero == by_count.skipped_zero
    tiny = filtering.restore(g, op, method, r.TruncateByThreshold(1e-18), mixing)
    assert (tiny.count_kept, tiny.skipped_zero) == (30, 6)
    assert np.abs(tiny.image).max() < 10


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
    # zero values, ties and both signs; rank < k alone would keep the zeros.
    # The rounded grid is tie-heavy: most kept sets end inside a run of ties.
    # A threshold keeps the first indices of its census (the count of
    # magnitudes >= delta), on both sides of ZERO_SPECTRUM_TOL.
    mask = r.PsfMask(np.array([[0.5], [0.0], [0.5]]))
    grids = [r.eigen_grid_for(r.BlurOperator(mask, BC.REFLECTIVE, (6, 6))).values,
             np.array([[0.5, -0.5, 0.0], [1e-15, 0.25, -0.5]]),
             np.round(r.standard_normal_field(3, (9, 11)), 1)]
    for lam in grids:
        specs = [(r.TruncateByCount(k), k) for k in range(lam.size + 1)]
        for delta in (1e-18, 0.25):
            census = int(np.count_nonzero(np.abs(lam) >= delta))
            specs.append((r.TruncateByThreshold(delta), census))
        for spec, k in specs:
            plan = _plan_of(lam)
            keep, kept, skipped = filtering._keep_mask(plan, spec)
            ref_keep, ref_skipped = _keep_mask_by_sort(lam, k)
            assert np.array_equal(keep, ref_keep) and skipped == ref_skipped
            assert kept == keep.sum()
            assert type(kept) is int and type(skipped) is int
            assert "order" not in vars(plan)  # selected, never sorted


def _tsvd_outputs(op, g, f, mixing):
    """Restores by count and by threshold, and the sweep curve, of tsvd."""
    outs = [filtering.restore(g, op, "tsvd", spec, mixing).image
            for spec in (r.TruncateByCount(60), r.TruncateByThreshold(0.05))]
    curve = filtering.sweep(g, op, "tsvd", f, mixing)
    return [a.tobytes() for a in outs + [curve.params, curve.rres]]


def test_svd_signs_change_no_output(gauss22, mix_matrix, monkeypatch):
    # a singular pair enters every output only through products holding
    # both u_k and v_k, and negating a float is exact, so flipping the
    # signs LAPACK chose moves no bit. The anti-reflective plan is the one
    # that calls LAPACK (the reflective one keeps the cosine signs in its
    # spectrum, see test_reflective_tsvd_is_the_dense_svd); on the square
    # field its two axes share one decomposition, so a flip lands on both
    # at once
    real_svd = np.linalg.svd
    rng = np.random.default_rng(3)
    cases = []
    for shape in ((13, 11), (12, 12)):
        op = r.BlurOperator(gauss22, BC.ANTIREFLECTIVE, shape)
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


def _count_factor_svds(monkeypatch):
    """Wrap np.linalg.svd; the returned list tallies the factor decompositions."""
    real_svd, calls = np.linalg.svd, []

    def counted_svd(matrix, *args, **kwargs):
        if np.shape(matrix)[0] > 3:  # not a mixing matrix
            calls.append(np.shape(matrix))
        return real_svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def test_tsvd_plans_decompose_each_distinct_factor_once(monkeypatch):
    calls = _count_factor_svds(monkeypatch)
    equal = r.gaussian_mask((3, 3), 1.5)  # bitwise equal factors
    unequal = r.gaussian_mask((5, 5), 1.2)  # factors differ in the last bit
    a, b = r.separable_factors(unequal)
    assert np.array_equal(*r.separable_factors(equal)) and not np.array_equal(a, b)
    for mask, shape, want in ((equal, (256, 256), 1), (unequal, (40, 40), 2),
                              (equal, (40, 36), 2)):
        filtering._Plan(r.BlurOperator(mask, BC.ANTIREFLECTIVE, shape), "svd")
        assert len(calls) == want, (mask.half_support, shape)
        calls.clear()
    for shape in ((256, 256), (40, 36)):
        plan = filtering._Plan(r.BlurOperator(unequal, BC.REFLECTIVE, shape), "svd")
        assert not calls and plan.borders is None


def test_cosine_factor_keeps_ties_in_frequency_order(monkeypatch):
    # a spectrum with many exact |lam| ties and a zero: the permutation is
    # descending |lam| with ties in frequency order, and the values keep
    # their signs
    lam = np.resize([0.5, -1.0, 0.0, 1.0, -0.5, 0.25], 40)
    monkeypatch.setattr(filtering, "generating_function_1d", lambda w, x: lam[: x.size])
    p, values = filtering._factor_spectrum(np.ones(1), np.arange(40) * np.pi / 40)
    s = np.abs(values)
    assert sorted(p) == list(range(40)) and np.all(np.diff(s) <= 0)
    ties = s[1:] == s[:-1]
    assert ties.sum() > 20 and np.all(p[1:][ties] > p[:-1][ties])
    assert np.array_equal(values, lam[p])


def test_reflective_tsvd_is_the_dense_svd(gauss22):
    # the cosine plan orders its singular values as LAPACK does, ties by
    # the per-axis order: with equal factors each product s_i s_j equals
    # s_j s_i bitwise, and a count whose cut splits such a pair keeps
    # (i, j), i < j, the pair the stable sort of the dense products keeps
    shape = (24, 24)
    op, _f, g = _model_pair(gauss22, BC.REFLECTIVE, shape)
    (u1, s1, v1t), (u2, s2, v2t) = (np.linalg.svd(r.assemble_dense_1d(w, n, op.bc))
                                    for w, n in zip(r.separable_factors(gauss22), shape))
    lam = np.multiply.outer(s1, s2)
    coef = u1.T @ g @ u2
    plan = filtering._Plan(op, "svd")
    assert np.abs(plan.lam - lam).max() <= 1e-14 * lam.max()
    order = np.argsort(-lam.ravel(), kind="stable")
    ranked = lam.ravel()[order]
    splits = [k for k in range(2, lam.size - 1)
              if ranked[k - 1] == ranked[k]
              and min(ranked[k - 2] - ranked[k - 1], ranked[k] - ranked[k + 1]) > 1e-10]
    assert len(splits) > 20
    for k in splits:
        i, j = np.unravel_index(order[k - 1], shape)
        assert i < j and order[k] == np.ravel_multi_index((j, i), shape)
        keep = np.zeros(lam.size, dtype=bool)
        keep[order[:k]] = True
        keep = keep.reshape(shape)
        assert np.array_equal(filtering._keep_mask(plan, r.TruncateByCount(k))[0], keep)
        res = r.truncated_svd_restore(g, op, r.TruncateByCount(k))
        ref = v1t.T @ np.where(keep, coef / lam, 0.0) @ v2t
        cond = lam.max() / lam[keep].min()
        assert np.linalg.norm(res.image - ref) <= 1e-12 * cond * np.linalg.norm(ref)


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


def test_outputs_do_not_depend_on_the_blas_thread_count(gauss22, mix_matrix):
    # OpenBLAS gives other last bits on two threads than on one for an SVD
    # at n = 516 and the symbol grid at 520 x 516; each runs pinned to one
    # thread. The reflective tsvd restore at 520 x 516 covers the 1-D
    # symbol product, which runs unpinned. OpenBLAS takes more threads
    # than there are cores, so four threads run on any host.
    threads = transforms._blas_threads()
    if threads is None:
        pytest.skip("numpy has no scipy-openblas thread functions here")
    get, set_ = threads
    outer = get()
    f = rough_image((516, 30))
    op = r.BlurOperator(gauss22, BC.ANTIREFLECTIVE, f.shape)
    g = r.cross_channel_blur(np.stack([f, f[::-1], 0.5 * f]), mix_matrix, op)
    large = r.BlurOperator(gauss22, BC.REFLECTIVE, (520, 516))
    big = r.apply_blur(large, rough_image(large.shape))

    def outputs():
        noisy, _snr = r.add_noise(g, r.NoiseSpec(0.01, 3))
        curve = filtering.sweep(noisy[0], op, "tsvd", f, max_terms=50)
        outs = [noisy, r.eigen_grid_for(large).values, curve.rres,
                filtering.restore(noisy, op, "tsvd", r.TruncateByCount(500), mix_matrix).image,
                filtering.sweep(noisy[0], op, "tikhonov", f, mu_grid=[1e-3, 1e-1]).rres,
                filtering.restore(big, large, "tsvd", r.TruncateByThreshold(0.05)).image]
        return [a.tobytes() for a in outs]

    try:
        runs = []
        for count in (1, 2, 4):
            set_(count)
            runs.append(outputs())
            assert get() == count
    finally:
        set_(outer)
    assert runs[0] == runs[1] == runs[2]


def test_bytes_without_a_blas_pin_do_not_depend_on_the_blas_thread_count(
    gauss22, mix_matrix, monkeypatch
):
    # norms and dots make no BLAS call, and noise, rre, tsd sweeps and
    # reflective Tikhonov sweeps run no matrix product once their plans are
    # built: with every pin a no-op, their bytes are the same on one
    # OpenBLAS thread and on two
    threads = transforms._blas_threads()
    if threads is None:
        pytest.skip("numpy has no scipy-openblas thread functions here")
    get, set_ = threads
    outer = get()
    f = rough_image((520, 516))
    color = np.stack([f, f[::-1], 0.5 * f])
    data, sweeps = [], []
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        op = r.BlurOperator(gauss22, bc, f.shape)
        plan = filtering._Plan(op, "eigen")
        methods = ("tsd", "tikhonov") if bc is BC.REFLECTIVE else ("tsd",)
        for g, ref, mix in ((r.apply_blur(op, f), f, None),
                            (r.cross_channel_blur(color, mix_matrix, op), color, mix_matrix)):
            data.append(g)
            sweeps += [(g, plan, method, ref, mix) for method in methods]
    monkeypatch.setattr(transforms, "_blas_threads", lambda: None)

    def outputs():
        outs = []
        for g in data:
            noisy, _snr = r.add_noise(g, r.NoiseSpec(0.01, 3))
            outs += [noisy, np.float64(r.rre(noisy, g))]
        for g, plan, method, ref, mix in sweeps:
            outs.append(filtering._sweep(g, plan, method, ref, mix, None, [1e-4, 1e-2, 1.0])[0].rres)
        return [a.tobytes() for a in outs]

    try:
        runs = []
        for count in (1, 2):
            set_(count)
            runs.append(outputs())
            assert get() == count
    finally:
        set_(outer)
    assert runs[0] == runs[1]


def test_dot_bytes_do_not_depend_on_alignment_or_strides():
    # a contiguous view at any element offset sums as a fresh copy does;
    # a strided view is copied first, since read in place it sums in
    # another order
    x = r.standard_normal_field(4, 100_003)
    y = r.standard_normal_field(5, x.size)
    want = filtering._dot(x.copy(), y.copy()).tobytes()
    buffers = np.empty((2, x.size + 8))
    for offset in range(1, 8):
        a, b = buffers[0, offset : offset + x.size], buffers[1, 8 - offset : 8 - offset + x.size]
        a[...], b[...] = x, y
        assert filtering._dot(a, b).tobytes() == want, offset
    strided = np.empty((2, 3 * x.size))
    strided[0, : 2 * x.size : 2], strided[1, ::3] = x, y
    assert filtering._dot(strided[0, : 2 * x.size : 2], strided[1, ::3]).tobytes() == want
