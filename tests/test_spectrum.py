import numpy as np
import pytest

import refocus as r
from refocus import spectrum
from refocus.operators import _SYMMETRIC_RULES
from refocus.operators import BoundaryCondition as BC
from refocus.transforms import TransformKind

from conftest import rough_image


def _dense_eigen_product(op):
    grid = r.eigen_grid_for(op)
    if op.bc is BC.REFLECTIVE:
        basis1 = r.dense_transform(TransformKind.DCT3, op.shape[0])
        basis2 = r.dense_transform(TransformKind.DCT3, op.shape[1])
        inv1, inv2 = basis1.T, basis2.T
    else:
        basis1 = r.dense_transform(TransformKind.AR, op.shape[0])
        basis2 = r.dense_transform(TransformKind.AR, op.shape[1])
        inv1 = r.dense_transform(TransformKind.AR_INVERSE, op.shape[0])
        inv2 = r.dense_transform(TransformKind.AR_INVERSE, op.shape[1])
    lam = np.diag(grid.values.ravel())
    synth = np.kron(basis1, basis2)
    anal = np.kron(inv1, inv2)
    return synth @ lam @ anal


def test_diagonalization_reflective(gauss22, cross_mask):
    for mask in (gauss22, cross_mask):
        for shape in ((8, 8), (7, 5)):
            op = r.BlurOperator(mask, BC.REFLECTIVE, shape)
            dense = r.assemble_dense(op)
            assert np.abs(_dense_eigen_product(op) - dense).max() <= 1e-13


def test_diagonalization_antireflective(gauss11, cross_mask):
    for mask in (gauss11, cross_mask):
        for shape in ((8, 8), (7, 5)):
            op = r.BlurOperator(mask, BC.ANTIREFLECTIVE, shape)
            dense = r.assemble_dense(op)
            assert np.abs(_dense_eigen_product(op) - dense).max() <= 1e-13


def test_tau_eigenvalues_m3():
    lam = r.tau_eigenvalues(np.array([0.25, 0.5, 0.25]), 3)
    root = np.sqrt(2.0) / 4.0
    assert np.allclose(lam, [0.5 + root, 0.5, 0.5 - root], atol=1e-15)


def test_reflective_grid_values(gauss22):
    op = r.BlurOperator(gauss22, BC.REFLECTIVE, (6, 7))
    grid = r.eigen_grid_for(op)
    assert grid.algebra == "dct3"
    assert grid.values.shape == (6, 7)
    # unit mask sum puts the constant mode eigenvalue at exactly f(0,0)
    assert grid.values[0, 0] == pytest.approx(1.0, rel=1e-14)
    s1 = np.arange(6) * np.pi / 6
    s2 = np.arange(7) * np.pi / 7
    ref = r.generating_function(gauss22, s1, s2)
    assert np.abs(grid.values - ref).max() <= 1e-14


def test_antireflective_grid_census(gauss11):
    op = r.BlurOperator(gauss11, BC.ANTIREFLECTIVE, (5, 6))
    values = r.eigen_grid_for(op).values
    assert np.count_nonzero(values == 1.0) == 4
    row_mask, col_mask = r.condensed_masks(gauss11)
    top_tau = r.tau_eigenvalues(row_mask, 4)
    side_tau = r.tau_eigenvalues(col_mask, 3)
    assert np.allclose(np.sort(values[0, 1:-1]), np.sort(top_tau), atol=1e-14)
    assert np.allclose(values[0, 1:-1], values[-1, 1:-1], atol=1e-15)
    assert np.allclose(np.sort(values[1:-1, 0]), np.sort(side_tau), atol=1e-14)
    # interior block is the two-level tau grid
    tau1 = r.tau_eigenvalues(col_mask, 3)
    tau2 = r.tau_eigenvalues(row_mask, 4)
    assert np.allclose(values[1:-1, 1:-1], np.outer(tau1, tau2), atol=1e-14)


def test_tau_grid_is_outer_product_and_antireflective_interior():
    mask = r.gaussian_mask((2, 1), (1.3, 0.8))
    col, row = r.separable_factors(mask)
    n1, n2 = 7, 9
    grid = r.eigen_grid_tau(mask, (n1, n2))
    assert grid.algebra == "tau" and grid.shape == (n1, n2)
    outer = np.multiply.outer(r.tau_eigenvalues(col, n1), r.tau_eigenvalues(row, n2))
    assert np.abs(grid.values - outer).max() <= 1e-15
    ar = r.eigen_grid_ar(mask, (n1 + 2, n2 + 2))
    assert np.abs(grid.values - ar.values[1:-1, 1:-1]).max() <= 1e-15


def test_each_spectral_rule_has_one_basis():
    assert set(spectrum._BASES) == set(_SYMMETRIC_RULES)


def test_antireflective_support_condition(gauss22):
    with pytest.raises(r.SupportConditionError):
        r.eigen_grid_ar(gauss22, (4, 8))
    r.eigen_grid_ar(gauss22, (5, 8))
    # symmetry is checked by generating_function, after the support
    lopsided = r.PsfMask(np.array([[0.1, 0.2, 0.3, 0.2, 0.2]]))
    with pytest.raises(r.AsymmetricMaskError):
        r.eigen_grid_ar(lopsided, (5, 8))
    with pytest.raises(r.SupportConditionError):
        r.eigen_grid_ar(lopsided, (5, 4))


def test_eigen_from_first_column_matches_grid(gauss22, cross_mask):
    for mask in (gauss22, cross_mask):
        op = r.BlurOperator(mask, BC.REFLECTIVE, (9, 11))
        colgrid = r.eigen_from_first_column(op)
        grid = r.eigen_grid_for(op)
        assert np.abs(colgrid.values - grid.values).max() <= 1e-11


def test_node_rule_gives_the_factor_spectrum_of_each_orthonormal_basis():
    # a record names a node rule exactly when its basis has no Gram
    # borders, and at those nodes the 1-D symbol of a symmetric factor is
    # the spectrum of the dense factor matrix, which an svd plan reads
    assert all((b.nodes is None) == (b.gram is not None) for b in spectrum._BASES.values())
    factors = [[0.25, 0.5, 0.25], [0.2] * 5, *r.separable_factors(r.gaussian_mask((5, 5), 1.2))]
    checked = 0
    for bc, basis in spectrum._BASES.items():
        if basis.nodes is None:
            continue
        for w in factors:
            for n in (5, 16, 33):
                want = np.linalg.eigvalsh(r.assemble_dense_1d(w, n, bc))
                got = np.sort(r.generating_function_1d(w, basis.nodes(n)))
                assert np.abs(got - want).max() <= 1e-13, (bc, len(w), n)
                checked += 1
    assert checked == 12


def test_eigen_grid_for_rejects_averaging_rules(gauss11):
    op = r.BlurOperator(gauss11, BC.PERIODIC, (6, 6))
    with pytest.raises(r.UnsupportedAlgebraError):
        r.eigen_grid_for(op)


def test_spectral_analysis_synthesis_round_trip(gauss11):
    x = rough_image((7, 6))
    for bc in (BC.REFLECTIVE, BC.ANTIREFLECTIVE):
        back = r.spectral_synthesis(r.spectral_analysis(x, bc), bc)
        assert np.abs(back - x).max() <= 1e-12


def test_spectral_analysis_matches_dense():
    x = rough_image((5, 4))
    b1 = r.dense_transform(TransformKind.DCT3, 5)
    b2 = r.dense_transform(TransformKind.DCT3, 4)
    assert np.allclose(
        r.spectral_analysis(x, BC.REFLECTIVE), b1.T @ x @ b2, atol=1e-13
    )
    t1 = r.dense_transform(TransformKind.AR_INVERSE, 5)
    t2 = r.dense_transform(TransformKind.AR_INVERSE, 4)
    assert np.allclose(
        r.spectral_analysis(x, BC.ANTIREFLECTIVE), t1 @ x @ t2.T, atol=1e-13
    )


def test_sort_spectrum_order_and_ties():
    values = np.array([[0.5, -0.9], [0.9, 0.1]])
    grid = r.EigenGrid(values=values, algebra="dct3")
    order = r.sort_spectrum(grid)
    mags = np.abs(values).ravel()[order]
    assert np.all(np.diff(mags) <= 0)
    # tie between |-0.9| and |0.9| resolved by row-major position
    assert list(order[:2]) == [1, 2]


def test_save_eigen_csv(tmp_path, gauss11):
    op = r.BlurOperator(gauss11, BC.REFLECTIVE, (3, 3))
    grid = r.eigen_grid_for(op)
    path = tmp_path / "eig.csv"
    r.save_eigen_csv(grid, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 10
    assert float(lines[1]) == grid.values[0, 0]


# (mask, image shape) cases for the matrix-free diagonalization check:
# the identity at the smallest sides, prime sides, anti-reflective sine
# interiors of 511-515 (either side of the direct-transform limit of
# 512), 1024^2, and Gaussians that reach n - 3, the anti-reflective
# spectral support limit
_MATRIX_FREE_CASES = [
    (r.identity_mask(), (3, 3)),
    (r.identity_mask(), (5, 5)),
    (r.identity_mask(), (3, 5)),
    (r.gaussian_mask((2, 1), (1.0, 0.7)), (7, 11)),
    (r.out_of_focus_mask((3, 3), 2.5), (31, 37)),
    (r.gaussian_mask((2, 2), 1.0), (101, 13)),
    (r.gaussian_mask((2, 2), 1.0), (513, 517)),
    (r.out_of_focus_mask((2, 2), 1.5), (514, 516)),
    (r.gaussian_mask((1, 2), 0.8), (515, 515)),
    (r.out_of_focus_mask((3, 3), 3.0), (1024, 1024)),
    (r.gaussian_mask((4, 6), (2.0, 3.0)), (7, 9)),
    (r.gaussian_mask((8, 2), (3.0, 1.0)), (11, 5)),
    (r.gaussian_mask((510, 2), (200.0, 1.0)), (513, 7)),
]


@pytest.mark.parametrize("bc", [BC.REFLECTIVE, BC.ANTIREFLECTIVE])
@pytest.mark.parametrize("mask, shape", _MATRIX_FREE_CASES)
def test_blur_equals_synthesis_eigen_analysis_matrix_free(mask, shape, bc):
    op = r.BlurOperator(mask, bc, shape)
    lam = r.eigen_grid_for(op).values
    for stack in (shape, (3,) + shape):
        x = r.standard_normal_field(sum(shape), stack)
        blurred = r.apply_blur(op, x)
        fast = r.spectral_synthesis(lam * r.spectral_analysis(x, bc), bc)
        err = np.linalg.norm(fast - blurred) / np.linalg.norm(blurred)
        assert err <= 1e-12, (shape, bc, stack, err)
