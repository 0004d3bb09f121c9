import math
import warnings

import numpy as np
import pytest

import refocus as r


def test_gaussian_values_match_closed_form():
    mask = r.gaussian_mask((1, 1), 1.0)
    e = math.exp(-0.5)
    norm = (1.0 + 2.0 * e) ** 2
    assert mask.weights[1, 1] == pytest.approx(1.0 / norm, rel=1e-15)
    assert mask.weights[0, 1] == pytest.approx(e / norm, rel=1e-15)
    assert mask.weights[0, 0] == pytest.approx(e * e / norm, rel=1e-15)


def test_gaussian_is_bitwise_symmetric():
    w = r.gaussian_mask((2, 3), (0.7, 1.9)).weights
    assert np.array_equal(w, w[::-1, :])
    assert np.array_equal(w, w[:, ::-1])


def _mirror_quadrant_by_blocks(quad):
    """The block construction the masks were mirrored with before np.pad."""
    return np.block([[quad[:0:-1, :0:-1], quad[:0:-1, :]], [quad[:, :0:-1], quad]])


@pytest.mark.parametrize("q1", range(6))
@pytest.mark.parametrize("q2", range(6))
def test_masks_match_block_mirrored_quadrant(q1, q2):
    g1 = np.exp(-0.5 * (np.arange(q1 + 1) / 0.9) ** 2)
    g2 = np.exp(-0.5 * (np.arange(q2 + 1) / 1.7) ** 2)
    gauss = r.mask_from_weights(_mirror_quadrant_by_blocks(np.outer(g1, g2)))
    radius = 0.5 + 0.8 * max(q1, q2)
    disk = np.add.outer(np.arange(q1 + 1) ** 2, np.arange(q2 + 1) ** 2) <= radius**2
    disk = r.mask_from_weights(_mirror_quadrant_by_blocks(disk.astype(float)))
    for expected, mask in ((gauss, r.gaussian_mask((q1, q2), (0.9, 1.7))),
                           (disk, r.out_of_focus_mask((q1, q2), radius))):
        assert mask.weights.shape == (2 * q1 + 1, 2 * q2 + 1)
        assert mask.weights.tobytes() == expected.weights.tobytes()


def test_mask_sums_to_one():
    for mask in (
        r.gaussian_mask((3, 3), 2.0),
        r.out_of_focus_mask((2, 2), 1.5),
        r.identity_mask(),
    ):
        assert abs(mask.weights.sum() - 1.0) <= 1e-12


def test_mask_validation():
    with pytest.raises(r.InvalidParameterError):
        r.PsfMask(np.ones((2, 3)) / 6)  # even extent
    with pytest.raises(r.InvalidParameterError):
        r.PsfMask(np.array([[0.5, 0.6, -0.1]]))
    with pytest.raises(r.InvalidParameterError):
        r.PsfMask(np.array([[0.5, 0.5, np.nan]]))
    with pytest.raises(r.InvalidParameterError):
        r.PsfMask(np.array([[0.5, 0.4, 0.2]]))  # sum != 1
    with pytest.raises(r.InvalidParameterError):
        r.mask_from_weights(np.zeros((3, 3)))


def test_mask_weights_frozen():
    mask = r.identity_mask()
    with pytest.raises(ValueError):
        mask.weights[0, 0] = 2.0


def test_out_of_focus_unit_radius_is_cross():
    w = r.out_of_focus_mask((1, 1), 1.0).weights
    expected = np.array([[0.0, 0.2, 0.0], [0.2, 0.2, 0.2], [0.0, 0.2, 0.0]])
    assert np.array_equal(w, expected)


def test_symmetrize_projects_and_renormalizes():
    mask = r.symmetrize(r.PsfMask(np.array([[0.2, 0.5, 0.3]])))
    assert np.allclose(mask.weights, [[0.25, 0.5, 0.25]], atol=1e-15)
    assert r.is_strongly_symmetric(mask)


def test_symmetry_check_and_requirement():
    bad = r.PsfMask(np.array([[0.2, 0.5, 0.3]]))
    assert not r.is_strongly_symmetric(bad)
    with pytest.raises(r.AsymmetricMaskError):
        r.require_strong_symmetry(bad)


def test_generating_function_cross(cross_mask):
    f = r.generating_function
    assert f(cross_mask, np.pi, np.pi) == pytest.approx(0.0, abs=1e-15)
    assert f(cross_mask, np.pi, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert f(cross_mask, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    grid = f(cross_mask, np.linspace(0, np.pi, 4), np.linspace(0, np.pi, 7))
    assert grid.shape == (4, 7)


def test_generating_function_requires_symmetry():
    bad = r.PsfMask(np.array([[0.2, 0.5, 0.3]]))
    with pytest.raises(r.AsymmetricMaskError):
        r.generating_function(bad, 0.0, 0.0)


def test_generating_function_1d():
    w = np.array([0.25, 0.5, 0.25])
    x = np.linspace(0, np.pi, 9)
    assert np.allclose(
        r.generating_function_1d(w, x), 0.5 + 0.5 * np.cos(x), atol=1e-15
    )


def test_condensed_masks_cross(cross_mask):
    row_mask, col_mask = r.condensed_masks(cross_mask)
    assert np.allclose(row_mask, [0.125, 0.75, 0.125], atol=1e-15)
    assert np.allclose(col_mask, [0.125, 0.75, 0.125], atol=1e-15)


def test_separable_factors_gaussian():
    mask = r.gaussian_mask((1, 2), (0.8, 1.7))
    col, row = r.separable_factors(mask)
    assert np.allclose(np.outer(col, row), mask.weights, atol=1e-14)
    assert abs(col.sum() - 1.0) <= 1e-12
    assert abs(row.sum() - 1.0) <= 1e-12


def test_separable_factors_rejects_cross(cross_mask):
    with pytest.raises(r.NotSeparableError):
        r.separable_factors(cross_mask)


def test_mask_file_round_trip(tmp_path):
    mask = r.gaussian_mask((2, 1), (1.3, 0.9))
    path = tmp_path / "mask.txt"
    r.save_mask(mask, path)
    loaded, raw_sum = r.load_mask(path)
    # load re-normalizes, which may move each weight by one ulp
    assert np.allclose(loaded.weights, mask.weights, rtol=1e-15, atol=0.0)
    assert raw_sum == pytest.approx(1.0, abs=1e-12)


def test_load_mask_normalizes(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("1 1\n0 2 0\n2 8 2\n0 2 0\n")
    loaded, raw_sum = r.load_mask(path)
    assert raw_sum == pytest.approx(16.0)
    assert loaded.weights[1, 1] == pytest.approx(0.5)


@pytest.mark.parametrize("text, fragment", [
    ("not a header\n", "header must be 'q1 q2'"),
    ("1 x\n0 1 0\n", "header must hold two integers"),
    ("-1 1\n", "half supports must be nonnegative"),
    ("1 1\n0 2 0\n2 8\n0 2 0\n", "line 3 has 2 values, expected 3"),
    ("1 1\n0 2 0\n2 x 2\n0 2 0\n", "line 3: 'x' is not a number"),
    ("1 1\n0 2 0\n2 8 2\n0 2 0\n0 1 0\n", r"must have shape \(3, 3\), got \(4, 3\)"),
    ("1 1\n0 2 0\n2 8 2\n0 2 0\nnot a row\n", "line 5: 'not' is not a number"),
    ("1 1\n0 2 0\n2 nan 2\n0 2 0\n", "NaN or inf"),
    ("1 1\n0 2 0\n2 inf 2\n0 2 0\n", "NaN or inf"),
], ids=["header-not-a-pair", "header-not-integers", "negative-half-support", "short-row",
        "non-number", "extra-row", "trailing-text", "nan-weight", "inf-weight"])
def test_load_mask_rejects_malformed_files(tmp_path, text, fragment):
    path = tmp_path / "mask.txt"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(r.FormatError, match=fragment):
            r.load_mask(path)
    assert caught == []


def test_load_mask_skips_blank_lines_and_comments(tmp_path):
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("1 1\n0 2 0\n2 8 2\n0 2 0\n")
    commented.write_text("1 1\n0 2 0\n\n2 8 2\n# a comment\n0 2 0\n")
    (a, a_sum), (b, b_sum) = r.load_mask(plain), r.load_mask(commented)
    assert a.weights.tobytes() == b.weights.tobytes() and a_sum == b_sum


def test_load_mask_reads_utf8_and_names_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_bytes("1 1\n# caf\u00e9\n0 2 0\n2 8 2\n0 2 0\n".encode("utf-8"))
    assert r.load_mask(path)[1] == 16.0
    for data, line in ((b"1 1\n0 1 0\n1 \xff 1\n0 1 0\n", 3), (b"1 \xff\n", 1)):
        path.write_bytes(data)
        with pytest.raises(r.FormatError, match=f"mask.txt:{line}: byte 0xff is not UTF-8"):
            r.load_mask(path)


def _mask_text_per_value(mask):
    """The per-value mask writer the shared table writer replaced."""
    q1, q2 = mask.half_support
    rows = [" ".join(format(v, ".17g") for v in row) for row in mask.weights]
    return "\n".join([f"{q1} {q2}"] + rows) + "\n"


def _masks_up_to_3():
    rng = np.random.default_rng(7)
    for q1 in range(4):
        for q2 in range(4):
            yield r.gaussian_mask((q1, q2), (0.3 + 0.4 * q1, 1.7 - 0.3 * q2))
            yield r.out_of_focus_mask((q1, q2), 0.5 + 0.9 * max(q1, q2))
            yield r.mask_from_weights(rng.random((2 * q1 + 1, 2 * q2 + 1)))


def test_mask_files_keep_their_bytes_and_weight_bits(tmp_path):
    path = tmp_path / "mask.txt"
    for mask in _masks_up_to_3():
        r.save_mask(mask, path)
        text = _mask_text_per_value(mask)
        assert path.read_text() == text
        parsed = np.array([[float(v) for v in line.split()] for line in text.splitlines()[1:]])
        loaded, raw_sum = r.load_mask(path)
        assert loaded.weights.tobytes() == r.mask_from_weights(parsed).weights.tobytes()
        assert raw_sum == float(parsed.sum())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mask_from_weights_checks_finiteness_before_dividing(bad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(r.InvalidParameterError, match="NaN or inf"):
            r.mask_from_weights(np.array([[1.0, bad, 1.0]]))
    assert caught == []
