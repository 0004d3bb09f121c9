import warnings

import numpy as np
import pytest

import refocus as r
from refocus.imageio import _IMAGE_BLOCK

from conftest import smooth_image


def test_gray_round_trip_8bit(tmp_path):
    img = smooth_image((9, 7))
    path = tmp_path / "img.pgm"
    r.write_image(path, img)
    back = r.read_image(path)
    assert back.shape == (9, 7)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_color_round_trip_16bit(tmp_path):
    img = np.stack([smooth_image((5, 6)) * s for s in (1.0, 0.8, 0.6)])
    path = tmp_path / "img.ppm"
    r.write_image(path, img, maxval=65535)
    back = r.read_image(path)
    assert back.shape == (3, 5, 6)
    assert back.flags.c_contiguous  # each channel plane is contiguous
    assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12


def test_write_read_write_is_byte_identical(tmp_path):
    for shape, maxval in (((8, 5), 255), ((8, 5), 65535)):
        img = smooth_image(shape)
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        r.write_image(first, img, maxval=maxval)
        r.write_image(second, r.read_image(first), maxval=maxval)
        assert first.read_bytes() == second.read_bytes()
    color = np.stack([smooth_image((4, 6))] * 3)
    first = tmp_path / "a.ppm"
    second = tmp_path / "b.ppm"
    r.write_image(first, color)
    r.write_image(second, r.read_image(first))
    assert first.read_bytes() == second.read_bytes()


def test_canonical_header(tmp_path):
    path = tmp_path / "img.pgm"
    r.write_image(path, smooth_image((3, 5)))
    assert path.read_bytes().startswith(b"P5\n5 3\n255\n")
    path = tmp_path / "img.ppm"
    r.write_image(path, np.zeros((3, 2, 4)), maxval=65535)
    assert path.read_bytes().startswith(b"P6\n4 2\n65535\n")


def test_write_clips_out_of_range(tmp_path):
    img = np.array([[-0.5, 0.0], [1.0, 1.7]])
    path = tmp_path / "img.pgm"
    r.write_image(path, img)
    back = r.read_image(path)
    assert np.array_equal(back * 255, [[0.0, 0.0], [255.0, 255.0]])


def test_quantization_rounds_half_up(tmp_path):
    # 0.5/255 quantizes up to 1, just below it rounds down to 0
    img = np.array([[0.5 / 255, 0.4999 / 255]])
    path = tmp_path / "img.pgm"
    r.write_image(path, img)
    raw = path.read_bytes()
    assert raw[-2:] == bytes([1, 0])


@pytest.mark.parametrize("maxval", [255, 65535])
@pytest.mark.parametrize("channels", [1, 3], ids=["gray", "color"])
def test_write_image_bytes_match_the_rounding_formula(tmp_path, channels, maxval):
    # rows span several write blocks, the last one short
    width = 4096
    rows = _IMAGE_BLOCK // (channels * width)
    height = 2 * rows + 1 if rows > 1 else 3
    rng = np.random.default_rng(7)
    img = rng.uniform(-0.25, 1.25, (channels, height, width))
    steps = rng.integers(0, maxval, img.size)
    img.flat[::3] = (steps[::3] + 0.5) / maxval  # half steps
    img = img[0] if channels == 1 else img
    path = tmp_path / ("img.pgm" if channels == 1 else "img.ppm")
    r.write_image(path, img, maxval)
    quantized = np.floor(np.clip(img, 0.0, 1.0) * maxval + 0.5)
    samples = quantized if channels == 1 else np.moveaxis(quantized, 0, -1)
    raster = samples.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    magic = b"P5" if channels == 1 else b"P6"
    assert path.read_bytes() == magic + b"\n%d %d\n%d\n" % (width, height, maxval) + raster
    back = r.read_image(path)
    assert back.shape == img.shape and back.flags.c_contiguous
    assert np.array_equal(back, quantized / maxval)


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 2 2 # dims\n255\n\x01\x02\x03\x04")
    img = r.read_image(path)
    assert np.allclose(img * 255, [[1, 2], [3, 4]])


def test_sixteen_bit_is_big_endian(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x01\x00")
    assert r.read_image(path)[0, 0] == pytest.approx(256 / 65535)


def test_format_errors_carry_offsets(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P7\n2 2\n255\n")
    with pytest.raises(r.FormatError) as info:
        r.read_image(path)
    assert info.value.offset == 0
    path.write_bytes(b"P5\n2 2\n255\n\x01\x02")
    with pytest.raises(r.FormatError) as info:
        r.read_image(path)
    assert "truncated" in str(info.value)
    assert info.value.offset == 13
    path.write_bytes(b"P5\n2 x\n255\n")
    with pytest.raises(r.FormatError):
        r.read_image(path)
    path.write_bytes(b"P5\n2 2\n300\n" + bytes(8))
    with pytest.raises(r.FormatError):
        r.read_image(path)


@pytest.mark.parametrize(
    "data, fragment, offset",
    [
        (b"P5 # no newline", "unterminated comment", 3),
        (b"P5\n2 2 #\n# dangling", "unterminated comment", 9),
        (b"P5\n", "missing width", 3),
        (b"P5\n2 ", "missing height", 5),
        (b"P5\n2 2\n", "missing maxval", 7),
        (b"P5\n2 x\n255\n", "invalid height b'x'", 5),
        (b"P5\n-2 2\n255\n", "invalid width b'-2'", 3),
        (b"P5\n2 2\n2.5\n", "invalid maxval b'2.5'", 7),
        (b"  P5\n0 2\n255\n", "invalid dimensions 0x2", 2),
        (b"P6\n3 00\n255\n", "invalid dimensions 3x0", 0),
        (b"P5\n2 2\n255", "missing raster", 10),
        (b"P5\n2 2\n255#c\n\x01\x02\x03\x04", "expected whitespace before raster", 10),
    ],
)
def test_header_errors_pin_message_and_offset(tmp_path, data, fragment, offset):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    with pytest.raises(r.FormatError) as info:
        r.read_image(path)
    assert fragment in str(info.value)
    assert info.value.offset == offset


def test_write_image_validation(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(r.InvalidParameterError):
        r.write_image(path, np.zeros((2, 2)), maxval=300)
    with pytest.raises(r.InvalidParameterError):
        r.write_image(path, np.zeros((4, 2, 2)))
    with pytest.raises(r.InvalidParameterError):
        r.write_image(path, np.zeros((0, 2)))
    # the maxval rule: an integer among the netpbm maxvals, checked before
    # the file is opened
    for maxval in (255.0, np.float64(65535), "255", None, 300):
        with pytest.raises(r.InvalidParameterError) as info:
            r.write_image(path, np.zeros((2, 2)), maxval=maxval)
        assert type(info.value) is r.InvalidParameterError
        assert not path.exists()


def test_write_image_takes_numpy_integer_maxvals(tmp_path):
    img = smooth_image((5, 4))
    for maxval in (255, 65535):
        plain, numpy_int = tmp_path / "plain.pgm", tmp_path / "numpy.pgm"
        r.write_image(plain, img, maxval)
        r.write_image(numpy_int, img, np.int64(maxval))
        assert numpy_int.read_bytes() == plain.read_bytes()


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "mat.txt"
    m = smooth_image((4, 3))
    r.write_matrix(path, m)
    assert np.array_equal(r.read_matrix(path), m)


def test_matrix_errors(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("1.0 2.0\n3.0 oops\n")
    with pytest.raises(r.FormatError):
        r.read_matrix(path)
    with pytest.raises(r.InvalidParameterError):
        r.write_matrix(path, np.zeros((2, 2, 2)))


@pytest.mark.parametrize("text, fragment", [
    ("1 2\n3 x\n", "line 2: 'x' is not a number"),
    ("# c\n\n1 2 3\n4 5\n", "line 4 has 2 values, expected 3"),
    ("1 2\n3 4 # c\n\n5 6 7\n", "line 4 has 3 values, expected 2"),
    # float() takes digit separators, loadtxt does not
    ("1 2\n1_0 3\n", "line 2: '1_0' is not a number"),
    # a dotless i is not the ASCII i of inf
    ("1 2\n\u0131nf 3\n", "line 2: '\u0131nf' is not a number"),
], ids=["non-number", "short-row-after-comment", "long-row-after-blank", "digit-separator",
        "non-ascii-inf"])
def test_read_matrix_names_the_file_line_at_fault(tmp_path, text, fragment):
    path = tmp_path / "mat.txt"
    path.write_text(text)
    with pytest.raises(r.FormatError, match=fragment) as info:
        r.read_matrix(path)
    assert "at row" not in str(info.value) and "usecols" not in str(info.value)


def test_read_matrix_reads_utf8_and_names_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_bytes("1 2\n# caf\u00e9\n3 4\n".encode("utf-8"))
    assert r.read_matrix(path).tolist() == [[1, 2], [3, 4]]
    path.write_bytes(b"1 2\n# caf\xe9\n3 4\n")
    with pytest.raises(r.FormatError, match="mat.txt:2: byte 0xe9 is not UTF-8"):
        r.read_matrix(path)


@pytest.mark.parametrize("text", ["", "# a comment only\n\n"], ids=["empty", "comment-only"])
def test_read_matrix_rejects_empty_files_without_a_warning(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    # under the suite's filter every warning is an error; under "always" none may show
    with pytest.raises(r.FormatError, match="empty matrix file"):
        r.read_matrix(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(r.FormatError, match="empty matrix file"):
            r.read_matrix(path)
    assert caught == []


def test_write_matrix_rejects_non_finite_before_writing(tmp_path):
    for value in (np.nan, np.inf):
        values = np.full((3, 4), 0.5)
        values[1, 2] = value
        path = tmp_path / "bad.txt"
        with pytest.raises(r.InvalidParameterError):
            r.write_matrix(path, values)
        assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_write_matrix_rejects_an_empty_matrix_before_writing(tmp_path, shape):
    path = tmp_path / "empty.txt"
    with pytest.raises(r.InvalidParameterError, match="non-empty"):
        r.write_matrix(path, np.zeros(shape))
    assert not path.exists()


def test_read_matrix_rejects_non_finite(tmp_path):
    for token in ("nan", "inf", "-inf"):
        path = tmp_path / f"{token}.txt"
        path.write_text(f"0.5 0.25\n{token} 1.0\n")
        with pytest.raises(r.FormatError):
            r.read_matrix(path)


def test_write_image_rejects_non_finite_before_writing(tmp_path):
    for value in (np.nan, np.inf):
        image = np.full((3, 4), 0.5)
        image[1, 2] = value
        path = tmp_path / "bad.pgm"
        with pytest.raises(r.InvalidParameterError):
            r.write_image(path, image)
        assert not path.exists()
