import numpy as np
import pytest

import refocus as r

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


def test_write_matrix_rejects_non_finite_before_writing(tmp_path):
    for value in (np.nan, np.inf):
        values = np.full((3, 4), 0.5)
        values[1, 2] = value
        path = tmp_path / "bad.txt"
        with pytest.raises(r.InvalidParameterError):
            r.write_matrix(path, values)
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
