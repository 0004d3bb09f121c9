"""Image and matrix file IO.

Binary netpbm rasters (PGM type P5 for grayscale, PPM type P6 for
color) carry quantized pixel data; plain text files carry exact float
matrices. Pixels map to [0, 1] on read by dividing by the maxval and
are quantized on write by round half up, so a read/write cycle at the
same maxval reproduces the file byte for byte.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError, InvalidParameterError

_WHITESPACE = b" \t\n\r\x0b\x0c"
_MAXVALS = (255, 65535)
# Separators (whitespace, or a '#' comment through its newline), then one
# header token. The token is empty only at the end of the data or at a
# comment with no newline.
_TOKEN = re.compile(rb"(?:[%s]+|#[^\n]*\n)*([^%s#]*)" % (_WHITESPACE, _WHITESPACE))
# Rows formatted per write by _write_csv.
_CSV_BLOCK = 4096


def _header_token(data, pos, what):
    """The next header token at or after pos, its offset, and its end."""
    match = _TOKEN.match(data, pos)
    raw, at = match[1], match.start(1)
    if not raw:
        message = "unterminated comment" if data.startswith(b"#", at) else f"missing {what}"
        raise FormatError(message, offset=at)
    return raw, at, match.end()


def _parse_netpbm(data):
    magic, start, pos = _header_token(data, 0, "magic number")
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported magic number {magic!r}", offset=start)
    numbers = []
    for what in ("width", "height", "maxval"):
        raw, at, pos = _header_token(data, pos, what)
        if not raw.isdigit():
            raise FormatError(f"invalid {what} {raw!r}", offset=at)
        numbers.append(int(raw))
    width, height, maxval = numbers
    if width <= 0 or height <= 0:
        raise FormatError(f"invalid dimensions {width}x{height}", offset=start)
    if maxval not in _MAXVALS:
        raise FormatError(f"unsupported maxval {maxval}", offset=start)
    if pos >= len(data):
        raise FormatError("missing raster", offset=pos)
    if data[pos] not in _WHITESPACE:
        raise FormatError("expected whitespace before raster", offset=pos)
    offset = pos + 1
    channels = 3 if magic == b"P6" else 1
    itemsize = 2 if maxval > 255 else 1
    expected = width * height * channels * itemsize
    raster = data[offset : offset + expected]
    if len(raster) < expected:
        raise FormatError(
            f"raster truncated, expected {expected} bytes", offset=len(data)
        )
    dtype = ">u2" if itemsize == 2 else np.uint8
    samples = np.frombuffer(raster, dtype=dtype).astype(float) / maxval
    if channels == 1:
        return samples.reshape(height, width)
    return np.moveaxis(samples.reshape(height, width, 3), 2, 0)


def read_image(path):
    """Read a binary PGM or PPM file as floats in [0, 1].

    Parameters
    ----------
    path : str or Path
        File to read.

    Returns
    -------
    ndarray
        Shape (n1, n2) for PGM, (3, n1, n2) for PPM.
    """
    with open(path, "rb") as fh:
        return _parse_netpbm(fh.read())


def _quantize(image, maxval):
    clipped = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    return np.floor(clipped * maxval + 0.5)


def write_image(path, image, maxval=255):
    """Write an image as binary PGM (2-D input) or PPM (3, n1, n2 input).

    Values are clipped to [0, 1] and quantized by round half up. A
    maxval of 65535 writes big-endian 16-bit samples. Non-finite samples
    are rejected before the file is opened.
    """
    if maxval not in _MAXVALS:
        raise InvalidParameterError(f"maxval must be one of {_MAXVALS}, got {maxval}")
    image = np.asarray(image, dtype=float)
    if not np.isfinite(image).all():
        raise InvalidParameterError("image holds NaN or inf samples")
    if image.ndim == 2:
        magic, height, width = b"P5", image.shape[0], image.shape[1]
        samples = _quantize(image, maxval)
    elif image.ndim == 3 and image.shape[0] == 3:
        magic, height, width = b"P6", image.shape[1], image.shape[2]
        samples = np.moveaxis(_quantize(image, maxval), 0, 2)
    else:
        raise InvalidParameterError(
            f"image must be (n1, n2) or (3, n1, n2), got {image.shape}"
        )
    if height == 0 or width == 0:
        raise InvalidParameterError("image must be non-empty")
    dtype = ">u2" if maxval > 255 else np.uint8
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.astype(dtype).tobytes())


def read_matrix(path):
    """Read a whitespace separated text matrix of finite floats."""
    try:
        values = np.loadtxt(path, dtype=float, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"invalid matrix file {path}: {exc}") from exc
    if values.size == 0:
        raise FormatError(f"empty matrix file {path}")
    if not np.isfinite(values).all():
        raise FormatError(f"matrix file {path} holds NaN or inf entries")
    return values


def write_matrix(path, values):
    """Write a 2-D float array as text, one row per line, full precision."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidParameterError(f"matrix must be 2-D, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InvalidParameterError("matrix holds NaN or inf values")
    np.savetxt(path, values, fmt="%.17g")


def _write_csv(path, header, *columns):
    """Write a header line, then '%.17g' rows of equal-length 1-D columns.

    Each block of _CSV_BLOCK rows is formatted by one '%' of a repeated
    row template and written at once, so a long column never holds a
    Python object per value all at the same time. Integer columns format
    as format(v, '.17g') does, through float, so the text equals that of
    a per-value format() loop.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start : start + _CSV_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
