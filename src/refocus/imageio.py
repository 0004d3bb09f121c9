"""Image, matrix and table file IO: every file format of the package.

Binary netpbm rasters (PGM type P5 for grayscale, PPM type P6 for
color) carry quantized pixel data; plain text files carry exact float
matrices. Pixels map to [0, 1] on read by dividing by the maxval and
are quantized on write by round half up, so a read/write cycle at the
same maxval reproduces the file byte for byte. A read divides the
raster straight into C-contiguous channel planes; a write quantizes
whole rows of at most _BLOCK_VALUES samples at a time straight into the
integer raster it writes, so neither holds an image-sized temporary.
_BLOCK_VALUES is the one working-set budget of the package
(transforms._BLOCK_VALUES); text tables are written in blocks of it too.

Every text table is read by _read_rows (a .txt matrix, and the body of
a mask file under its header) and written by _write_table ('%.17g'
values: .txt matrices, mask files and the CSV outputs). Every text file
read (tables, mask headers, experiment configs) is UTF-8, and
_utf8_text names the line of a byte that is not. A path's suffix
picks between image and matrix in one place, _is_image.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InvalidParameterError, SizeMismatchError
from .errors import _check_finite, _check_int
from .transforms import _BLOCK_VALUES

_WHITESPACE = b" \t\n\r\x0b\x0c"
_MAXVALS = (255, 65535)
# Separators (whitespace, or a '#' comment through its newline), then one
# header token. The token is empty only at the end of the data or at a
# comment with no newline.
_TOKEN = re.compile(rb"(?:[%s]+|#[^\n]*\n)*([^%s#]*)" % (_WHITESPACE, _WHITESPACE))
# A number as loadtxt reads it: float() syntax in ASCII, with no '_'.
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)",
                     re.ASCII | re.IGNORECASE)


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
    if len(data) - offset < expected:
        raise FormatError(
            f"raster truncated, expected {expected} bytes", offset=len(data)
        )
    dtype = ">u2" if itemsize == 2 else np.uint8
    samples = np.frombuffer(data, dtype, height * width * channels, offset)
    planes = np.empty((channels, height, width))
    np.divide(np.moveaxis(samples.reshape(height, width, channels), 2, 0), maxval, out=planes)
    return planes[0] if channels == 1 else planes


def read_image(path):
    """Read a binary PGM or PPM file as floats in [0, 1].

    Parameters
    ----------
    path : str or Path
        File to read.

    Returns
    -------
    ndarray
        Shape (n1, n2) for PGM, (3, n1, n2) for PPM; C-contiguous, so
        each channel plane is contiguous.
    """
    with open(path, "rb") as fh:
        return _parse_netpbm(fh.read())


def _check_maxval(maxval):
    """The one maxval rule: an integer in _MAXVALS, as a Python int."""
    maxval = _check_int(maxval, "maxval")
    if maxval not in _MAXVALS:
        raise InvalidParameterError(f"maxval must be one of {_MAXVALS}, got {maxval}")
    return maxval


def write_image(path, image, maxval=255):
    """Write an image as binary PGM (2-D input) or PPM (3, n1, n2 input).

    Values are clipped to [0, 1] and quantized by round half up,
    floor(clip(x, 0, 1) * maxval + 0.5). maxval is the integer 255 or
    65535; 65535 writes big-endian 16-bit samples. Whole rows of at most
    _BLOCK_VALUES samples (one row if a row is wider) are checked and
    quantized at a time, straight into the integer raster that is
    written, so no image-sized float temporary or byte copy is made. A
    bad maxval or shape, or non-finite samples, are rejected before the
    file is opened.
    """
    maxval = _check_maxval(maxval)
    image = np.asarray(image, dtype=float)
    if image.ndim == 2:
        magic = b"P5"
    elif image.ndim == 3 and image.shape[0] == 3:
        magic = b"P6"
    else:
        raise InvalidParameterError(
            f"image must be (n1, n2) or (3, n1, n2), got {image.shape}"
        )
    height, width = image.shape[-2:]
    if height == 0 or width == 0:
        raise InvalidParameterError("image must be non-empty")
    planes = image.reshape((-1, height, width))
    raster = np.empty((height, width, len(planes)), ">u2" if maxval > 255 else np.uint8)
    rows = max(1, _BLOCK_VALUES // (len(planes) * width))
    for start in range(0, height, rows):
        block = np.clip(_check_finite(planes[:, start : start + rows], "image"), 0.0, 1.0)
        block *= maxval
        block += 0.5
        for channel, plane in enumerate(np.floor(block, out=block)):
            raster[start : start + rows, :, channel] = plane
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster)


def _utf8_text(path, error=FormatError):
    """The text of the file at path, decoded by the one text rule: UTF-8.

    A byte that is not UTF-8 raises error naming path and the byte's line.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 text") from None


def _read_rows(path, skip=0):
    """The one text-table reader: rows of finite floats, as a 2-D array.

    The table starts after the first skip lines of the file at path;
    blank lines and '#' comments are skipped. Errors name path, and a
    row that does not parse by its line in the file.
    """
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without data; the size check below rejects it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, dtype=float, ndmin=2, skiprows=skip, encoding="utf-8")
    except ValueError as exc:
        fault = next(_row_faults(path, skip), exc)
        raise FormatError(f"invalid matrix file {path}: {fault}") from exc
    if values.size == 0:
        raise FormatError(f"empty matrix file {path}")
    if not np.isfinite(values).all():
        raise FormatError(f"matrix file {path} holds NaN or inf entries")
    return values


def _row_faults(path, skip):
    """Each fault loadtxt refuses in the table at path, by its file line.

    A fault is a non-number, or a row whose count of values differs from
    the first row's; a byte that is not UTF-8 raises FormatError naming
    its line. The file is rescanned only after loadtxt failed, so a valid
    table is parsed once and keeps loadtxt's bits.
    """
    lines = _utf8_text(path).split("\n")
    width = 0
    for number, line in enumerate(lines[skip:], start=skip + 1):
        tokens = line.split("#", 1)[0].split()
        bad = [token for token in tokens if not _NUMBER.fullmatch(token)]
        yield from (f"line {number}: {token!r} is not a number" for token in bad)
        width = width or len(tokens)
        if tokens and len(tokens) != width:
            yield f"line {number} has {len(tokens)} values, expected {width}"


def read_matrix(path):
    """Read a whitespace separated text matrix of finite floats."""
    return _read_rows(path)


def write_matrix(path, values):
    """Write a non-empty 2-D float array as text, one row per line, full precision."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidParameterError(f"matrix must be 2-D, got shape {values.shape}")
    if values.size == 0:
        raise InvalidParameterError("matrix must be non-empty")
    _write_table(path, values, " ")


def _write_table(path, table, sep, header=None):
    """The one text-table writer: an optional header line, then '%.17g' rows.

    Values are joined by sep. NaN or inf raises InvalidParameterError
    before the file is opened. Each block of whole rows, at most
    _BLOCK_VALUES values (transforms' one working-set budget), is
    formatted by one '%' of a repeated row template and written at once,
    so a long or wide table never holds a Python object per value all at
    the same time. A single row wider than the budget is still formatted
    at once, as a block of its own. Integer tables format as
    format(v, '.17g') does, through float, so the text equals that of a
    per-value format() loop.
    """
    _check_finite(table, "table")
    row = sep.join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        if header is not None:
            fh.write(header + "\n")
        rows = max(1, _BLOCK_VALUES // table.shape[1])
        for start in range(0, len(table), rows):
            block = table[start : start + rows]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_csv(path, header, *columns):
    """Write a header line, then comma separated rows of equal-length 1-D columns.

    Columns of other shapes raise SizeMismatchError, and NaN or inf
    raises InvalidParameterError, both before the file is opened.
    """
    if np.ndim(columns[0]) != 1 or len({np.shape(c) for c in columns}) != 1:
        raise SizeMismatchError("columns must be equal-length 1-D arrays")
    _write_table(path, np.column_stack(columns), ",", header)


def _is_image(path):
    """True for a .pgm/.ppm path, False for .txt; other suffixes are errors."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".pgm", ".ppm", ".txt"):
        raise ConfigError(f"unsupported file type {suffix!r} for {path}")
    return suffix != ".txt"


def read_by_suffix(path):
    """Read a .pgm/.ppm image or a .txt matrix, chosen by the file suffix."""
    return read_image(path) if _is_image(path) else read_matrix(path)


def write_by_suffix(path, image, maxval):
    """Write a .pgm/.ppm image at maxval or a .txt matrix, by the file suffix."""
    if _is_image(path):
        write_image(path, image, maxval)
    else:
        write_matrix(path, image)
