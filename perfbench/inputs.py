"""Seeded inputs and independent reference arithmetic for the benchmark.

Nothing here calls refocus: scenes, blurred observations and netpbm
files are made with numpy and scipy alone, so the program under test
only ever receives finished input files, and the output checks have a
blur that shares no code with the one they check.
"""

from __future__ import annotations

import re

import numpy as np
from scipy import fft

# np.pad modes that extend an image past its edge under each boundary rule.
PAD_MODES = {
    "reflective": {"mode": "symmetric"},
    "antireflective": {"mode": "reflect", "reflect_type": "odd"},
    "periodic": {"mode": "wrap"},
    "zero": {"mode": "constant", "constant_values": 0.0},
}

_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def textured_scene(rng, shape, channels=1):
    """Scene in [0.05, 0.95]: random slow waves plus sharp-edged patches.

    The amount of work a scene causes depends only on its shape, never
    on the seed, so runs with different seeds measure the same work.
    """
    n1, n2 = shape
    u = np.linspace(0.0, 1.0, n1)
    v = np.linspace(0.0, 1.0, n2)
    planes = []
    for _ in range(channels):
        img = np.full((n1, n2), 0.5)
        for _ in range(4):
            fu, fv = rng.uniform(1.0, 9.0, size=2)
            amp = rng.uniform(0.03, 0.07)
            a = 2.0 * np.pi * fu * u + rng.uniform(0.0, 2.0 * np.pi)
            b = 2.0 * np.pi * fv * v
            # cos(a + b) as two outer products
            img += np.outer(amp * np.cos(a), np.cos(b))
            img -= np.outer(amp * np.sin(a), np.sin(b))
        for _ in range(6):
            r0, c0 = rng.integers(0, n1 - 1), rng.integers(0, n2 - 1)
            h, w = rng.integers(n1 // 16, n1 // 4), rng.integers(n2 // 16, n2 // 4)
            img[r0 : r0 + h, c0 : c0 + w] += rng.choice((-0.12, 0.12))
        planes.append(np.clip(img, 0.05, 0.95))
    return planes[0] if channels == 1 else np.stack(planes)


def correlate_valid(extended, weights):
    """Correlation over the last two axes keeping full overlaps, by FFT."""
    kernel = np.asarray(weights, dtype=float)[::-1, ::-1]
    (s1, s2), (k1, k2) = extended.shape[-2:], kernel.shape
    size = (fft.next_fast_len(s1 + k1 - 1, True), fft.next_fast_len(s2 + k2 - 1, True))
    spectrum = fft.rfft2(extended, size) * fft.rfft2(kernel, size)
    full = fft.irfft2(spectrum, size)
    return full[..., k1 - 1 : s1, k2 - 1 : s2]


def reference_blur(image, weights, bc):
    """Blur under a boundary rule: np.pad extension, then FFT correlation."""
    q1, q2 = weights.shape[0] // 2, weights.shape[1] // 2
    widths = [(0, 0)] * (image.ndim - 2) + [(q1, q1), (q2, q2)]
    return correlate_valid(np.pad(image, widths, **PAD_MODES[bc]), weights)


def mix(matrix, channels):
    """Pixelwise channel mixing of a (3, n1, n2) stack."""
    return np.tensordot(np.asarray(matrix, dtype=float), channels, axes=([1], [0]))


def quantize(image, maxval):
    """Round half up after clipping to [0, 1], as netpbm writers do."""
    return np.floor(np.clip(image, 0.0, 1.0) * maxval + 0.5)


def write_netpbm(path, image, maxval=255):
    """Binary PGM for (n1, n2), PPM for (3, n1, n2)."""
    samples = quantize(image, maxval)
    if samples.ndim == 3:
        samples = np.moveaxis(samples, 0, 2)
        magic = b"P6"
    else:
        magic = b"P5"
    height, width = samples.shape[:2]
    dtype = ">u2" if maxval > 255 else np.uint8
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(samples.astype(dtype).tobytes())


def read_netpbm(path):
    """Decode a binary PGM/PPM into floats in [0, 1]; returns (image, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    match = _HEADER.match(data)
    if match is None:
        raise ValueError(f"{path}: not a binary netpbm file")
    magic, width, height, maxval = match.groups()
    width, height, maxval = int(width), int(height), int(maxval)
    channels = 3 if magic == b"P6" else 1
    dtype = ">u2" if maxval > 255 else np.uint8
    count = width * height * channels
    raster = np.frombuffer(data, dtype=dtype, count=count, offset=match.end())
    samples = raster.astype(float) / maxval
    if channels == 1:
        return samples.reshape(height, width), maxval
    return np.moveaxis(samples.reshape(height, width, 3), 2, 0), maxval


def observe(rng, scene, weights, rho, matrix=None):
    """Exact blur of an oversized scene (no boundary model), mixed, plus noise."""
    clean = correlate_valid(scene, weights)
    if matrix is not None:
        clean = mix(matrix, clean)
    noise = rng.standard_normal(clean.shape)
    return clean + rho * np.linalg.norm(clean) / np.linalg.norm(noise) * noise
