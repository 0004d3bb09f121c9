"""Output checks that hold for any seed.

Each check takes the refocus package, a request class and the output
that class produced, and raises CheckFailed if the output is wrong.
The blur used by the checks is `inputs.reference_blur` (np.pad plus an
FFT correlation), which shares no code with refocus.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

import inputs
from workloads import MIX_MATRIX, mask_weights

# Relative residual allowed in the exact identities below; a wrong
# output misses them by orders of magnitude more.
IDENTITY_TOL = 1e-9
# The experiment and sweep optima must be reproduced this closely.
OPTIMUM_TOL = 1e-10


class CheckFailed(Exception):
    pass


def digest(path):
    """Content digest of a file, or of every file under a directory."""
    h = hashlib.blake2b(digest_size=20)
    if os.path.isdir(path):
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(root, name)
                h.update(os.path.relpath(full, path).encode() + b"\0")
                with open(full, "rb") as fh:
                    h.update(fh.read())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _relative(residual, scale, what):
    rel = float(np.linalg.norm(residual) / np.linalg.norm(scale))
    _require(rel <= IDENTITY_TOL, f"{what}: relative residual {rel:.3e}")


def _matches_quantized(out, maxval, image, what):
    steps = np.abs(out * maxval - inputs.quantize(image, maxval)).max()
    _require(steps <= 1.0, f"{what}: output differs by {steps:g} quantization steps")


def _restore(r, method, filt, g, op, mixing):
    """One restoration through the public API, gray or color."""
    if method == "tikhonov":
        fn = r.tikhonov_restore if mixing is None else r.color_tikhonov
    elif method == "tsd":
        fn = r.truncated_sd_restore if mixing is None else r.color_truncated_sd
    else:
        fn = r.truncated_svd_restore if mixing is None else r.color_truncated_svd
    return fn(g, op, filt) if mixing is None else fn(g, mixing, op, filt)


def check_restore(r, spec, out_path, result):
    """The output is the quantized float restoration, and that restoration
    solves the filter's defining equation under an independent blur.

    result is the restoration the CLI computed, or None to recompute it.
    """
    g, _ = inputs.read_netpbm(spec["image"])
    out, maxval = inputs.read_netpbm(out_path)
    bc = r.BoundaryCondition(spec["bc"])
    mask = r.parse_psf_spec(spec["psf"])
    op = r.BlurOperator(mask, bc, g.shape[-2:])
    color = spec["color"]
    method, value = spec["method"], spec["value"]
    if result is None:
        if method == "tikhonov":
            filt = r.Tikhonov(value)
        elif spec["flag"] == "--count":
            filt = r.TruncateByCount(int(value))
        else:
            filt = r.TruncateByThreshold(value)
        mixing = r.ColorMixing(MIX_MATRIX) if color else None
        result = _restore(r, method, filt, g, op, mixing)
    f = result.image
    _require(f.shape == g.shape, f"restoration shape {f.shape}")
    _matches_quantized(out, maxval, f, "restore output")

    weights = mask_weights(spec["psf"])

    def blur(x):
        return inputs.reference_blur(x, weights, spec["bc"])

    if method == "tikhonov":
        # (A^2 (x) M^T M + mu I) f = (A (x) M^T) g, with M = I for gray.
        if not color:
            lhs, rhs = blur(blur(f)), blur(g)
        else:
            lhs = inputs.mix(MIX_MATRIX.T @ MIX_MATRIX, blur(blur(f)))
            rhs = blur(inputs.mix(MIX_MATRIX.T, g))
        _relative(lhs + value * f - rhs, rhs, "Tikhonov normal equations")
        return
    if method == "tsd":
        # A f reproduces exactly the kept part of g's spectrum.
        af = inputs.mix(MIX_MATRIX, blur(f)) if color else blur(f)
        grid = r.eigen_grid_for(op)
        magnitudes = np.abs(grid.values).ravel()
        if spec["flag"] == "--count":
            chosen = r.sort_spectrum(grid)[: int(value)]
            chosen = chosen[magnitudes[chosen] >= r.ZERO_SPECTRUM_TOL]
            keep = np.zeros(magnitudes.size, dtype=bool)
            keep[chosen] = True
        else:
            keep = magnitudes >= value
        keep = keep.reshape(grid.shape)
        ghat = r.spectral_analysis(g, bc)
        _relative(r.spectral_analysis(af, bc) - keep * ghat, ghat, "TSD kept spectrum")
        _require(result.count_kept == keep.sum(), f"kept {result.count_kept} coefficients")
        return
    # TSVD: the same statement in the singular bases of the 1-D factors.
    col, row = r.separable_factors(mask)
    u1, s1, _ = np.linalg.svd(r.assemble_dense_1d(col, g.shape[0], bc))
    u2, s2, _ = np.linalg.svd(r.assemble_dense_1d(row, g.shape[1], bc))
    keep = np.multiply.outer(s1, s2) >= value
    ghat = u1.T @ g @ u2
    _relative(u1.T @ blur(f) @ u2 - keep * ghat, ghat, "TSVD kept spectrum")


def check_blur(r, spec, out_path, result=None):
    """Blur matches an independent correlation of the padded scene; the
    added noise has exactly the requested relative norm."""
    scene, _ = inputs.read_netpbm(spec["image"])
    out, maxval = inputs.read_netpbm(out_path)
    clean = inputs.reference_blur(scene, mask_weights(spec["psf"]), spec["bc"])
    if spec["color"]:
        clean = inputs.mix(MIX_MATRIX, clean)
    _require(out.shape == clean.shape, f"blur output shape {out.shape}")
    rho = spec["rho"]
    if rho == 0:
        _matches_quantized(out, maxval, clean, "blur output")
        return
    ratio = float(np.linalg.norm(out - clean) / np.linalg.norm(clean))
    _require(abs(ratio - rho) <= 1e-3 * rho, f"noise ratio {ratio:.6g}, expected {rho:g}")


def _curve(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    best = int(np.argmin(data[:, 1]))
    return data[best, 0], data[best, 1]


def _check_optimum(r, curve_path, g, op, mixing, method, truth, what):
    param, best = _curve(curve_path)
    filt = r.Tikhonov(param) if method == "tikhonov" else r.TruncateByCount(int(param))
    restored = _restore(r, method, filt, g, op, mixing)
    err = r.rre(restored.image, truth)
    _require(abs(err - best) <= OPTIMUM_TOL,
             f"{what}: optimum rre {best:.17g} but a single restore gives {err:.17g}")


def check_experiment(r, spec, out_dir, result=None):
    """Every case's optimum is reproduced by one restore at that parameter."""
    mask = r.parse_psf_spec(spec["psf"])
    side = (spec["side"], spec["side"])
    color = spec["color"]
    scene = r.low_frequency_scene_color(side) if color else r.low_frequency_scene(side)
    truth = r.fov_crop(scene, mask.half_support)
    clean = r.blur_oversized_scene(scene, mask)
    mixing = r.ColorMixing(MIX_MATRIX) if color else None
    if color:
        clean = inputs.mix(MIX_MATRIX, clean)
    with open(os.path.join(out_dir, "summary.csv"), encoding="ascii") as fh:
        rows = fh.read().splitlines()[1:]
    cases = len(spec["rhos"]) * len(spec["bcs"]) * len(spec["methods"])
    _require(len(rows) == cases, f"summary has {len(rows)} rows, expected {cases}")
    for rho in spec["rhos"]:
        noisy, _ = r.add_noise(clean, r.NoiseSpec(rho, spec["seed"]))
        for bc in spec["bcs"]:
            op = r.BlurOperator(mask, r.BoundaryCondition(bc), truth.shape[-2:])
            for method in spec["methods"]:
                case = os.path.join(out_dir, f"{bc}_{method}_rho{rho:g}")
                _check_optimum(r, os.path.join(case, "curve.csv"), noisy, op,
                               mixing, method, truth, case)


def check_sweep(r, spec, out_path, result=None):
    """The curve's optimum is reproduced by one restore at that parameter."""
    g, _ = inputs.read_netpbm(spec["image"])
    truth, _ = inputs.read_netpbm(spec["reference"])
    op = r.BlurOperator(r.parse_psf_spec(spec["psf"]),
                        r.BoundaryCondition(spec["bc"]), g.shape[-2:])
    mixing = r.ColorMixing(MIX_MATRIX) if spec["color"] else None
    _check_optimum(r, out_path, g, op, mixing, spec["method"], truth, "sweep")


CHECKS = {
    "restore": check_restore,
    "blur": check_blur,
    "experiment": check_experiment,
    "sweep": check_sweep,
}


def check(r, request_class, out_path, result=None):
    """Raise CheckFailed unless out_path is a correct output of the class.

    result is the float restoration captured while a restore request ran.
    """
    CHECKS[request_class.kind](r, request_class.spec, out_path, result)
