"""The four workloads: request classes, their weights and their inputs.

Each workload is a fixed multiset of request classes. A class is one
`refocus` command line with fixed inputs, run in-process through
`cli.main`; its weight is how often it appears in one pass. Weights are
chosen so the median and the tail rank land inside one class, not on
the gap between two classes, which keeps both steady between runs.

Inputs are made from the workload seed by `inputs`, never by refocus.
The seed changes image content and noise, not image sizes, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import inputs

MIX = "0.7,0.2,0.1,0.25,0.5,0.25,0.15,0.1,0.75"
MIX_MATRIX = np.array([float(t) for t in MIX.split(",")]).reshape(3, 3)
GAUSS = "gaussian:7:2"
DISK = "disk:5:4.5"
EXP_GAUSS = "gaussian:3:1.5"
EXP_GAUSS_SMALL = "gaussian:2:1.0"
EXP_DISK = "disk:3:2.5"
SIZES = {"512": (512, 512), "1020": (1020, 1020), "1024": (1024, 1024),
         "768x2048": (768, 2048)}
RHO = 0.01


@dataclass
class RequestClass:
    """One command line; `{out}` in argv is replaced by the output path."""

    name: str
    weight: int
    kind: str
    argv: list
    out: str
    spec: dict = field(default_factory=dict)

    def command(self, out_path):
        return [out_path if arg == "{out}" else arg for arg in self.argv]


def mask_weights(psf_spec):
    """Mask weights for a psf spec, built without refocus."""
    head, q, p = psf_spec.split(":")
    q = int(q)
    offsets = np.arange(-q, q + 1)
    if head == "gaussian":
        g = np.exp(-0.5 * (offsets / float(p)) ** 2)
        w = np.outer(g, g)
    else:
        w = (np.add.outer(offsets**2, offsets**2) <= float(p) ** 2).astype(float)
    return w / w.sum()


# ------------------------------------------------------------ restore_large

# (name, weight, size, psf, bc, method, flag, value, color)
RESTORE = [
    ("r1020_ref_gau_mu", 1, "1020", GAUSS, "reflective", "tikhonov", "--mu", "1e-3", False),
    ("r1020_ref_disk_count", 1, "1020", DISK, "reflective", "tsd", "--count", "260100", False),
    ("r1020_ar_gau_thr", 2, "1020", GAUSS, "antireflective", "tsd", "--threshold", "0.05", False),
    ("r1020_ar_disk_mu", 2, "1020", DISK, "antireflective", "tikhonov", "--mu", "1e-3", False),
    ("r1024_ref_gau_thr", 1, "1024", GAUSS, "reflective", "tsd", "--threshold", "0.05", False),
    ("r1024_ref_disk_mu_rgb", 1, "1024", DISK, "reflective", "tikhonov", "--mu", "1e-3", True),
    ("r1024_ar_gau_mu", 1, "1024", GAUSS, "antireflective", "tikhonov", "--mu", "1e-3", False),
    ("r1024_ar_disk_count", 1, "1024", DISK, "antireflective", "tsd", "--count", "262144", False),
    ("r768_ref_gau_mu", 1, "768x2048", GAUSS, "reflective", "tikhonov", "--mu", "1e-3", False),
    ("r768_ref_disk_thr", 1, "768x2048", DISK, "reflective", "tsd", "--threshold", "0.05", False),
    ("r768_ar_gau_mu", 1, "768x2048", GAUSS, "antireflective", "tikhonov", "--mu", "1e-3", False),
    ("r768_ar_disk_mu", 1, "768x2048", DISK, "antireflective", "tikhonov", "--mu", "1e-3", False),
    ("r512_ref_gau_tsvd", 1, "512", GAUSS, "reflective", "tsvd", "--threshold", "0.05", False),
]


def build_restore_large(rng, work):
    """Blurred, noisy PGM/PPM frames, one per (size, gray or color).

    Every frame is blurred by GAUSS, as if all came from one camera; the
    disk classes restore the same frames under another PSF model, which
    costs the same work.
    """
    weights = mask_weights(GAUSS)
    q = weights.shape[0] // 2
    files = {}
    classes = []
    for name, weight, size, psf, bc, method, flag, value, color in RESTORE:
        shape = SIZES[size]
        key = (size, color)
        if key not in files:
            big = (shape[0] + 2 * q, shape[1] + 2 * q)
            scene = inputs.textured_scene(rng, big, 3 if color else 1)
            observed = inputs.observe(rng, scene, weights, RHO,
                                      MIX_MATRIX if color else None)
            path = os.path.join(work, f"frame_{size}{'_rgb' if color else ''}."
                                      f"{'ppm' if color else 'pgm'}")
            inputs.write_netpbm(path, observed)
            files[key] = path
        argv = ["restore", "--image", files[key], "--psf", psf, "--bc", bc,
                "--method", method, flag, value, "--out", "{out}"]
        if color:
            argv += ["--mix", MIX]
        classes.append(RequestClass(
            name, weight, "restore", argv, name + (".ppm" if color else ".pgm"),
            {"image": files[key], "psf": psf, "bc": bc, "method": method,
             "flag": flag, "value": float(value), "color": color,
             "shape": (3 if color else 1,) + shape}))
    return classes


# --------------------------------------------------------------- blur_large

# (name, weight, size, psf, bc, rho, color)
BLUR = [
    ("b1024_ref_disk", 9, "1024", DISK, "reflective", 0.0, False),
    ("b1020_ar_disk_noisy", 4, "1020", DISK, "antireflective", RHO, False),
    ("b768_per_disk_noisy", 1, "768x2048", DISK, "periodic", RHO, False),
    ("b1024_zero_gau", 1, "1024", GAUSS, "zero", 0.0, False),
    ("b1020_ref_disk_noisy_rgb", 1, "1020", DISK, "reflective", RHO, True),
]


def build_blur_large(rng, work, seed):
    """Textured scenes as PGM/PPM; blur outputs are 16-bit so noise is visible."""
    files = {}
    classes = []
    for name, weight, size, psf, bc, rho, color in BLUR:
        key = (size, color)
        if key not in files:
            scene = inputs.textured_scene(rng, SIZES[size], 3 if color else 1)
            path = os.path.join(work, f"scene_{size}{'_rgb' if color else ''}."
                                      f"{'ppm' if color else 'pgm'}")
            inputs.write_netpbm(path, scene)
            files[key] = path
        argv = ["blur", "--image", files[key], "--psf", psf, "--bc", bc,
                "--rho", repr(rho), "--seed", str(seed), "--maxval", "65535",
                "--out", "{out}"]
        if color:
            argv += ["--mix", MIX]
        classes.append(RequestClass(
            name, weight, "blur", argv, name + (".ppm" if color else ".pgm"),
            {"image": files[key], "psf": psf, "bc": bc, "rho": rho, "color": color,
             "shape": (3 if color else 1,) + SIZES[size]}))
    return classes


# -------------------------------------------------------------- experiments

# (name, weight, side, psf, methods, bcs, rhos)
EXPERIMENT_GRAY = [
    ("e64_gau_tsd", 14, 64, EXP_GAUSS, "tsd", "reflective,antireflective", "0.01"),
    ("e56_disk_tik", 4, 56, EXP_DISK, "tikhonov", "reflective,antireflective", "0.001"),
    ("e48_gau_tsvd", 1, 48, EXP_GAUSS, "tsvd", "reflective,antireflective", "0.001,0.01"),
    ("e80_disk_tsd", 1, 80, EXP_DISK, "tsd", "antireflective", "0.001"),
    ("e72_gau2_tik_tsd", 5, 72, EXP_GAUSS_SMALL, "tikhonov,tsd", "reflective", "0.01"),
]
EXPERIMENT_COLOR = [
    ("c48_gau_tsd", 29, 48, EXP_GAUSS, "tsd", "reflective,antireflective", "0.01"),
    ("c40_disk_tik", 3, 40, EXP_DISK, "tikhonov", "reflective,antireflective", "0.001"),
    ("c40_gau_tsvd", 1, 40, EXP_GAUSS, "tsvd", "reflective,antireflective", "0.001,0.01"),
    ("c64_disk_tsd", 1, 64, EXP_DISK, "tsd", "antireflective", "0.001"),
    ("c56_gau2_tik_tsd", 1, 56, EXP_GAUSS_SMALL, "tikhonov,tsd", "reflective", "0.01"),
]
# (name, weight, psf, bc, method, extra args)
SWEEP_GRAY = [
    ("s256_gau_tsd_ref", 3, EXP_GAUSS, "reflective", "tsd", ["--max-terms", "300"]),
    ("s256_disk_tik_ar", 3, EXP_DISK, "antireflective", "tikhonov", ["--mu-count", "12"]),
    ("s256_gau_tsvd_ar", 3, EXP_GAUSS, "antireflective", "tsvd", ["--max-terms", "300"]),
]
SWEEP_COLOR = [
    ("s128_gau_tsd_ref_rgb", 2, EXP_GAUSS, "reflective", "tsd", ["--max-terms", "300"]),
    ("s128_disk_tik_ar_rgb", 1, EXP_DISK, "antireflective", "tikhonov", ["--mu-count", "12"]),
    ("s128_gau_tsvd_ar_rgb", 2, EXP_GAUSS, "antireflective", "tsvd", ["--max-terms", "300"]),
]


def _build_experiments(rng, work, seed, table, sweeps, side, color):
    classes = []
    for name, weight, scene_side, psf, methods, bcs, rhos in table:
        overrides = [f"scene=sinusoids:{scene_side}x{scene_side}", f"psf={psf}",
                     f"method={methods}", f"bc={bcs}", f"rho={rhos}", f"seed={seed}"]
        if color:
            overrides.append(f"mix={MIX}")
        argv = ["experiment"]
        for item in overrides:
            argv += ["--set", item]
        argv += ["--out", "{out}"]
        classes.append(RequestClass(
            name, weight, "experiment", argv, name,
            {"side": scene_side, "psf": psf, "methods": methods.split(","),
             "bcs": bcs.split(","), "rhos": [float(r) for r in rhos.split(",")],
             "seed": seed, "color": color,
             "shape": (3 if color else 1, scene_side, scene_side)}))
    files = {}
    channels = 3 if color else 1
    suffix = "ppm" if color else "pgm"
    for name, weight, psf, bc, method, extra in sweeps:
        if psf not in files:
            weights = mask_weights(psf)
            q = weights.shape[0] // 2
            scene = inputs.textured_scene(rng, (side + 2 * q, side + 2 * q), channels)
            truth = scene[..., q:-q, q:-q]
            observed = inputs.observe(rng, scene, weights, RHO,
                                      MIX_MATRIX if color else None)
            tag = psf.split(":")[0] + str(q)
            image = os.path.join(work, f"sweep_{tag}.{suffix}")
            reference = os.path.join(work, f"truth_{tag}.{suffix}")
            inputs.write_netpbm(image, observed, 65535)
            inputs.write_netpbm(reference, truth, 65535)
            files[psf] = (image, reference)
        image, reference = files[psf]
        argv = ["sweep", "--image", image, "--reference", reference, "--psf", psf,
                "--bc", bc, "--method", method, *extra, "--out", "{out}"]
        if color:
            argv += ["--mix", MIX]
        spec = {"image": image, "reference": reference, "psf": psf, "bc": bc,
                "method": method, "color": color, "shape": (channels, side, side)}
        classes.append(RequestClass(name, weight, "sweep", argv, name + ".csv", spec))
    return classes


def build(workload, seed, work):
    """Make every input of a workload under `work`; return its classes."""
    rng = np.random.default_rng(seed)
    if workload == "restore_large":
        return build_restore_large(rng, work)
    if workload == "blur_large":
        return build_blur_large(rng, work, seed)
    if workload == "experiment_gray":
        return _build_experiments(rng, work, seed, EXPERIMENT_GRAY, SWEEP_GRAY,
                                  256, False)
    if workload == "experiment_color":
        return _build_experiments(rng, work, seed, EXPERIMENT_COLOR, SWEEP_COLOR,
                                  128, True)
    raise ValueError(f"unknown workload {workload!r}")
