"""Digest every output of a fixed set of refocus requests.

Usage: python tools/output_digest.py

Runs fixed blur, restore, sweep and experiment requests through
refocus.cli.main in a temporary directory:

* blurs under all four boundary rules, gray and color;
* restores and sweeps under both spectral rules, gray and color, with
  every method, and a restore of every (method, setting flag) pair the
  restore verb accepts: tsd and tsvd by --count and by --threshold,
  tikhonov by --mu;
* under the periodic and zero rules, which have no eigenbasis, tsvd
  restores of the gray and the color blur by --count 90 and by
  --threshold 0.05, and tsvd sweeps of them with --max-terms 60: the
  plans that decompose the dense 1-D factor matrices;
* one anti-reflective side above 514, so the sine transform of its
  interior takes the chirp-convolution path;
* a gray image with both sides above 514, and a 512 x 514 one, each
  blurred and restored by tsd and by Tikhonov under both spectral
  rules: every transform of their restores holds at least 2^18 values,
  so it runs on threads when the process may use more than one CPU,
  the 512 x 514 ones on the direct sine path (lines of 510-512). So
  running this script pinned to one CPU (taskset -c 0) and unpinned
  checks that threads leave the bytes unchanged;
* noisy disk blurs of that gray image under all four rules, and a noisy
  color blur of a 3 x 520 x 516 image: each blur and noise field is
  above the size from which they run on threads. That color blur is
  restored by Tikhonov with --mix under both spectral rules, the
  one-weight color path that damps in place, at a size whose
  transforms run on threads;
* a gray 40 x 40 image and a 3 x 40 x 40 color one (with --mix),
  blurred under the reflective rule by disk:2:3, a 5 x 5 box: a
  separable mask whose symbol has negative lobes, so its cosine tsvd
  spectrum holds negative values. Each is restored by tsvd with
  --count 401, a cut that splits an exact (i, j) / (j, i) tie, and
  with --threshold 0.05, and swept by tsvd over every count;
* a mask file written by save_mask and read back through --psf
  file:<path>, in a blur and a restore under both spectral rules;
* a disk blur, and a color restore, a tsd sweep and a Tikhonov sweep
  without --mix;
* a gray and a color experiment over both spectral rules, every method
  and two noise levels.

Prints one line, "<files> <sha256>": the number of files the requests
made, and one sha256 over each file's relative path and bytes in sorted
path order. The standard output of every request counts as one more
file. Two builds that print the same line wrote the same bytes.

refocus is imported from the Python path, so
PYTHONPATH=<checkout>/src digests that checkout. Nothing is written
into the checkout. Standard library, numpy and refocus only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import refocus as r
from refocus.cli import main as refocus_main

PSF = "gaussian:2:1.1"
BOX = "disk:2:3"  # a 5 x 5 box: separable, with negative symbol lobes
MASK_FILE = "mask.txt"
MIX = "0.7,0.2,0.1,0.25,0.5,0.25,0.15,0.1,0.75"
SPECTRAL = ("reflective", "antireflective")
RULES = SPECTRAL + ("periodic", "zero")
# per method: the filter setting of a restore and the cap of a sweep
FILTERS = {
    "tsd": ["--count", "150"],
    "tsvd": ["--count", "90"],
    "tikhonov": ["--mu", "1e-3"],
}
SWEEPS = {"tsd": [], "tsvd": ["--max-terms", "60"], "tikhonov": ["--mu-count", "12"]}


def _inputs():
    """Write the reference images; return [(name, path, mix arguments)]."""
    gray = r.low_frequency_scene((24, 20)) + 0.05 * r.standard_normal_field(1, (24, 20))
    r.write_matrix("gray.txt", np.clip(gray, 0.0, 1.0))
    r.write_image("color.ppm", r.low_frequency_scene_color((22, 18)), 65535)
    # an anti-reflective interior of 514: one past the direct sine limit
    r.write_matrix("long.txt", r.low_frequency_scene((516, 7)))
    r.write_matrix("large.txt", r.low_frequency_scene((520, 516)))
    r.write_matrix("band.txt", r.low_frequency_scene((512, 514)))
    r.write_image("large_color.ppm", r.low_frequency_scene_color((520, 516)), 65535)
    r.write_matrix("box.txt", r.low_frequency_scene((40, 40)))
    r.write_image("box_color.ppm", r.low_frequency_scene_color((40, 40)), 65535)
    r.save_mask(r.gaussian_mask((2, 1), (1.3, 0.7)), MASK_FILE)
    return [
        ("gray", "gray.txt", []),
        ("color", "color.ppm", ["--mix", MIX]),
        ("long", "long.txt", []),
    ]


def _requests(inputs):
    """Every request on the inputs, as CLI argument lists, in a fixed order."""
    requests = []
    for name, path, mix in inputs:
        suffix = Path(path).suffix
        rules = RULES
        if name == "long":
            rules = ("antireflective",)
        for bc in rules:
            blurred = f"blur_{name}_{bc}{suffix}"
            common = ["--psf", PSF, "--bc", bc] + mix
            requests.append(["blur", "--image", path, "--out", blurred, "--rho", "0.01",
                             "--seed", "3", "--maxval", "65535"] + common)
            # the averaging rules have no eigenbasis: tsvd alone, on dense factor SVDs
            for method in FILTERS if bc in SPECTRAL else ["tsvd"]:
                data = ["--image", blurred, "--method", method] + common
                requests.append(["restore", "--out", f"restore_{name}_{bc}_{method}{suffix}",
                                 "--maxval", "65535"] + FILTERS[method] + data)
                requests.append(["sweep", "--out", f"sweep_{name}_{bc}_{method}.csv",
                                 "--reference", path] + SWEEPS[method] + data)
            if bc not in SPECTRAL:
                requests.append(["restore", "--out", f"threshold_tsvd_{name}_{bc}{suffix}",
                                 "--maxval", "65535", "--threshold", "0.05"] + data)
        requests.append(["restore", "--image", f"blur_{name}_antireflective{suffix}",
                         "--out", f"threshold_{name}{suffix}", "--method", "tsd",
                         "--threshold", "0.05", "--psf", PSF, "--bc", "antireflective"] + mix)
        if name != "long":
            requests.append(["restore", "--image", f"blur_{name}_reflective{suffix}",
                             "--out", f"threshold_tsvd_{name}{suffix}", "--method", "tsvd",
                             "--threshold", "0.05", "--psf", PSF, "--bc", "reflective"] + mix)
    for name in ("large", "band"):
        for bc in SPECTRAL:
            common = ["--psf", PSF, "--bc", bc]
            blurred = f"blur_{name}_{bc}.txt"
            requests.append(["blur", "--image", f"{name}.txt", "--out", blurred, "--rho",
                             "0.01", "--seed", "3"] + common)
            for method in ("tsd", "tikhonov"):
                requests.append(["restore", "--image", blurred, "--out",
                                 f"restore_{name}_{bc}_{method}.txt", "--method", method]
                                + FILTERS[method] + common)
    for bc in RULES:
        requests.append(["blur", "--image", "large.txt", "--out", f"blur_large_disk_{bc}.txt",
                         "--psf", "disk:5:4.5", "--bc", bc, "--rho", "0.01", "--seed", "5"])
    requests.append(["blur", "--image", "large_color.ppm", "--out", "blur_large_color.ppm",
                     "--psf", PSF, "--bc", "reflective", "--mix", MIX, "--rho", "0.01",
                     "--seed", "6", "--maxval", "65535"])
    for bc in SPECTRAL:
        requests.append(["restore", "--image", "blur_large_color.ppm", "--out",
                         f"restore_large_color_{bc}.ppm", "--method", "tikhonov", "--maxval",
                         "65535", "--psf", PSF, "--bc", bc, "--mix", MIX] + FILTERS["tikhonov"])
    boxes = (("box", "box.txt", []), ("box_color", "box_color.ppm", ["--mix", MIX]))
    for name, path, mix in boxes:
        suffix = Path(path).suffix
        common = ["--psf", BOX, "--bc", "reflective"] + mix
        blurred = f"blur_{name}{suffix}"
        requests.append(["blur", "--image", path, "--out", blurred, "--rho", "0.01", "--seed",
                         "3", "--maxval", "65535"] + common)
        data = ["--image", blurred, "--method", "tsvd"] + common
        for tag, setting in (("count", "401"), ("threshold", "0.05")):
            requests.append(["restore", "--out", f"restore_{name}_{tag}{suffix}", "--maxval",
                             "65535", f"--{tag}", setting] + data)
        requests.append(["sweep", "--out", f"sweep_{name}.csv", "--reference", path] + data)
    for bc in SPECTRAL:
        common = ["--psf", f"file:{MASK_FILE}", "--bc", bc]
        blurred = f"blur_file_{bc}.txt"
        requests.append(["blur", "--image", "gray.txt", "--out", blurred] + common)
        requests.append(["restore", "--image", blurred, "--out", f"restore_file_{bc}.txt",
                         "--method", "tsd", "--count", "200"] + common)
    requests.append(["blur", "--image", "gray.txt", "--out", "blur_disk.pgm", "--psf",
                     "disk:2:1.5", "--bc", "reflective", "--maxval", "65535"])
    nomix = ["--image", "blur_color_reflective.ppm", "--psf", PSF, "--bc", "reflective"]
    requests.append(["restore", "--out", "restore_color_nomix.ppm", "--method", "tikhonov",
                     "--mu", "1e-3"] + nomix)
    for method in ("tsd", "tikhonov"):
        requests.append(["sweep", "--out", f"sweep_color_nomix_{method}.csv", "--method",
                         method, "--reference", "color.ppm"] + SWEEPS[method] + nomix)
    for name, extra in (("gray", []), ("color", ["--set", f"mix={MIX}"])):
        sets = ["scene=sinusoids:40x36", f"psf={PSF}", "bc=reflective,antireflective",
                "method=tsd,tsvd,tikhonov", "rho=0.01,0.05", "seed=2", "mu_count=10"]
        requests.append(["experiment", "--out", f"experiment_{name}"]
                        + [arg for item in sets for arg in ("--set", item)] + extra)
    return requests


def digest(root):
    """The file count and the sha256 of every file under root."""
    sha = hashlib.sha256()
    files = sorted(p for p in Path(root).rglob("*") if p.is_file())
    for path in files:
        data = path.read_bytes()
        name = path.relative_to(root).as_posix().encode()
        sha.update(b"%d:%s%d:" % (len(name), name, len(data)))
        sha.update(data)
    return len(files), sha.hexdigest()


def main():
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            stdout = io.StringIO()
            for argv in _requests(_inputs()):
                with contextlib.redirect_stdout(stdout):
                    code = refocus_main(argv)
                if code != 0:
                    raise SystemExit(f"refocus {' '.join(argv)} exited {code}")
            Path("stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
            files, sha = digest(work)
        finally:
            os.chdir(start)
    print(f"{files} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
