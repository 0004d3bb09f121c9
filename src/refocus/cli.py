"""Command line front end.

Verbs: blur an image, restore a blurred image with one filter setting
(exactly one of --count, --threshold and --mu, which argparse
enforces), sweep a filter parameter against a reference, and run a
full experiment from a config file. Each verb only dispatches to the
library. main returns the exit code and never raises SystemExit: 0 on
success, 2 for usage errors and configuration or file format problems,
3 for numeric failures. Each verb runs with one scipy.fft worker per CPU
the process may run on, so the large transforms use them all; the
outputs are the same bytes at any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import scipy.fft

from .color import cross_channel_blur
from .errors import ConfigError
from .experiment import (
    load_config,
    parse_mix_spec,
    parse_psf_spec,
    resolve_mixing,
    run_experiment,
)
from .filtering import (
    DEFAULT_MU_RANGE,
    METHODS,
    Tikhonov,
    TruncateByCount,
    TruncateByThreshold,
    format_optimum,
    log_mu_grid,
    restore,
    save_curve_csv,
    sweep,
)
from .imageio import _MAXVALS, _is_image, read_by_suffix, write_by_suffix
from .metrics import NoiseSpec, add_noise
from .operators import BlurOperator, BoundaryCondition

_BC_NAMES = tuple(bc.value for bc in BoundaryCondition)


def _prepare(args, out=None):
    """Shared setup: load the image, build the operator and the mixing.

    An output file (args.out) that names a directory, or whose directory
    does not exist, raises ConfigError before the image is read. out is
    the image or matrix file the verb writes, if any. An output suffix it
    cannot write, or color data bound for a .txt matrix, raises
    ConfigError before any filter work.
    """
    if os.path.isdir(args.out):
        raise ConfigError(f"the output file {args.out} is a directory")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"no directory to write the output file {args.out} into")
    matrix_out = out is not None and not _is_image(out)
    image = read_by_suffix(args.image)
    if matrix_out and image.ndim == 3:
        raise ConfigError(f"cannot write color data to the matrix file {out}")
    mask = parse_psf_spec(args.psf)
    op = BlurOperator(mask, BoundaryCondition(args.bc), image.shape[-2:])
    mix = None if args.mix is None else parse_mix_spec(args.mix)
    return image, op, resolve_mixing(image, mix)


def _cmd_blur(args):
    noise = NoiseSpec(args.rho, args.seed)
    image, op, mixing = _prepare(args, args.out)
    blurred = cross_channel_blur(image, mixing, op)
    del image  # free the input before noise and quantization allocate
    if noise.rho > 0:
        blurred, _snr = add_noise(blurred, noise)
    write_by_suffix(args.out, blurred, args.maxval)
    print(f"wrote {args.out}")
    return 0


def _cmd_restore(args):
    image, op, mixing = _prepare(args, args.out)
    # argparse lets exactly one setting through; restore rejects a method mismatch
    given = {TruncateByCount: args.count, TruncateByThreshold: args.threshold, Tikhonov: args.mu}
    spec = next(spec_type(value) for spec_type, value in given.items() if value is not None)
    result = restore(image, op, args.method, spec, mixing)
    del image  # free the input before the writer allocates its raster
    write_by_suffix(args.out, result.image, args.maxval)
    print(
        f"wrote {args.out} method={result.method} parameter={result.parameter:g} "
        f"kept={result.count_kept} skipped_zero={result.skipped_zero}"
    )
    return 0


def _cmd_sweep(args):
    image, op, mixing = _prepare(args)
    reference = read_by_suffix(args.reference)
    grid = log_mu_grid(args.mu_lo, args.mu_hi, args.mu_count)
    curve = sweep(image, op, args.method, reference, mixing, args.max_terms, grid)
    save_curve_csv(curve, args.out)
    print(
        f"wrote {args.out} best_param={format_optimum(curve)} "
        f"best_rre={curve.best_rre:.6e}"
    )
    return 0


def _cmd_experiment(args):
    overrides = list(args.set)
    if args.out is not None:
        overrides.append(f"out={args.out}")
    out = run_experiment(load_config(args.config, overrides))
    print(f"wrote {out / 'summary.csv'}")
    return 0


def _add_common(parser, with_method):
    parser.add_argument("--image", required=True, help="input image (.pgm/.ppm/.txt)")
    parser.add_argument("--psf", required=True,
                        help="identity | gaussian:q:sigma | disk:q:radius | file:path")
    parser.add_argument("--bc", required=True, choices=_BC_NAMES,
                        help="boundary rule")
    parser.add_argument("--mix", default=None,
                        help="9 comma separated mixing entries for color images")
    parser.add_argument("--out", required=True, help="output file")
    if with_method:
        parser.add_argument("--method", required=True, choices=METHODS)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="refocus",
        description="Matrix-free image deblurring with boundary-aware spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    blur = sub.add_parser("blur", help="blur an image, optionally adding noise")
    _add_common(blur, with_method=False)
    blur.add_argument("--rho", type=float, default=0.0,
                      help="relative noise level (default 0)")
    blur.add_argument("--seed", type=int, default=0, help="noise seed")
    blur.add_argument("--maxval", type=int, default=255, choices=_MAXVALS)
    blur.set_defaults(func=_cmd_blur)

    restore = sub.add_parser("restore", help="restore with one filter setting")
    _add_common(restore, with_method=True)
    setting = restore.add_mutually_exclusive_group(required=True)
    setting.add_argument("--count", type=int,
                         help="keep the k spectrally largest coefficients")
    setting.add_argument("--threshold", type=float,
                         help="keep coefficients with spectral magnitude >= delta")
    setting.add_argument("--mu", type=float, help="Tikhonov regularization weight")
    restore.add_argument("--maxval", type=int, default=255, choices=_MAXVALS)
    restore.set_defaults(func=_cmd_restore)

    sweep = sub.add_parser("sweep", help="error curve against a reference image")
    _add_common(sweep, with_method=True)
    sweep.add_argument("--reference", required=True,
                       help="ground truth image the error is measured against")
    sweep.add_argument("--max-terms", type=int, default=None,
                       help="cap the number of truncation steps")
    sweep.add_argument("--mu-lo", type=float, default=DEFAULT_MU_RANGE[0])
    sweep.add_argument("--mu-hi", type=float, default=DEFAULT_MU_RANGE[1])
    sweep.add_argument("--mu-count", type=int, default=DEFAULT_MU_RANGE[2])
    sweep.set_defaults(func=_cmd_sweep)

    experiment = sub.add_parser("experiment", help="run a config-driven experiment")
    experiment.add_argument("--config", default=None, help="flat key=value file")
    experiment.add_argument("--set", action="append", default=[],
                            metavar="KEY=VALUE", help="override a config key")
    experiment.add_argument("--out", default=None, help="output directory override")
    experiment.set_defaults(func=_cmd_experiment)
    return parser


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no affinity call
        return os.cpu_count() or 1


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and on a usage error
        return exc.code
    try:
        with scipy.fft.set_workers(_cpus()):
            return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
