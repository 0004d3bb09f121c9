"""End to end deblurring experiments driven by flat text configs.

An experiment builds a ground truth from an oversized scene (so the
blurred observation involves no boundary model at all), adds scaled
white noise, runs parameter sweeps for every requested boundary rule
and filter, and writes restored images, error curves, Picard data and
a summary table under one output directory. Every artifact is written
deterministically: rerunning the same config reproduces identical
bytes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .color import ColorMixing, identity_mixing
from .errors import ConfigError, SizeMismatchError
from .filtering import (
    METHODS,
    Tikhonov,
    TruncateByCount,
    _mix,
    restore,
    save_curve_csv,
    sweep,
)
from .imageio import read_image, read_matrix, write_image
from .metrics import NoiseSpec, add_noise, picard_data, save_picard_csv
from .operators import BlurOperator, BoundaryCondition, blur_oversized_scene, fov_crop
from .psf import (
    gaussian_mask,
    identity_mask,
    load_mask,
    out_of_focus_mask,
    separable_factors,
)
from .spectrum import eigen_grid_for

_MAXVALS = (255, 65535)
_KNOWN_KEYS = frozenset(
    {
        "scene",
        "psf",
        "bc",
        "method",
        "rho",
        "seed",
        "out",
        "mix",
        "mu_lo",
        "mu_hi",
        "mu_count",
        "max_terms",
        "maxval",
    }
)


def low_frequency_scene(shape):
    """Smooth synthetic scene on [0, 1]^2, values inside (0, 1).

    A sum of two slow cosines plus a faint diagonal ripple; the scene
    varies all the way to its borders, so cropping a field of view out
    of it leaves genuinely unknown surroundings.
    """
    return _scene_channel(shape, 1.0, 0.0)


def low_frequency_scene_color(shape):
    """Three-channel variant with per-channel amplitude and phase shifts."""
    return np.stack(
        [
            _scene_channel(shape, amp, phase)
            for amp, phase in ((1.0, 0.0), (0.92, 0.7), (0.84, 1.4))
        ]
    )


def _scene_channel(shape, amp, phase):
    n1, n2 = int(shape[0]), int(shape[1])
    if n1 < 1 or n2 < 1:
        raise ConfigError(f"scene shape must be positive, got {shape}")
    u = np.linspace(0.0, 1.0, n1)[:, None]
    v = np.linspace(0.0, 1.0, n2)[None, :]
    return (
        0.5
        + amp * 0.28 * (np.cos(3.2 * (u - 0.5)) - 0.6)
        + amp * 0.238 * (np.cos(2.88 * (v - 0.5)) - 0.6)
        + 0.03 * np.sin(2.8 * (u - 0.5) + 1.96 * (v - 0.5) + 0.3 + phase)
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    scene and psf keep their textual specs; they are resolved to arrays
    when the experiment runs, after all cheap validation has passed.
    """

    scene: str
    psf: str
    bcs: tuple = (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTIREFLECTIVE)
    methods: tuple = ("tsd",)
    rhos: tuple = (0.01,)
    seed: int = 0
    out: str = "results"
    mix: ColorMixing | None = None
    mu_lo: float = 1e-8
    mu_hi: float = 1.0
    mu_count: int = 40
    max_terms: int | None = None
    maxval: int = 255

    def __post_init__(self):
        if not self.scene:
            raise ConfigError("scene must be set")
        if not self.psf:
            raise ConfigError("psf must be set")
        if not self.bcs:
            raise ConfigError("at least one boundary rule is required")
        allowed = (BoundaryCondition.REFLECTIVE, BoundaryCondition.ANTIREFLECTIVE)
        for bc in self.bcs:
            if bc not in allowed:
                raise ConfigError(
                    "experiment restoration supports reflective and "
                    f"antireflective boundaries, got {bc!r}"
                )
        if not self.methods:
            raise ConfigError("at least one method is required")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}, expected {METHODS}")
        if not self.rhos:
            raise ConfigError("at least one noise level is required")
        for rho in self.rhos:
            if not (np.isfinite(rho) and rho >= 0):
                raise ConfigError(f"rho must be finite and >= 0, got {rho}")
        try:
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ConfigError(f"seed must be an int, got {self.seed!r}") from None
        if not (self.mu_lo > 0 and self.mu_hi > self.mu_lo):
            raise ConfigError("mu range must satisfy 0 < mu_lo < mu_hi")
        if self.mu_count < 1:
            raise ConfigError("mu_count must be >= 1")
        if self.max_terms is not None and self.max_terms < 1:
            raise ConfigError("max_terms must be >= 1")
        if self.maxval not in _MAXVALS:
            raise ConfigError(f"maxval must be one of {_MAXVALS}")

    def mu_grid(self):
        return np.logspace(
            np.log10(self.mu_lo), np.log10(self.mu_hi), self.mu_count
        )


def _parse_tokens(value):
    tokens = [tok.strip() for tok in value.split(",")]
    if any(not tok for tok in tokens):
        raise ConfigError(f"empty item in list {value!r}")
    return tokens


def _parse_int(value, what):
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _parse_float(value, what):
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _parse_pair(value, what, cast):
    parts = value.split(",")
    if len(parts) == 1:
        item = cast(parts[0], what)
        return item, item
    if len(parts) == 2:
        return cast(parts[0], what), cast(parts[1], what)
    raise ConfigError(f"{what} must be one or two comma separated values")


def read_config_file(path):
    """Parse a flat key=value config file into a dict of strings.

    Blank lines and '#' comments are ignored; keys may not repeat.
    """
    raw = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config(path=None, overrides=()):
    """Build an ExperimentConfig from a config file plus overrides.

    Parameters
    ----------
    path : str or Path, optional
        Flat key=value file; may be omitted if the overrides carry
        every required key.
    overrides : iterable of str
        Extra "key=value" assignments applied after the file.
    """
    raw = read_config_file(path) if path is not None else {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("scene", "psf"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    kwargs = {"scene": raw["scene"], "psf": raw["psf"]}
    if "bc" in raw:
        bcs = []
        for token in _parse_tokens(raw["bc"]):
            try:
                bcs.append(BoundaryCondition(token))
            except ValueError as exc:
                names = ", ".join(bc.value for bc in BoundaryCondition)
                raise ConfigError(
                    f"unknown boundary rule {token!r}, expected one of {names}"
                ) from exc
        kwargs["bcs"] = tuple(bcs)
    if "method" in raw:
        kwargs["methods"] = tuple(_parse_tokens(raw["method"]))
    if "rho" in raw:
        kwargs["rhos"] = tuple(
            _parse_float(tok, "rho") for tok in _parse_tokens(raw["rho"])
        )
    if "seed" in raw:
        kwargs["seed"] = _parse_int(raw["seed"], "seed")
    if "out" in raw:
        kwargs["out"] = raw["out"]
    if "mix" in raw:
        kwargs["mix"] = parse_mix_spec(raw["mix"])
    if "mu_lo" in raw:
        kwargs["mu_lo"] = _parse_float(raw["mu_lo"], "mu_lo")
    if "mu_hi" in raw:
        kwargs["mu_hi"] = _parse_float(raw["mu_hi"], "mu_hi")
    if "mu_count" in raw:
        kwargs["mu_count"] = _parse_int(raw["mu_count"], "mu_count")
    if "max_terms" in raw:
        kwargs["max_terms"] = _parse_int(raw["max_terms"], "max_terms")
    if "maxval" in raw:
        kwargs["maxval"] = _parse_int(raw["maxval"], "maxval")
    return ExperimentConfig(**kwargs)


def parse_mix_spec(spec):
    """Build a ColorMixing from 9 comma separated row-major entries."""
    entries = [_parse_float(tok, "mix entry") for tok in _parse_tokens(spec)]
    if len(entries) != 9:
        raise ConfigError("mix must hold 9 comma separated row-major entries")
    try:
        return ColorMixing(np.array(entries).reshape(3, 3))
    except ValueError as exc:
        raise ConfigError(f"invalid mixing matrix: {exc}") from exc


def parse_psf_spec(spec):
    """Build a mask from a textual spec.

    Accepted forms: "identity", "gaussian:q:sigma", "disk:q:radius",
    "file:path". q and sigma may be single values or "a,b" pairs.
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "identity":
            if rest:
                raise ConfigError("identity psf takes no arguments")
            return identity_mask()
        if head == "gaussian":
            q_part, sep, s_part = rest.partition(":")
            if not sep:
                raise ConfigError("gaussian psf needs gaussian:q:sigma")
            half = _parse_pair(q_part, "gaussian half support", _parse_int)
            sigma = _parse_pair(s_part, "gaussian sigma", _parse_float)
            return gaussian_mask(half, sigma)
        if head == "disk":
            q_part, sep, r_part = rest.partition(":")
            if not sep:
                raise ConfigError("disk psf needs disk:q:radius")
            half = _parse_pair(q_part, "disk half support", _parse_int)
            return out_of_focus_mask(half, _parse_float(r_part, "disk radius"))
        if head == "file":
            if not rest:
                raise ConfigError("file psf needs file:path")
            mask, _raw_sum = load_mask(rest)
            return mask
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid psf spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown psf spec {spec!r}")


def _resolve_scene(config):
    spec = config.scene
    if spec.startswith("sinusoids:"):
        dims = spec.split(":", 1)[1]
        parts = dims.split("x")
        if len(parts) != 2:
            raise ConfigError(f"sinusoids scene needs sinusoids:HxW, got {spec!r}")
        shape = tuple(_parse_int(p, "scene dimension") for p in parts)
        if config.mix is not None:
            return low_frequency_scene_color(shape)
        return low_frequency_scene(shape)
    suffix = Path(spec).suffix.lower()
    if suffix in (".pgm", ".ppm"):
        return read_image(spec)
    if suffix == ".txt":
        return read_matrix(spec)
    raise ConfigError(
        f"scene {spec!r} must be sinusoids:HxW or a .pgm/.ppm/.txt file"
    )


def _run_case(g, op, mixing, method, f_true, config):
    """Sweep one (data, operator, method) case, restore at the optimum."""
    curve = sweep(g, op, method, f_true, mixing, config.max_terms, config.mu_grid())
    if method == "tikhonov":
        best = Tikhonov(float(curve.best_param))
    else:
        best = TruncateByCount(int(curve.best_param))
    return curve, restore(g, op, method, best, mixing)


def run_experiment(config):
    """Run every (rho, boundary rule, method) combination of a config.

    Builds the ground truth as the central crop of an oversized scene
    and the observation as the exact blur of that scene (mixed across
    channels when a mixing matrix is set), so no boundary model leaks
    into the data. Each combination gets a directory with the sweep
    curve, the Picard data of the noisy observation, and the restored
    image at the optimal parameter; a summary table collects the
    optima.

    Returns
    -------
    Path
        The output directory, containing summary.csv.
    """
    mask = parse_psf_spec(config.psf)
    scene = _resolve_scene(config)
    color = scene.ndim == 3
    mixing = config.mix
    if color and mixing is None:
        mixing = identity_mixing()
    if not color and config.mix is not None:
        raise ConfigError("mix was set but the scene is grayscale")
    try:
        f_true = fov_crop(scene, mask.half_support)
    except SizeMismatchError as exc:
        raise ConfigError(f"scene too small for the psf margins: {exc}") from None
    shape = f_true.shape[-2:]
    ops = {bc: BlurOperator(mask, bc, shape) for bc in config.bcs}
    for op in ops.values():
        eigen_grid_for(op)
    if "tsvd" in config.methods:
        separable_factors(mask)

    g_clean = blur_oversized_scene(scene, mask)
    if color:
        g_clean = _mix(mixing.matrix, g_clean)

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rho in config.rhos:
        noisy, _snr = add_noise(g_clean, NoiseSpec(rho, config.seed))
        for bc in config.bcs:
            op = ops[bc]
            magnitudes, coefs = picard_data(noisy, op)
            for method in config.methods:
                curve, restored = _run_case(noisy, op, mixing, method, f_true, config)
                subdir = out / f"{bc.value}_{method}_rho{rho:g}"
                subdir.mkdir(parents=True, exist_ok=True)
                save_curve_csv(curve, subdir / "curve.csv")
                save_picard_csv(subdir / "picard.csv", magnitudes, coefs)
                name = "restored.ppm" if color else "restored.pgm"
                write_image(subdir / name, restored.image, config.maxval)
                rows.append((bc.value, method, rho, curve, restored))

    with open(out / "summary.csv", "w", encoding="ascii") as fh:
        fh.write("bc,method,rho,optimum_param,rre\n")
        for bc_name, method, rho, curve, restored in rows:
            if method == "tikhonov":
                param = f"{curve.best_param:.6e}"
            else:
                param = str(int(curve.best_param))
            fh.write(
                f"{bc_name},{method},{rho:.6e},{param},{curve.best_rre:.6e}\n"
            )
    return out
