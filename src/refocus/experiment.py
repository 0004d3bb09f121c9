"""End to end deblurring experiments driven by flat text configs.

An experiment builds a ground truth from an oversized scene (so the
blurred observation involves no boundary model at all), adds scaled
white noise, runs parameter sweeps for every requested boundary rule
and filter, and writes restored images, error curves, Picard data and
a summary table under one output directory. Every artifact is written
deterministically: rerunning the same config reproduces identical
bytes.

This module parses configs, builds the data and writes the files; the
filter core decides everything about the methods. Its _run_plans
builds the plans of a run, and _sweep sweeps each case and hands back
a restore of the curve's optimum from the sweep's own filter state.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .color import ColorMixing, identity_mixing
from .errors import ConfigError, SizeMismatchError, _check_int, _check_real
from .filtering import (
    DEFAULT_MU_RANGE,
    METHODS,
    _check_max_terms,
    _mix,
    _run_plans,
    _sweep,
    format_optimum,
    log_mu_grid,
    save_curve_csv,
)
from .imageio import _check_maxval, _utf8_text, read_by_suffix, write_image
from .metrics import NoiseSpec, _picard_data, add_noise, save_picard_csv
from .operators import (
    _SYMMETRIC_RULES, BlurOperator, BoundaryCondition, _check_shape, blur_oversized_scene,
    fov_crop,
)
from .psf import gaussian_mask, identity_mask, load_mask, out_of_focus_mask

# the boundary rules an experiment restores under, as named in messages
_RULES = "one of " + ", ".join(rule.value for rule in _SYMMETRIC_RULES)


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
    n1, n2 = _check_shape(shape)
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
    mu_lo: float = DEFAULT_MU_RANGE[0]
    mu_hi: float = DEFAULT_MU_RANGE[1]
    mu_count: int = DEFAULT_MU_RANGE[2]
    max_terms: int | None = None
    maxval: int = 255

    def __post_init__(self):
        for name in ("scene", "psf", "bcs", "methods", "rhos"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be set, got {getattr(self, name)!r}")
        for bc in self.bcs:
            if bc not in _SYMMETRIC_RULES:
                raise ConfigError(f"bc must be a BoundaryCondition member, {_RULES}, got {bc!r}")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}, expected {METHODS}")
        try:
            for rho in self.rhos:
                _check_real(rho, "rho", strict=False)
            for name in ("seed", "mu_count"):
                object.__setattr__(self, name, _check_int(getattr(self, name), name))
            object.__setattr__(self, "maxval", _check_maxval(self.maxval))
            self.mu_grid()
            object.__setattr__(self, "max_terms", _check_max_terms(self.max_terms))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        cases = [_case_names(b, m, r) for b in self.bcs for m in self.methods for r in self.rhos]
        for names in zip(*cases):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ConfigError(f"bc, method or rho repeats an output name: {repeated}")

    def mu_grid(self):
        return log_mu_grid(self.mu_lo, self.mu_hi, self.mu_count)


def _case_names(bc, method, rho):
    """A case's directory name and its key in the summary table."""
    return f"{bc.value}_{method}_rho{rho:g}", f"{bc.value},{method},{rho:.6e}"


def _cast(cast, noun):
    """A token parser: cast(token), or a ConfigError naming the key and token."""

    def parse(token, what):
        try:
            return cast(token)
        except ValueError as exc:
            raise ConfigError(f"{what} must be {noun}, got {token!r}") from exc

    return parse


_int = _cast(int, "an integer")
_float = _cast(float, "a number")
_bc = _cast(BoundaryCondition, _RULES)


def _parse_pair(value, what, parse):
    """One or two comma separated items; a single item stands for both."""
    items = _each(parse)(value, what)
    if len(items) > 2:
        raise ConfigError(f"{what} must be one or two comma separated values, got {value!r}")
    return items if len(items) == 2 else items * 2


def _text(value, what):
    return value


def _each(parse):
    """A parser of comma separated lists whose items each go through parse."""

    def parse_list(value, what):
        tokens = [tok.strip() for tok in value.split(",")]
        if any(not tok for tok in tokens):
            raise ConfigError(f"{what} has an empty item in {value!r}")
        return tuple(parse(tok, what) for tok in tokens)

    return parse_list


def parse_mix_spec(spec):
    """Build a ColorMixing from 9 comma separated row-major entries."""
    entries = _each(_float)(spec, "mix")
    if len(entries) != 9:
        raise ConfigError(f"mix must hold 9 comma separated row-major entries, got {spec!r}")
    try:
        return ColorMixing(np.array(entries).reshape(3, 3))
    except ValueError as exc:
        raise ConfigError(f"invalid mix {spec!r}: {exc}") from exc


# Each config key, in parse order: the ExperimentConfig field it sets and
# its parser, called as parser(value, key).
_KEYS = {
    "scene": ("scene", _text),
    "psf": ("psf", _text),
    "bc": ("bcs", _each(_bc)),
    "method": ("methods", _each(_text)),
    "rho": ("rhos", _each(_float)),
    "seed": ("seed", _int),
    "out": ("out", _text),
    "mix": ("mix", lambda value, what: parse_mix_spec(value)),
    "mu_lo": ("mu_lo", _float),
    "mu_hi": ("mu_hi", _float),
    "mu_count": ("mu_count", _int),
    "max_terms": ("max_terms", _int),
    "maxval": ("maxval", _int),
}


def _key_value(text, where):
    """Split "key = value" into its stripped key and value."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), value.strip()


def read_config_file(path):
    """Parse a flat key=value config file into a dict of strings.

    The file is UTF-8 text. Blank lines and '#' comments are ignored;
    keys may not repeat.
    """
    raw = {}
    for lineno, line in enumerate(_utf8_text(path, ConfigError).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, value = _key_value(stripped, f"{path}:{lineno}")
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
    raw.update(_key_value(item, "override") for item in overrides)
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("scene", "psf"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
    kwargs = {
        field: parse(raw[key], key) for key, (field, parse) in _KEYS.items() if key in raw
    }
    return ExperimentConfig(**kwargs)


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
        if head in ("gaussian", "disk"):
            q_part, sep, p_part = rest.partition(":")
            if not sep:
                width = "sigma" if head == "gaussian" else "radius"
                raise ConfigError(f"{head} psf needs {head}:q:{width}")
            half = _parse_pair(q_part, f"{head} half support", _int)
            if head == "disk":
                return out_of_focus_mask(half, _float(p_part, "disk radius"))
            return gaussian_mask(half, _parse_pair(p_part, "gaussian sigma", _float))
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


def resolve_mixing(data, mix):
    """mix, defaulting to the identity for color data; gray data takes none."""
    if data.ndim == 2 and mix is not None:
        raise ConfigError("mix was set but the data is grayscale")
    return identity_mixing() if data.ndim == 3 and mix is None else mix


def _resolve_scene(config):
    spec = config.scene
    if not spec.startswith("sinusoids:"):
        return read_by_suffix(spec)
    parts = spec.split(":", 1)[1].split("x")
    if len(parts) != 2:
        raise ConfigError(f"sinusoids scene needs sinusoids:HxW, got {spec!r}")
    shape = tuple(_int(p, "scene dimension") for p in parts)
    scene = low_frequency_scene if config.mix is None else low_frequency_scene_color
    return scene(shape)


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
    mixing = resolve_mixing(scene, config.mix)
    color = mixing is not None
    try:
        f_true = fov_crop(scene, mask.half_support)
    except SizeMismatchError as exc:
        raise ConfigError(f"scene too small for the psf margins: {exc}") from None
    shape = f_true.shape[-2:]
    # before any work, so a mask or mix the run cannot use fails before
    # anything is written
    ops = {bc: BlurOperator(mask, bc, shape) for bc in config.bcs}
    plans = _run_plans(ops, config.methods, config.mix)

    g_clean = blur_oversized_scene(scene, mask)
    if color:
        g_clean = _mix(mixing.matrix, g_clean)

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rho in config.rhos:
        noisy, _snr = add_noise(g_clean, NoiseSpec(rho, config.seed))
        for bc in config.bcs:
            eigen, by_method = plans[bc]
            magnitudes, coefs = _picard_data(noisy, eigen)
            picard = None  # formatted once per (rule, rho), then copied
            for method, plan in by_method.items():
                curve, restore = _sweep(
                    noisy, plan, method, f_true, mixing, config.max_terms, config.mu_grid()
                )
                dirname, key = _case_names(bc, method, rho)
                subdir = out / dirname
                subdir.mkdir(parents=True, exist_ok=True)
                save_curve_csv(curve, subdir / "curve.csv")
                if picard is None:
                    picard = subdir / "picard.csv"
                    save_picard_csv(picard, magnitudes, coefs)
                else:
                    shutil.copyfile(picard, subdir / "picard.csv")
                name = "restored.ppm" if color else "restored.pgm"
                write_image(subdir / name, restore().image, config.maxval)
                rows.append(f"{key},{format_optimum(curve)},{curve.best_rre:.6e}\n")
    summary = "bc,method,rho,optimum_param,rre\n" + "".join(rows)
    (out / "summary.csv").write_text(summary, encoding="ascii")
    return out
