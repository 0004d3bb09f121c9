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
    _BASIS,
    DEFAULT_MU_RANGE,
    METHODS,
    Tikhonov,
    TruncateByCount,
    _check_max_terms,
    _finite_real,
    _mix,
    _Plan,
    _restore,
    _sweep,
    log_mu_grid,
    save_curve_csv,
)
from .imageio import _MAXVALS, read_image, read_matrix, write_image, write_matrix
from .metrics import NoiseSpec, _picard_data, add_noise, save_picard_csv
from .operators import BlurOperator, BoundaryCondition, blur_oversized_scene, fov_crop
from .psf import gaussian_mask, identity_mask, load_mask, out_of_focus_mask


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
    mu_lo: float = DEFAULT_MU_RANGE[0]
    mu_hi: float = DEFAULT_MU_RANGE[1]
    mu_count: int = DEFAULT_MU_RANGE[2]
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
            if not (_finite_real(rho) and rho >= 0):
                raise ConfigError(f"rho must be finite and >= 0, got {rho}")
        cases = [_case_names(b, m, r) for b in self.bcs for m in self.methods for r in self.rhos]
        for names in zip(*cases):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ConfigError(f"bc, method or rho repeats an output name: {repeated}")
        for name in ("seed", "mu_count"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name} must be an int, got {value!r}") from None
        try:
            self.mu_grid()
            object.__setattr__(self, "max_terms", _check_max_terms(self.max_terms))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.maxval not in _MAXVALS:
            raise ConfigError(f"maxval must be one of {_MAXVALS}")

    def mu_grid(self):
        return log_mu_grid(self.mu_lo, self.mu_hi, self.mu_count)


def _case_names(bc, method, rho):
    """A case's directory name and its key in the summary table."""
    return f"{bc.value}_{method}_rho{rho:g}", f"{bc.value},{method},{rho:.6e}"


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


def _parse_bc(token, what):
    try:
        return BoundaryCondition(token)
    except ValueError as exc:
        names = ", ".join(bc.value for bc in BoundaryCondition)
        raise ConfigError(
            f"unknown boundary rule {token!r}, expected one of {names}"
        ) from exc


def _text(value, what):
    return value


def _each(parse):
    """A parser of comma separated lists whose items each go through parse."""

    def parse_list(value, what):
        tokens = [tok.strip() for tok in value.split(",")]
        if any(not tok for tok in tokens):
            raise ConfigError(f"empty item in list {value!r}")
        return tuple(parse(tok, what) for tok in tokens)

    return parse_list


def parse_mix_spec(spec):
    """Build a ColorMixing from 9 comma separated row-major entries."""
    entries = _each(_parse_float)(spec, "mix entry")
    if len(entries) != 9:
        raise ConfigError("mix must hold 9 comma separated row-major entries")
    try:
        return ColorMixing(np.array(entries).reshape(3, 3))
    except ValueError as exc:
        raise ConfigError(f"invalid mixing matrix: {exc}") from exc


# Each config key, in parse order: the ExperimentConfig field it sets and
# its parser, called as parser(value, key).
_KEYS = {
    "scene": ("scene", _text),
    "psf": ("psf", _text),
    "bc": ("bcs", _each(_parse_bc)),
    "method": ("methods", _each(_text)),
    "rho": ("rhos", _each(_parse_float)),
    "seed": ("seed", _parse_int),
    "out": ("out", _text),
    "mix": ("mix", lambda value, what: parse_mix_spec(value)),
    "mu_lo": ("mu_lo", _parse_float),
    "mu_hi": ("mu_hi", _parse_float),
    "mu_count": ("mu_count", _parse_int),
    "max_terms": ("max_terms", _parse_int),
    "maxval": ("maxval", _parse_int),
}


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
            half = _parse_pair(q_part, f"{head} half support", _parse_int)
            if head == "disk":
                return out_of_focus_mask(half, _parse_float(p_part, "disk radius"))
            return gaussian_mask(half, _parse_pair(p_part, "gaussian sigma", _parse_float))
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


def resolve_mixing(data, mix):
    """mix, defaulting to the identity for color data; gray data takes none."""
    if data.ndim == 2 and mix is not None:
        raise ConfigError("mix was set but the data is grayscale")
    return identity_mixing() if data.ndim == 3 and mix is None else mix


def format_optimum(curve):
    """A sweep optimum as text: '%.6e' for a mu, an int for a count."""
    if curve.method == "tikhonov":
        return f"{curve.best_param:.6e}"
    return str(int(curve.best_param))


def _resolve_scene(config):
    spec = config.scene
    if not spec.startswith("sinusoids:"):
        return read_by_suffix(spec)
    parts = spec.split(":", 1)[1].split("x")
    if len(parts) != 2:
        raise ConfigError(f"sinusoids scene needs sinusoids:HxW, got {spec!r}")
    shape = tuple(_parse_int(p, "scene dimension") for p in parts)
    scene = low_frequency_scene if config.mix is None else low_frequency_scene_color
    return scene(shape)


def _run_case(g, plan, mixing, method, f_true, config):
    """Sweep one (data, operator, method) case, restore at the optimum.

    plan is the operator's plan for the basis of method.
    """
    curve = _sweep(g, plan, method, f_true, mixing, config.max_terms, config.mu_grid())
    if method == "tikhonov":
        best = Tikhonov(float(curve.best_param))
    else:
        best = TruncateByCount(int(curve.best_param))
    return curve, _restore(g, plan, method, best, mixing)


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
    ops = {bc: BlurOperator(mask, bc, shape) for bc in config.bcs}
    # every basis is built once, before any work, so a mask that a rule's
    # spectrum or tsvd cannot use fails before anything is written; the
    # Picard data always needs the eigenbasis
    bases = dict.fromkeys(["eigen"] + [_BASIS[method] for method in config.methods])
    plans = {(bc, basis): _Plan(ops[bc], basis) for basis in bases for bc in config.bcs}

    g_clean = blur_oversized_scene(scene, mask)
    if color:
        g_clean = _mix(mixing.matrix, g_clean)

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rho in config.rhos:
        noisy, _snr = add_noise(g_clean, NoiseSpec(rho, config.seed))
        for bc in config.bcs:
            magnitudes, coefs = _picard_data(noisy, plans[bc, "eigen"])
            for method in config.methods:
                plan = plans[bc, _BASIS[method]]
                curve, restored = _run_case(noisy, plan, mixing, method, f_true, config)
                dirname, key = _case_names(bc, method, rho)
                subdir = out / dirname
                subdir.mkdir(parents=True, exist_ok=True)
                save_curve_csv(curve, subdir / "curve.csv")
                save_picard_csv(subdir / "picard.csv", magnitudes, coefs)
                name = "restored.ppm" if color else "restored.pgm"
                write_image(subdir / name, restored.image, config.maxval)
                rows.append(f"{key},{format_optimum(curve)},{curve.best_rre:.6e}\n")
    summary = "bc,method,rho,optimum_param,rre\n" + "".join(rows)
    (out / "summary.csv").write_text(summary, encoding="ascii")
    return out
