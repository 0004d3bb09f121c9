"""Run-time tracing of refocus from outside, and the per-layer metrics.

The tracer wraps the public functions of each refocus module (plus the
private color sweep entry points that the CLI imports) and rebinds
every name under which another refocus module or the package namespace
holds them, so calls between modules pass through the wrappers. No
source file is edited; `installed` restores the original bindings.

Spans stay in memory as [name, start, end, parent, request, error] and
are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "psf",
    "operators",
    "spectrum",
    "transforms",
    "filtering",
    "color",
    "metrics",
    "imageio",
    "experiment",
    "cli",
)
# Private entry points that cli imports from experiment.
EXTRA = ("experiment._color_tsd_sweep", "experiment._color_tsvd_sweep",
         "experiment._color_mu_sweep")

NAME, START, END, PARENT, REQUEST, ERROR = range(6)


class Tracer:
    """Collects spans and counts from wrapped functions."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = defaultdict(float)
        self.operators = set()
        self.hook_errors = 0

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.request, False]
            self.spans.append(span)
            self.stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:
                    self.hook_errors += 1
            return result

        return traced

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "request", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _public_functions(module, extra):
    for name, obj in vars(module).items():
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        qual = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        if not name.startswith("_") or qual in extra:
            yield qual, obj


@contextlib.contextmanager
def installed(tracer, package, layers=LAYERS, extra=EXTRA, hooks=None):
    """Wrap every public function of package.<layer> and rebind all aliases."""
    hooks = HOOKS if hooks is None else hooks
    modules = [importlib.import_module(f"{package.__name__}.{m}") for m in layers]
    wrappers = {}
    for module in modules:
        for qual, fn in _public_functions(module, extra):
            wrappers[id(fn)] = tracer.wrap(qual, fn, hooks.get(qual))
    rebound = []
    for namespace in modules + [package]:
        for name, obj in list(vars(namespace).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(namespace, name, wrapper)
                rebound.append((namespace, name, obj))
    try:
        yield len(wrappers)
    finally:
        for namespace, name, obj in rebound:
            setattr(namespace, name, obj)


# ---------------------------------------------------------------- counts

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _transform_bytes(tr, args, kwargs, result):
    tr.counts["transform_bytes"] += np.asarray(args[0]).size * 8 + result.nbytes


def _dense_bytes(tr, args, kwargs, result):
    tr.counts["dense_bytes"] += result.nbytes


def _operator_seen(tr, args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    tr.operators.add((op.bc.value, op.shape, op.mask.weights.tobytes()))


def _blur_flops(tr, args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    tr.counts["blur_flop"] += 2 * np.count_nonzero(op.mask.weights) * result.size


def _oversized_flops(tr, args, kwargs, result):
    mask = _arg(args, kwargs, 1, "mask")
    tr.counts["blur_flop"] += 2 * np.count_nonzero(mask.weights) * result.size


def _sweep_points(tr, args, kwargs, result):
    tr.counts["sweep_points"] += len(result.params)


def _file_bytes(key, pos, name):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += os.path.getsize(_arg(args, kwargs, pos, name))
    return hook


def _solves(tr, args, kwargs, result):
    tr.counts["solves"] += _arg(args, kwargs, 2, "op").size


def _cases(tr, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    tr.counts["cases"] += len(config.rhos) * len(config.bcs) * len(config.methods)


TRANSFORMS_1D = ("transforms.dct3_apply", "transforms.dst1_apply",
                 "transforms.ar_apply", "transforms.ar_inverse_apply")
BLURS = ("operators.apply_blur", "operators.blur_oversized_scene")
RESTORES = ("filtering.truncated_sd_restore", "filtering.truncated_svd_restore",
            "filtering.tikhonov_restore")
SWEEPS = ("filtering.rre_sweep", "filtering.svd_rre_sweep", "filtering.mu_sweep")
READS = ("imageio.read_image", "imageio.read_matrix")
WRITES = ("imageio.write_image", "imageio.write_matrix")

HOOKS = {
    **{name: _transform_bytes for name in TRANSFORMS_1D},
    "transforms.dense_transform": _dense_bytes,
    "spectrum.eigen_grid_for": _operator_seen,
    "operators.apply_blur": _blur_flops,
    "operators.blur_oversized_scene": _oversized_flops,
    **{name: _sweep_points for name in SWEEPS},
    "filtering.save_curve_csv": _file_bytes("curve_csv_bytes", 1, "path"),
    "metrics.save_picard_csv": _file_bytes("picard_csv_bytes", 0, "path"),
    "color.color_tikhonov": _solves,
    **{name: _file_bytes("read_bytes", 0, "path") for name in READS},
    **{name: _file_bytes("write_bytes", 0, "path") for name in WRITES},
    "experiment.run_experiment": _cases,
}


# --------------------------------------------------------------- metrics

def _outermost(spans, names):
    """Spans named in `names` that have no ancestor named in `names`."""
    names = set(names)
    picked = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            picked.append(span)
    return picked


def group_seconds(spans, names):
    """Wall time inside any of the named functions, nested calls counted once."""
    return sum(s[END] - s[START] for s in _outermost(spans, names))


def group_calls(spans, names):
    return len(_outermost(spans, names))


def self_seconds(spans):
    """Per span: its duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(tracer, requests):
    """Per-layer metrics, each a per-request average over the traced run.

    Returns {name: (value, unit)}. Times are in ms, sizes in MB (1e6
    bytes); flop and byte counts are computed from array shapes.
    """
    spans = tracer.spans
    counts = tracer.counts
    per = 1.0 / requests
    psf = {s[NAME] for s in spans if s[NAME].startswith("psf.")}

    def ms(group):
        return 1e3 * group_seconds(spans, group) * per

    def calls(group):
        return group_calls(spans, group) * per

    own = self_seconds(spans)

    def self_ms(prefix):
        return 1e3 * per * sum(t for s, t in zip(spans, own)
                               if s[NAME].startswith(prefix + "."))

    grid_calls = group_calls(spans, ["spectrum.eigen_grid_for"])
    sweep_ms = ms(SWEEPS)
    points = counts["sweep_points"] * per
    return {
        "transforms.dct3_ms": (ms(["transforms.dct3_apply"]), "ms"),
        "transforms.dst1_ms": (ms(["transforms.dst1_apply"]), "ms"),
        "transforms.ar_ms": (ms(["transforms.ar_apply"]), "ms"),
        "transforms.ar_inverse_ms": (ms(["transforms.ar_inverse_apply"]), "ms"),
        "transforms.calls": (calls(TRANSFORMS_1D), "count"),
        "transforms.computed_mb": (counts["transform_bytes"] * per / 1e6, "MB"),
        "transforms.dense_calls": (calls(["transforms.dense_transform"]), "count"),
        "transforms.dense_mb": (counts["dense_bytes"] * per / 1e6, "MB"),
        "spectrum.eigen_grid_ms": (ms(["spectrum.eigen_grid_for"]), "ms"),
        "spectrum.sort_ms": (ms(["spectrum.sort_spectrum"]), "ms"),
        "spectrum.eigen_grid_calls": (grid_calls * per, "count"),
        "spectrum.sort_calls": (calls(["spectrum.sort_spectrum"]), "count"),
        "spectrum.analysis_calls": (calls(["spectrum.spectral_analysis"]), "count"),
        "spectrum.synthesis_calls": (calls(["spectrum.spectral_synthesis"]), "count"),
        "spectrum.eigen_grid_per_op": (
            grid_calls / len(tracer.operators) if tracer.operators else 0.0, "ratio"),
        "operators.blur_ms": (ms(BLURS), "ms"),
        "operators.pad_ms": (ms(["operators.pad"]), "ms"),
        "operators.blur_calls": (calls(BLURS), "count"),
        "operators.blur_mflop": (counts["blur_flop"] * per / 1e6, "Mflop"),
        "psf.ms": (ms(psf), "ms"),
        "filtering.restore_ms": (ms(RESTORES), "ms"),
        "filtering.sweep_ms": (sweep_ms, "ms"),
        "filtering.sweep_points": (points, "count"),
        "filtering.us_per_point": (1e3 * sweep_ms / points if points else 0.0, "us"),
        "filtering.csv_ms": (ms(["filtering.save_curve_csv"]), "ms"),
        "filtering.csv_mb": (counts["curve_csv_bytes"] * per / 1e6, "MB"),
        "color.tikhonov_ms": (ms(["color.color_tikhonov"]), "ms"),
        "color.tikhonov_calls": (calls(["color.color_tikhonov"]), "count"),
        "color.truncated_ms": (
            ms(["color.color_truncated_sd", "color.color_truncated_svd"]), "ms"),
        "color.blur_ms": (ms(["color.cross_channel_blur"]), "ms"),
        "color.solves": (counts["solves"] * per, "count"),
        "metrics.noise_ms": (ms(["metrics.add_noise"]), "ms"),
        "metrics.picard_ms": (ms(["metrics.picard_data"]), "ms"),
        "metrics.rre_ms": (ms(["metrics.rre"]), "ms"),
        "metrics.csv_ms": (ms(["metrics.save_picard_csv"]), "ms"),
        "metrics.csv_mb": (counts["picard_csv_bytes"] * per / 1e6, "MB"),
        "imageio.read_ms": (ms(READS), "ms"),
        "imageio.write_ms": (ms(WRITES), "ms"),
        "imageio.read_mb": (counts["read_bytes"] * per / 1e6, "MB"),
        "imageio.write_mb": (counts["write_bytes"] * per / 1e6, "MB"),
        "experiment.self_ms": (self_ms("experiment"), "ms"),
        "experiment.color_sweep_ms": (ms(EXTRA), "ms"),
        "experiment.cases": (counts["cases"] * per, "count"),
        "cli.self_ms": (self_ms("cli"), "ms"),
        "trace.errors": (
            tracer.hook_errors + sum(1 for s in spans if s[ERROR]), "count"),
    }
