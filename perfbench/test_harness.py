"""Self-tests of the benchmark harness, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_harness.py
"""

import os
import subprocess
import sys
import types
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import stats  # noqa: E402


def test_tail_is_highest_sample_with_ten_beyond():
    value, percentile, n = stats.tail(list(range(20, 0, -1)))
    assert (value, percentile, n) == (10, 50.0, 20)
    value, percentile, n = stats.tail(range(100))
    assert (value, percentile, n) == (89, 90.0, 100)
    assert stats.tail(range(11))[0] == 0
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_pass_order_plays_the_fixed_multiset_in_a_seeded_order():
    weights = [3, 1, 2, 5]
    expected = Counter({0: 3, 1: 1, 2: 2, 3: 5})
    orders = {seed: stats.pass_order(weights, seed, 0) for seed in range(6)}
    for order in orders.values():
        assert Counter(order) == expected
    assert stats.pass_order(weights, 4, 0) == orders[4]
    assert len({tuple(o) for o in orders.values()}) > 1
    assert stats.pass_order(weights, 4, 1) != orders[4]


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False]


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("filtering.rre_sweep", 1.0, 4.0, 0),
        _span("spectrum.spectral_analysis", 2.0, 3.0, 1),
        _span("imageio.write_image", 5.0, 9.0, 0),
    ]
    assert spans.self_seconds(trace) == [3.0, 2.0, 1.0, 4.0]


def test_group_time_counts_nested_calls_once():
    trace = [
        _span("transforms.dct3_apply", 0.0, 5.0, -1),
        _span("transforms.dct3_apply", 1.0, 2.0, 0),
        _span("other.f", 6.0, 8.0, -1),
        _span("transforms.dct3_apply", 6.5, 7.0, 2),
    ]
    names = ["transforms.dct3_apply"]
    assert spans.group_seconds(trace, names) == 5.5
    assert spans.group_calls(trace, names) == 2


def _fake_package(monkeypatch):
    """fakepkg.low defines f; fakepkg.high imports it and calls it from g."""
    modules = [types.ModuleType(n) for n in ("fakepkg", "fakepkg.low", "fakepkg.high")]
    for module in modules:
        monkeypatch.setitem(sys.modules, module.__name__, module)
    pkg, low, high = modules
    exec("def f(x):\n    return x + 1\n", low.__dict__)
    exec("from fakepkg.low import f\n\ndef g(x):\n    return f(x) * 2\n", high.__dict__)
    pkg.f, pkg.g = low.f, high.g
    return pkg, low, high


def test_installed_traces_calls_across_modules_and_restores(monkeypatch):
    pkg, low, high = _fake_package(monkeypatch)
    original_f = low.f
    tracer = spans.Tracer()
    with spans.installed(tracer, pkg, layers=("low", "high"), extra=(), hooks={}):
        tracer.request = 7
        assert pkg.g(1) == 4
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["high.g", "low.f"]
    assert tracer.spans[1][spans.PARENT] == 0
    assert {s[spans.REQUEST] for s in tracer.spans} == {7}
    assert low.f is original_f and high.f is original_f and pkg.f is original_f


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(here, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blur_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
