"""refocus benchmark: one closed-loop client, in one process, per workload.

Usage, from the root of a refocus checkout:

    python3 perfbench/run.py --workload restore_large --seed 1 --seconds 8 --trace 0

Set-up imports refocus from ./src, makes the workload's inputs from the
seed and sends one warm-up request of every class; it is repeated in
fresh processes and its median is reported as setup_s. The timed loop
then plays whole passes of the workload's fixed multiset of requests,
in an order drawn from the seed, until --seconds of request time have
passed. Every request's output is compared with the warm-up output of
its class, and every warm-up output is checked for correctness, outside
the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same loop
untraced, then replays the identical request sequence with every
refocus function wrapped (see spans.py) and prints the per-layer
metrics; spans go to perfbench/results/ as JSON lines.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it, starting with
'#', record the conditions of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
WORKLOADS = ("restore_large", "blur_large", "experiment_gray", "experiment_color")
# Set-up runs this many times (the first ones in fresh processes).
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150


def _pin_threads():
    """One BLAS/OpenMP thread (within the nproc cap): on a small shared
    machine a second spinning BLAS thread made run-to-run times wander.
    scipy.fft already uses one worker unless the program asks for more,
    which proc.cpu_util would show."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


# ------------------------------------------------------------ requests

def run_request(cli, argv):
    """One in-process `refocus` call; returns (ok, seconds, captured output)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        sink.write(traceback.format_exc())
    return code == 0, time.perf_counter() - start, sink.getvalue()


RESTORE_FUNCTIONS = ("tikhonov_restore", "truncated_sd_restore", "truncated_svd_restore",
                     "color_tikhonov", "color_truncated_sd", "color_truncated_svd")


@contextlib.contextmanager
def capturing(cli, results):
    """Append every restoration cli computes to results (for the checks).

    Only names cli still holds are wrapped; when nothing is captured the
    checks recompute the restoration instead.
    """
    originals = {name: getattr(cli, name) for name in RESTORE_FUNCTIONS
                 if hasattr(cli, name)}

    def keep(fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result
        return kept

    for name, fn in originals.items():
        setattr(cli, name, keep(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def setup(workload, seed, work):
    """Import refocus, make inputs, warm up every class; returns (seconds, state).

    A restoration captured during warm-up is parked on disk, so it adds
    neither to the set-up time nor to the memory of the timed loop.
    """
    start = time.perf_counter()
    import dataclasses

    import numpy as np
    import refocus
    from refocus import cli

    import workloads

    os.makedirs(work)
    classes = workloads.build(workload, seed, work)
    warm = {}
    parked = 0.0
    for c in classes:
        out = os.path.join(work, "warm_" + c.out)
        results = []
        with capturing(cli, results):
            ok, _, message = run_request(cli, c.command(out))
        result = None
        if results:
            t0 = time.perf_counter()
            np.save(os.path.join(work, c.name + ".npy"), results[-1].image)
            result = dataclasses.replace(results[-1], image=None)
            parked += time.perf_counter() - t0
        warm[c.name] = (out, ok, message, result)
    return time.perf_counter() - start - parked, (refocus, cli, classes, warm)


def child_setups(args, reps):
    """Set-up times measured in fresh processes, one after another."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
            check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def play(cli, classes, references, work, seconds, seed, sequence=None, tracer=None):
    """Closed loop with one client.

    Plays whole passes until `seconds` of request time have passed and
    there are enough samples for a tail, or replays `sequence` exactly. Returns (sequence, latencies, outcomes),
    where an outcome is (class name, ok, message).
    """
    import checks

    weights = [c.weight for c in classes]
    played, latencies, outcomes = [], [], []
    busy = 0.0
    passes = 0
    while True:
        if sequence is not None:
            batch = sequence[len(played):]
        elif busy < seconds or len(played) <= stats.TAIL_BEYOND:
            batch = stats.pass_order(weights, seed, passes)
            passes += 1
        else:
            break
        if not batch:
            break
        for index in batch:
            c = classes[index]
            out = os.path.join(work, "timed_" + c.out)
            _remove(out)
            if tracer is not None:
                tracer.request = len(played)
            ok, elapsed, message = run_request(cli, c.command(out))
            busy += elapsed
            if ok and not (os.path.exists(out)
                           and checks.digest(out) == references[c.name]):
                ok, message = False, "output differs from the checked warm-up output"
            played.append(index)
            latencies.append(elapsed)
            outcomes.append((c.name, ok, message))
        if sequence is not None:
            break
    return played, latencies, outcomes


def verify(refocus, classes, warm, work):
    """Check every warm-up output; returns {class name: failure message or None}."""
    import dataclasses

    import numpy as np

    import checks

    verdicts = {}
    for c in classes:
        out, ok, message, result = warm[c.name]
        if not ok:
            verdicts[c.name] = f"warm-up request failed: {message.strip()[-500:]}"
            continue
        if result is not None:
            image = np.load(os.path.join(work, c.name + ".npy"))
            result = dataclasses.replace(result, image=image)
        try:
            checks.check(refocus, c, out, result)
            verdicts[c.name] = None
        except checks.CheckFailed as exc:
            verdicts[c.name] = str(exc)
        except Exception:
            verdicts[c.name] = traceback.format_exc()
    return verdicts


# ---------------------------------------------------------- conditions

def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _size_bytes(text):
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text else None


def _commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref))
    if direct:
        return direct
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def conditions(args, classes):
    import numpy
    import scipy
    import scipy.fft

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    caches = _caches()
    largest = max(8 * c.spec["shape"][0] * c.spec["shape"][1] * c.spec["shape"][2]
                  for c in classes)
    working_set = {"largest_image_mb": largest / 1e6}
    for level in ("L2", "L3"):
        size = _size_bytes(caches.get(level))
        if size:
            working_set[f"times_{level}"] = largest / size
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "fft_workers": scipy.fft.get_workers(),
        "commit": _commit(),
        "working_set_float64": working_set,
    }


# -------------------------------------------------------------- report

def _result(correct, attempted, failed, metrics):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def _score(outcomes, verdicts):
    """Failed requests: errors, differing outputs, or a class whose check failed."""
    failures = [(name, message) for name, ok, message in outcomes if not ok]
    failures += [(name, verdicts[name]) for name, ok, _ in outcomes
                 if ok and verdicts[name] is not None]
    return failures


def _report_classes(classes, played, latencies):
    for i, c in enumerate(classes):
        own = [t for j, t in zip(played, latencies) if j == i]
        if own:
            print(f"# class {c.name} weight={c.weight} n={len(own)} "
                  f"median_ms={1e3 * statistics.median(own):.1f}")


def _traced_pass(args, refocus, cli, classes, references, work, played, latencies):
    """Replay the first pass with every refocus function wrapped.

    Per-request averages over one whole pass, so computed counts repeat
    exactly between runs and seeds. Returns (metrics, outcomes).
    """
    import spans

    first = played[:sum(c.weight for c in classes)]
    tracer = spans.Tracer()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with spans.installed(tracer, refocus):
        _, traced, outcomes = play(cli, classes, references, work, 0.0, args.seed,
                                   sequence=first, tracer=tracer)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    os.makedirs(RESULTS, exist_ok=True)
    span_file = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_jsonl(span_file)
    print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(span_file, ROOT)}")
    print("# time waited: not reported; no refocus layer queues work")
    metrics = spans.layer_metrics(tracer, len(first))
    metrics["proc.cpu_ms"] = (1e3 * cpu / len(first), "ms")
    metrics["proc.cpu_util"] = (cpu / wall, "ratio")
    metrics["trace.request_ms"] = (1e3 * sum(traced) / len(traced), "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(traced) / sum(latencies[:len(first)]) - 1.0), "%")
    return metrics, outcomes


def measure(args, work):
    children = [] if args.trace else child_setups(args, SETUP_REPS - 1)
    own_setup, (refocus, cli, classes, warm) = setup(args.workload, args.seed, work)
    import checks

    print("# conditions " + json.dumps(conditions(args, classes), sort_keys=True))
    references = {c.name: checks.digest(warm[c.name][0]) if warm[c.name][1] else None
                  for c in classes}
    seconds = args.seconds / 2 if args.trace else args.seconds
    cpu0, wall0 = time.process_time(), time.perf_counter()
    played, latencies, outcomes = play(cli, classes, references, work, seconds, args.seed)
    cpu_util = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    weights = ",".join(f"{c.name}x{c.weight}" for c in classes)
    print(f"# loop: closed, 1 client, {len(played)} requests, multiset {weights}")
    _report_classes(classes, played, latencies)
    if args.trace:
        metrics, traced_outcomes = _traced_pass(args, refocus, cli, classes, references,
                                                work, played, latencies)
        outcomes += traced_outcomes

    start = time.perf_counter()
    verdicts = verify(refocus, classes, warm, work)
    print(f"# output checks took {time.perf_counter() - start:.2f} s")
    for name, verdict in verdicts.items():
        if verdict is not None:
            print(f"# CHECK FAILED {name}: {verdict}", file=sys.stderr)
    failures = _score(outcomes, verdicts)
    for name, message in failures[:5]:
        print(f"# request failed {name}: {message.strip()[-300:]}", file=sys.stderr)
    attempted = len(outcomes)
    completed = attempted - len(failures)
    print(f"# fail_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} requests)")

    if not args.trace:
        samples = children + [own_setup]
        tail_s, tail_pct, n = stats.tail(latencies)
        print(f"# setup_s samples: {', '.join(f'{t:.4f}' for t in samples)}")
        print(f"# job_tail_ms read at p{tail_pct:.1f} of n={n} "
              f"({stats.TAIL_BEYOND} samples beyond it)")
        print(f"# proc.cpu_util {cpu_util:.3f}")
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "jobs_per_s": (completed / sum(latencies), "1/s"),
            "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "job_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_rate": (completed / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not failures and all(v is None for v in verdicts.values())
    print(json.dumps(_result(correct, attempted, len(failures), metrics)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "refocus", "__init__.py")):
        print(f"perfbench: no refocus package under {SRC}; run from the root of a "
              "refocus checkout", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, SRC)
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            seconds, _ = setup(args.workload, args.seed, work)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
