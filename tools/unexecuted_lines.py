"""List the lines of the refocus package that the test suite never runs.

Usage: python tools/unexecuted_lines.py

Runs the suite in this process, as pytest.main(["-q", "-p",
"no:cacheprovider", "tests"]), under a line tracer installed with
sys.settrace and threading.settrace that records only frames whose code
lies in src/refocus. Tracing starts before refocus is imported, so
module-level lines count too. A line is executable when compiling its
module gives it bytecode (the co_lines of the module's code object and
of every code object nested in it).

Prints pytest's report, then one "path:line: source" row per executable
line that never ran, and exits with pytest's status. Nothing is written
into the checkout: bytecode caching and the pytest cache are off, and
the suite runs from a temporary working directory, so files that tests
or plugins make relative to it land there. Standard library and pytest
only.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refocus"


def executable_lines(path):
    """Line numbers that carry bytecode in one source file."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def package_tracer(ran):
    """A settrace function adding (filename, line) to ran for each package line run."""
    prefix = str(PACKAGE) + os.sep

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    return trace_calls


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    ran = set()
    tracer = package_tracer(ran)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(start)
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
