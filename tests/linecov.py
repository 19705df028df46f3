"""Opt-in pytest plugin: list the lines of ``src/fsskit`` that no test runs.

    PYTHONPATH=src:tests python -m pytest -p linecov

A ``sys.settrace`` hook records the lines run in frames whose code lives
under ``src/fsskit``.  A line counts as executable if a function, lambda
or comprehension of a module has it in ``co_lines()``; module and class
bodies run at import and are not counted.  At the end of the test run the
unreached lines are printed per module.  Tracing about doubles the
suite's run time, so the plugin is not loaded by default.
"""

from __future__ import annotations

import inspect
import pathlib
import sys
import threading

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fsskit"
_PREFIX = str(_SRC) + "/"
_hits: dict[str, set[int]] = {}


def _local(frame, event, arg):
    _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    # a module or class body runs its def lines at import: not a call
    if not (name.startswith(_PREFIX) and frame.f_code.co_flags & inspect.CO_OPTIMIZED):
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _local


def _executable(path: pathlib.Path) -> set[int]:
    """Lines of every function-level code object compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before conftest.py imports fsskit: functions and comprehensions that
    # run at import (fileio's digit tables) count as reached
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("unreached lines of src/fsskit")
    total = 0
    for path in sorted(_SRC.glob("*.py")):
        missed = sorted(_executable(path) - _hits.get(str(path), set()))
        total += len(missed)
        if missed:
            write(f"{path.name}: {', '.join(map(str, missed))}")
    write(f"{total} unreached lines")
