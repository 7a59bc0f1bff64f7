"""Line trace of the test run: is every executable line of cornerflow reached?

A pytest plugin, opt-in and never collected as tests:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces every frame whose code lies in the ``cornerflow`` package from
``pytest_configure`` on, before any test module imports the package, and
compares the lines reached with the executable lines of each module: the
lines of its code objects, recursively, less a function's prologue at its
``def`` line.  A line no test reaches fails the session and is listed,
apart from ``EXEMPT``: ``cli.py``'s ``sys.exit(main())`` under
``__main__``, which only the subprocess tests run.
"""

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cornerflow"
EXEMPT = {("cli.py", "sys.exit(main())")}
PROLOGUE = {"RESUME", "GEN_START"}  # a function's start, at its def line

reached = set()  # (file name, line number) of every line event
missed = []  # (path, line number, source) of each unreached line


def _local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(PACKAGE)):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def executable_lines(code):
    """Lines of ``code`` and of every code object nested in it."""
    instructions = list(dis.get_instructions(code))
    body = next((i + 1 for i, ins in enumerate(instructions)
                 if ins.opname in PROLOGUE), 0)
    offsets = {ins.offset for ins in instructions[body:]}
    lines = {line for start, end, line in code.co_lines()
             if line is not None and any(start <= o < end for o in offsets)}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def unreached():
    """(path, line number, source) of each executable line no frame reached."""
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(executable_lines(compile(source, str(path), "exec"))):
            if ((str(path), line) not in reached
                    and (path.name, text[line - 1].strip()) not in EXEMPT):
                missed.append((path, line, text[line - 1].strip()))
    return missed


def pytest_configure(config):
    if "cornerflow" in sys.modules:
        raise pytest.UsageError("linetrace must start before cornerflow is imported")
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missed[:] = unreached()
    if missed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for path, line, text in missed:
        terminalreporter.write_line(
            f"unreached: {path.relative_to(PACKAGE.parent)}:{line}: {text}")
    terminalreporter.write_line(f"linetrace: {len(missed)} executable lines"
                                f" unreached, {len(EXEMPT)} exempt")
