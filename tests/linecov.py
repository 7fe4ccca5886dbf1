"""Statement coverage of `src/localquant` with the stdlib only, as a pytest plugin.

    python -m pytest -q -p tests.linecov

Every thread is traced with `sys.settrace` and `threading.settrace` from the
start of the test run, before the tests import the package. At the end the
terminal summary lists each statement of `src/localquant` that no test ran,
as `path:line: source`. Code run in a subprocess is not seen, so lines
reached only through `subprocess` calls are listed too. The name has no
`test_` prefix, so pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "localquant"

_executed: dict[str, set[int]] = {}
_line_tracers = {}


def _line_tracer(lines: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    return trace


def _global_tracer(frame, event, arg):
    """The line tracer of a frame of `SOURCE`, None for any other frame."""
    name = frame.f_code.co_filename
    tracer = _line_tracers.get(name)
    if tracer is None:  # first frame of this file: False marks a file outside SOURCE
        path = os.path.abspath(name)
        tracer = _line_tracers[name] = path.startswith(str(SOURCE)) and _line_tracer(
            _executed.setdefault(path, set()))
    return tracer or None


def _statements(path: Path) -> dict[int, str]:
    """Line -> source of the first line of every statement of `path`; docstrings
    and other bare constants compile to no code, so they are left out."""
    text = path.read_text()
    source_lines = text.splitlines()
    out = {}
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        out[node.lineno] = source_lines[node.lineno - 1].strip()
    return out


def pytest_configure(config):
    sys.settrace(_global_tracer)
    threading.settrace(_global_tracer)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("statements of src/localquant no test executed")
    total = missed = 0
    for path in sorted(SOURCE.glob("*.py")):
        statements = _statements(path)
        ran = _executed.get(str(path), set())
        missing = sorted(set(statements) - ran)
        total += len(statements)
        missed += len(missing)
        for line in missing:
            write(f"{path.relative_to(SOURCE.parents[1])}:{line}: {statements[line]}")
    write(f"{missed} of {total} statements not executed")
