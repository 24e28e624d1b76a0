"""A stdlib line-coverage pytest plugin for the pickpoly sources.

Run the suite with it from the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p line_coverage

It traces the test run with ``sys.settrace`` and ``threading.settrace``,
giving a line tracer only to frames whose code lives in the pickpoly
package, and at the end lists every function-body statement that no test
ran. The run fails when such a statement is not on ``ALLOWED`` below,
or when an ``ALLOWED`` entry names no unrun statement. A statement counts as
run when a line event fires on one of its own lines: the whole of a simple
statement, the header of a compound one. Docstrings and ``global`` or
``nonlocal`` declarations emit no line event and are not counted. Forked
children (pool workers) are not traced, so lines that run only there belong
on the allow-list.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading

import pytest

# Unrun statements that are allowed, as (file, function, statement source)
# and each with its reason. Only lines that run in a forked child alone and
# safety exits belong here.
ALLOWED = {
    # os.register_at_fork runs it in a forked child alone, which drops the
    # parent's pool; test_forked_process_runs_its_own_pooled_study checks
    # that the child then starts its own
    ("simulation.py", "_forget_pool", "_pool = None"):
        "runs at fork, in the child only",
}

_SOURCE = os.path.realpath(importlib.util.find_spec("pickpoly").submodule_search_locations[0])

_SILENT = (ast.Global, ast.Nonlocal)
_BODIES = ("body", "orelse", "finalbody", "handlers", "cases")


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def _own_lines(stmt: ast.stmt) -> range:
    # a simple statement's lines, or a compound one's header up to its first child
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    children = [child for name in _BODIES for child in getattr(stmt, name, [])]
    if not children:
        return range(start, stmt.end_lineno + 1)
    return range(start, max(stmt.lineno, children[0].lineno - 1) + 1)


def _statements(body: list[ast.stmt], function: str):
    # (function, statement) for each statement of a function body, nested
    # blocks included; a nested def or class counts as one statement here
    for stmt in body:
        if isinstance(stmt, _SILENT):
            continue
        yield function, stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for name in _BODIES:
                yield from _statements(getattr(stmt, name, []), function)


def function_statements(path: str) -> list[tuple[str, ast.stmt]]:
    """(function name, statement) for every function-body statement in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            out += _statements(body, node.name)
    return out


class LineTracer:
    """The lines run in the package's files, by real path, while installed."""

    def __init__(self, source: str = _SOURCE):
        self.prefix = os.path.realpath(source) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._tracers: dict[str, object] = {}

    def _local_for(self, filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(self.prefix):
            return None
        add = self.hits.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._tracers[filename]
        except KeyError:
            local = self._tracers[filename] = self._local_for(filename)
            return local

    def install(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    def remove(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def unrun_statements(hits: dict[str, set[int]], source: str = _SOURCE) -> list[tuple[str, int, str, str]]:
    """(file, line, function, statement source) of each unrun function-body statement."""
    source, out = os.path.realpath(source), []
    for name in sorted(os.listdir(source)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(source, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        ran = hits.get(path, set())
        for function, stmt in function_statements(path):
            if ran.isdisjoint(_own_lines(stmt)):
                out.append((name, stmt.lineno, function, lines[stmt.lineno - 1].strip()))
    return sorted(out, key=lambda row: row[:2])


class CoveragePlugin:
    def __init__(self):
        self.tracer = LineTracer()
        self.unexplained: list[tuple[str, int, str, str]] = []
        self.stale: list[tuple[str, str, str]] = []

    def pytest_sessionstart(self, session):
        os.register_at_fork(after_in_child=self.tracer.remove)
        self.tracer.install()

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session, exitstatus):
        self.tracer.remove()
        unrun = unrun_statements(self.tracer.hits)
        keys = {(name, function, text) for name, _, function, text in unrun}
        self.unexplained = [row for row in unrun if (row[0], row[2], row[3]) not in ALLOWED]
        self.stale = sorted(set(ALLOWED) - keys)
        if (self.unexplained or self.stale) and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        write = terminalreporter.write_line
        terminalreporter.section("line coverage of src/pickpoly")
        for name, line, function, text in self.unexplained:
            write(f"unrun: {name}:{line} in {function}: {text}")
        for name, function, text in self.stale:
            write(f"allow-list entry matches no unrun statement: {name} in {function}: {text}")
        for (name, function, text), reason in sorted(ALLOWED.items()):
            write(f"allowed: {name} in {function}: {text} ({reason})")
        if not (self.unexplained or self.stale):
            write("every function-body statement ran, or is allowed")


def pytest_configure(config):
    config.pluginmanager.register(CoveragePlugin(), "line_coverage_plugin")
