import json
import os

import line_coverage
from helpers import run_python

SAMPLE = '''\
def f(x):
    """A docstring, which emits no line event."""
    global G
    if (x >
            0):
        return 1
    try:
        y = [
            x]
    except ValueError:
        pass

    def g():
        return y
    return g
'''


def test_statements_are_the_function_bodies_own_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    found = [(function, type(stmt).__name__, list(line_coverage._own_lines(stmt)))
             for function, stmt in line_coverage.function_statements(str(path))]
    assert sorted(found) == sorted([
        ("f", "If", [4, 5]), ("f", "Return", [6]), ("f", "Try", [7]), ("f", "Assign", [8, 9]),
        ("f", "ExceptHandler", [10]), ("f", "Pass", [11]), ("f", "FunctionDef", [13]),
        ("f", "Return", [15]), ("g", "Return", [14]),
    ])


def test_a_statement_runs_when_any_of_its_own_lines_runs(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "notes.txt").write_text("not a module")
    ran = {4, 7, 9, 13, 15}
    unrun = line_coverage.unrun_statements({os.path.realpath(tmp_path / "sample.py"): ran}, str(tmp_path))
    assert [(name, line, function) for name, line, function, _ in unrun] == [
        ("sample.py", 6, "f"), ("sample.py", 10, "f"), ("sample.py", 11, "f"), ("sample.py", 14, "g")]
    assert unrun[0][3] == "return 1"


def test_the_tracer_sees_each_statement_that_runs(tmp_path):
    # in a fresh interpreter, where no other tracer is installed: f(0)()
    # runs every statement but the if's return and the except clause
    (tmp_path / "coverage_sample.py").write_text(SAMPLE)
    tests = os.path.dirname(os.path.abspath(line_coverage.__file__))
    code = f"""
import sys
sys.path[:0] = [{tests!r}, {str(tmp_path)!r}]
import line_coverage
tracer = line_coverage.LineTracer({str(tmp_path)!r})
tracer.install()
import coverage_sample
coverage_sample.f(0)()
tracer.remove()
print([row[1] for row in line_coverage.unrun_statements(tracer.hits, {str(tmp_path)!r})])
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [6, 10, 11]
