"""The benchmark reads its per-stage figures by span name, through a
defaultdict: a stage renamed in the library would silently report 0.  Each
name it reads must stay a traced function, that is a public function
defined in its module.  The benchmark's own self-test must pass too, so a
library name it imports cannot go missing."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
LISTS = ("CALL_COUNTS", "SELF_MS", "RAISED", "SETUP_SELF_MS")
# names run.py reads outside those lists
OTHERS = ("cli.main", "builders.formats.load", "report.analyze",
          "builders.enumeration.enumerate_by_type")


def _traced_names():
    with open(RUN_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names, strings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in LISTS for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    assert set(OTHERS) <= strings
    return sorted(set(names) | set(OTHERS))


@pytest.mark.parametrize("name", _traced_names())
def test_benchmark_reads_a_public_function(name):
    module, func = name.rsplit(".", 1)
    mod = importlib.import_module(f"hypergroups.{module}")
    fn = getattr(mod, func, None)
    assert not func.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_the_benchmark_selftest_passes():
    # selftest.py reads the repository root from its working directory
    out = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
