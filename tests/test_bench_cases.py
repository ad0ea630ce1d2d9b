"""The benchmark's fixed cases, run in process: each must keep the exit
code and stdout sha256 recorded in bench/expected.json; and every library
name the benchmark imports must still exist."""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from traintrack.cli import main

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", ROOT / "bench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses resolve annotations here
_spec.loader.exec_module(workloads)

CASES = workloads.Workload(str(ROOT), str(ROOT)).fixed_cases()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_fixed_case_bytes(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(case.args))
    assert case.check(code, out.getvalue().encode()) is None


def test_bench_library_imports_resolve():
    # bench/ imports traintrack names inside its output checks, so a
    # deleted name would fail only when the benchmark runs
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update((a.name, "") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update((node.module, a.name) for a in node.names)
    names = {(m, n) for m, n in names if m.split(".")[0] == "traintrack"}
    assert len(names) >= 20
    for module, name in sorted(names):
        mod = importlib.import_module(module)
        if name and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    words = importlib.import_module("traintrack.words")
    for cls, attr in (("Automorphism", "apply_class"),
                      ("CyclicWord", "inverse_class"), ("CyclicWord", "norm")):
        assert hasattr(getattr(words, cls), attr), f"{cls}.{attr}"
