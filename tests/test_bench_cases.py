"""The benchmark's fixed cases, run in process: each must keep the exit
code and stdout sha256 recorded in bench/expected.json."""

import contextlib
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
