"""The benchmark's fixed cases, run in process: each must keep the exit
code and stdout sha256 recorded in bench/expected.json; and every library
name the benchmark imports must still exist."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
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


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    return code, out.getvalue().encode()


def _fib_conjugate(seed, tmp_path):
    from traintrack.formats import dump_automorphism, load_automorphism

    wl = workloads.Workload(str(ROOT), str(tmp_path))
    conj = workloads.seeded_conjugate(load_automorphism(wl.fixture("fib.aut")), seed)
    path = tmp_path / "conj.aut"
    path.write_text(dump_automorphism(conj))
    return conj, path


@pytest.mark.parametrize("seed", range(3))
def test_seeded_checks_pass_on_fib_conjugates(seed, tmp_path):
    # the checks that call Word, iterate, CyclicWord, apply_class,
    # from_letter_lists, compose and invert_verify run only inside
    # bench/run.py; here they run on small sweeps of seeded conjugates
    conj, path = _fib_conjugate(seed, tmp_path)
    code, out = _run(["probe", path, "-L", "6", "-P", "4"])
    assert len(json.loads(out)["witnesses"]) == 2  # the apply_class loop runs
    assert workloads.check_probe(conj, 6, 4, code, out) is None
    code, out = _run(["certify", path, "-M", "6", "-L", "6"])
    assert workloads.check_certify(conj, 6, code, out) is None


@pytest.mark.parametrize("workload,name", [("certify-sweep", "certify-conj"),
                                           ("probe-sweep", "probe-conj")])
@pytest.mark.parametrize("seed", range(3))
def test_seeded_workload_cases_pass(workload, name, seed, tmp_path):
    (case,) = [c for c in workloads.Workload(str(ROOT), str(tmp_path)).build(workload, seed)
               if c.name == name]
    assert case.check(*_run(case.args)) is None


def test_probe_check_rejects_a_wrong_period(tmp_path):
    conj, path = _fib_conjugate(0, tmp_path)
    code, out = _run(["probe", path, "-L", "6", "-P", "4"])
    rep = json.loads(out)
    rep["witnesses"][0]["period"] += 1
    bad = json.dumps(rep).encode()
    assert workloads.check_probe(conj, 6, 4, code, bad) is not None
