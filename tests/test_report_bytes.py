"""Pinned report bytes: a fixed matrix of `traintrack` invocations on the
bundled fixtures, each in json, csv and text, must keep the exit code and
stdout sha256 recorded in tests/report_bytes.json.

The matrix is every validator at --seed 0 (decomp at its defaults on
every fixture, and on fib also at a short L0), plus analyze, nielsen, a
small probe, a small certify and one growth series per fixture,
twelve deeper class sweeps: five on fib, two each on plas, poly and
broken, and one on identity, two options that change a report: a
growth series through both directions and analyze's --strict exit, and
four deeper growth series: fib to k = 24, plas and fib through both
directions to |k| = 30 and 20, and poly to k = 40.
Regenerate the JSON only when a report is meant to change:

    PYTHONPATH=src python tests/test_report_bytes.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from traintrack.cli import main
from traintrack.fixtures import FIXTURE_FILES, fixture_text

PINNED = Path(__file__).resolve().parent / "report_bytes.json"
FORMATS = ("json", "csv", "text")
LEMMAS = ("bcc", "bw1", "bw2", "illen", "backgrowth", "tricho")
DECOMP = [
    ("fib", ["--l0", "8"]), ("fib_inverse", []), ("poly", []), ("identity", []),
    ("fib", []), ("plas", []), ("broken", []),
]
# class sweeps past the small per-fixture ones (69,996, 63,590, 3,582,
# 4,181,926, 5,696,452, 9,518, 9,518, 1,386, 63,590, 1,386, 69,996 and
# 70 classes); certify at its defaults (M=20, L=8) reaches the interval
# stacks on fib and broken but not on poly, and broken at -M 30 -L 3
# stops on the letter budget after M=29, so its csv is the table of the
# last M completed.  The plas and poly
# probes reach the exponent-sum filter's two cases: A^k - I invertible
# for every k <= 12 (313 of 31,795 kept classes stepped) and A - I
# singular (234 of 1,791).  The probes of fib and plas grow only the
# classes with exponent sums 0; the two deepest were recorded before
# that pruning, when every class was grown.  On identity (A = I) neither
# exponent-sum test thins anything and every class is a witness.
SWEEPS = [
    ["probe", "fib.aut", "-L", "12", "-P", "6"],
    ["probe", "plas.aut", "-L", "8", "-P", "12"],
    ["probe", "poly.aut", "-L", "9", "-P", "6"],
    ["probe", "fib.aut", "-L", "16", "-P", "6"],
    ["probe", "plas.aut", "-L", "11", "-P", "6"],
    ["probe", "identity.aut", "-L", "10", "-P", "6"],
    ["certify", "fib.aut", "-M", "6", "-L", "10"],
    ["certify", "fib.aut"],
    ["certify", "broken.gm"],
    ["certify", "poly.aut"],
    ["certify", "fib.aut", "-L", "12"],
    ["certify", "broken.gm", "-M", "30", "-L", "3"],
]
# growth walks phi^-1 for k < 0; --strict gates the exit code on the
# improved-map conditions, which fib fails
OPTIONS = [
    ["growth", "fib.aut", "a", "--k-min", "-3", "--k-max", "3"],
    ["analyze", "fib.aut", "--strict"],
]
# growth series long enough that each step's word runs to thousands of
# letters: exponential growth on fib and plas, linear on poly
GROWTH = [
    ["growth", "fib.aut", "a", "--k-max", "24"],
    ["growth", "fib.aut", "a b^-1", "--k-min", "-20", "--k-max", "20"],
    ["growth", "plas.aut", "a b^-1", "--k-min", "-30", "--k-max", "30"],
    ["growth", "poly.aut", "a b", "--k-max", "40"],
]


def matrix():
    """Argument lists with the input as a bare fixture file name."""
    cases = []
    for fname in FIXTURE_FILES.values():
        cases += [["validate", fname, lemma, "--seed", "0"] for lemma in LEMMAS]
    for name, extra in DECOMP:
        cases.append(["validate", FIXTURE_FILES[name], "decomp", "--seed", "0", *extra])
    for fname in FIXTURE_FILES.values():
        cases += [
            ["analyze", fname],
            ["nielsen", fname],
            ["probe", fname, "-L", "4", "-P", "2"],
            ["certify", fname, "-M", "5", "-L", "4"],
            ["growth", fname, "a"],
        ]
    return SWEEPS + cases + OPTIONS + GROWTH


def replay(case, inputs: Path) -> dict:
    """{format: [exit code, stdout sha256]} for one case."""
    argv = [case[0], str(inputs / case[1]), *case[2:]]
    got = {}
    for fmt in FORMATS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", fmt])
        got[fmt] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    return got


def write_inputs(d: Path) -> Path:
    for name, fname in FIXTURE_FILES.items():
        (d / fname).write_text(fixture_text(name))
    return d


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("fixtures"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_matrix_is_pinned(pinned):
    assert list(pinned) == [" ".join(c) for c in matrix()]


@pytest.mark.parametrize("case", matrix(), ids=" ".join)
def test_report_bytes(case, inputs, pinned):
    assert replay(case, inputs) == pinned[" ".join(case)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        d = write_inputs(Path(tmp))
        table = {" ".join(c): replay(c, d) for c in matrix()}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} cases to {PINNED}", file=sys.stderr)
