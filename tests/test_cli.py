import ast
import functools
import hashlib
import importlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import traintrack
from traintrack import engine, growth, hyperbolicity, strata
from traintrack.cli import LEMMAS, main
from traintrack.formats import canonical_json, dump_automorphism
from traintrack.graphs import random_circuit, random_tight_path, rose_of
from traintrack.words import Automorphism
from traintrack.fixtures import fixture_text, load_fixture

from conftest import naive_apply, naive_cyclic_reduce

PHI = (1 + 5 ** 0.5) / 2


@pytest.fixture(scope="session")
def files(tmp_path_factory, rel):
    d = tmp_path_factory.mktemp("inputs")
    for name, fname in [
        ("fib", "fib.aut"), ("plas", "plas.aut"),
        ("poly", "poly.aut"), ("broken", "broken.gm"),
    ]:
        (d / fname).write_text(fixture_text(name))
    (d / "rel.aut").write_text(dump_automorphism(rel))
    (d / "bad.aut").write_text("basis: a b\nmap: a -> c\nmap: b -> a\n")
    (d / "notes.txt").write_text("not an input\n")
    return d


def identity_file(tmp_path, rank):
    path = tmp_path / f"id{rank}.aut"
    path.write_text(dump_automorphism(Automorphism.from_letter_lists(
        [(x,) for x in range(1, rank + 1)],
        [(x,) for x in range(1, rank + 1)],
    )))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestAnalyze:
    def test_fib_json(self, capsys, files):
        code, out, err = run(capsys, "analyze", files / "fib.aut")
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["kind"] == "automorphism"
        assert rep["rank"] == 2
        (s,) = rep["strata"]
        assert s["kind"] == "exponential"
        assert s["lambda"] == pytest.approx(PHI, abs=1e-9)
        assert rep["rtt"]["passed"] is True
        # period-2 Nielsen path: stronger conditions fail, exit still 0
        assert rep["improved"]["passed"] is False

    def test_strict_gates_on_improved(self, capsys, files):
        code, _, _ = run(capsys, "analyze", files / "fib.aut", "--strict")
        assert code == 1

    def test_broken_graph_map_fails(self, capsys, files):
        code, out, _ = run(capsys, "analyze", files / "broken.gm")
        assert code == 1
        rep = json.loads(out)
        assert rep["rtt"]["passed"] is False
        (v,) = rep["rtt"]["violations"]
        assert v["condition"] == 1
        assert v["edge"] == "ea"
        assert v["stratum"] == 2

    def test_text_format(self, capsys, files):
        code, out, _ = run(
            capsys, "analyze", files / "fib.aut", "--format", "text"
        )
        assert code == 0
        assert "stratum 1: exponential" in out
        assert "rtt: pass" in out

    def test_csv_format(self, capsys, files):
        code, out, _ = run(
            capsys, "analyze", files / "plas.aut", "--format", "csv"
        )
        assert code == 0
        head, row = out.splitlines()
        assert head == "index,edges,kind,lambda"
        assert row.startswith("1,a b c,exponential,1.32471795724")


class TestProbe:
    def test_fib_witnesses(self, capsys, files):
        code, out, _ = run(
            capsys, "probe", files / "fib.aut", "-L", "4", "-P", "2"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "not-atoroidal"
        assert rep["classes_enumerated"] == 50
        assert rep["witnesses"] == [
            {"class": "a b^-1 a^-1 b", "norm": 4, "period": 2,
             "inverted": True, "inversion_step": 1},
            {"class": "a b a^-1 b^-1", "norm": 4, "period": 2,
             "inverted": True, "inversion_step": 1},
        ]

    def test_plas_no_witness(self, capsys, files):
        code, out, _ = run(
            capsys, "probe", files / "plas.aut", "-L", "5", "-P", "3"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "no-witness-within-bounds"
        assert rep["witnesses"] == []


class TestCertify:
    def test_plas_certificate(self, capsys, files):
        code, out, _ = run(capsys, "certify", files / "plas.aut")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "empirical-certificate"
        assert rep["M"] == 3
        assert rep["lambda_exact"] == [6, 5]
        assert rep["lambda"] == pytest.approx(1.2)
        assert [h["argmin"] for h in rep["history"]] == [
            "a b a b a c^-1", "a b a c^-1 b^-1", "a b a c^-1 b^-1",
        ]

    def test_fib_no_certificate(self, capsys, files):
        code, out, _ = run(
            capsys, "certify", files / "fib.aut", "-M", "6", "-L", "4"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "no-certificate-within-bounds"
        assert rep["M"] is None
        assert all(h["ratio"] == 1.0 for h in rep["history"])

    def test_csv_row_counts(self, capsys, files):
        # plas certifies on batch steps; by M = 10 fib's batch has moved
        # to interval stacks
        for args, classes in (
            (["plas.aut", "-L", "5"], 868),
            (["fib.aut", "-M", "10", "-L", "6"], 234),
        ):
            argv = ["certify", files / args[0], *args[1:], "--format", "csv"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "class,norm,fwd,bwd,ratio"
            assert len(lines) == 1 + classes


class TestGrowth:
    def test_fibonacci_series(self, capsys, files):
        code, out, _ = run(capsys, "growth", files / "fib.aut", "a")
        assert code == 0
        assert out == "k,norm\n0,1\n1,2\n2,3\n3,5\n4,8\n5,13\n6,21\n"

    def test_negative_exponents(self, capsys, files):
        code, out, _ = run(
            capsys, "growth", files / "fib.aut", "a",
            "--k-min", "-3", "--k-max", "0",
        )
        assert code == 0
        assert out == "k,norm\n-3,3\n-2,2\n-1,1\n0,1\n"

    def test_periodic_class_over_long_range(self, capsys, files):
        # fib maps the commutator class to its inverse and back, so its
        # norm is 4 at every exponent, however long the run
        code, out, err = run(
            capsys, "growth", files / "fib.aut", "a b a^-1 b^-1", "--k-max", "60"
        )
        assert (code, err) == (0, "")
        assert out == "k,norm\n" + "".join(f"{k},4\n" for k in range(61))

    def test_unknown_letter(self, capsys, files):
        code, _, err = run(capsys, "growth", files / "fib.aut", "z")
        assert code == 2
        assert err.startswith("error:")


class TestNielsen:
    def test_fib_inventory(self, capsys, files):
        code, out, _ = run(capsys, "nielsen", files / "fib.aut")
        assert code == 0
        rep = json.loads(out)
        assert rep["count"] == 1
        (row,) = rep["paths"]
        assert row["path"] == "a^-1 b^-1 a b"
        assert row["period"] == 2
        assert row["indivisible"] is True
        assert row["illegal"] == 1


class TestValidate:
    def test_bcc_constants(self, capsys, files):
        code, out, _ = run(capsys, "validate", files / "fib.aut", "bcc")
        assert code == 0
        assert out == (
            "quantity,value\n"
            "C_f,3.2360679775\n"
            "window,3\n"
            "stable,true\n"
            "critical_length_1,10.472135955\n"
        )

    def test_bw1_rows_pass(self, capsys, files):
        code, out, _ = run(
            capsys, "validate", files / "fib.aut", "bw1", "--samples", "40"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "circuit,k,L,Lr,i,ir,scriptL,bound,margin,pass"
        rows = [l.rsplit(",", 2) for l in lines[1:]]
        assert len(rows) == 200
        assert all(r[2] == "true" and float(r[1]) > 0 for r in rows)

    def test_bw2_relative(self, capsys, files):
        code, out, _ = run(
            capsys, "validate", files / "rel.aut", "bw2", "--samples", "30"
        )
        assert code == 0
        assert all(l.endswith(",true") for l in out.splitlines()[1:])

    def test_illen(self, capsys, files):
        code, out, _ = run(capsys, "validate", files / "fib.aut", "illen")
        assert code == 0
        assert out.splitlines()[0] == "quantity,value"

    def test_backgrowth_never_spurious(self, capsys, files):
        code, out, _ = run(
            capsys, "validate", files / "fib.aut", "backgrowth",
            "--samples", "120",
        )
        assert code == 0

    def test_tricho(self, capsys, files):
        code, out, _ = run(
            capsys, "validate", files / "fib.aut", "tricho", "--samples", "12"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "path,case,pass"
        assert len(lines) == 13
        assert all(l.endswith(",true") for l in lines[1:])

    def test_decomp(self, capsys, files):
        code, out, _ = run(
            capsys, "validate", files / "plas.aut", "decomp", "--samples", "8"
        )
        assert code == 0
        assert out.splitlines()[0] == "circuit,case,fraction,pieces,pass"

    def test_decomp_violation_survives_optimize(self, files):
        # python -O strips assert statements; a bound forced to fail must
        # still give exit 1 and a bound-violated row
        script = (
            "import sys; from traintrack import growth; "
            "growth._longest_short_path = lambda *a, **k: 0.0; "
            "from traintrack.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = str(Path(traintrack.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "validate",
             str(files / "fib.aut"), "decomp", "--samples", "5",
             "--l0", "3", "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        rows = json.loads(proc.stdout)["rows"]
        assert any(r["case"] == "bound-violated" for r in rows)

    def test_seed_reproducibility(self, capsys, files):
        argv = ["validate", files / "fib.aut", "bw1", "--samples", "25"]
        _, a, _ = run(capsys, *argv, "--seed", "7")
        _, b, _ = run(capsys, *argv, "--seed", "7")
        _, c, _ = run(capsys, *argv, "--seed", "8")
        assert a == b
        assert a != c


def _library_report(name, lemma):
    """The library validator of lemma on the samples that `validate
    <name>.aut <lemma> --seed 0` draws at its defaults."""
    phi = load_fixture(name)
    f, f_inv = rose_of(phi), rose_of(phi.inverse())
    filt = f.filtration
    top = filt.exponential_strata()[-1].index
    r = top if len(filt.strata) > 1 else None
    rng = random.Random(0)

    def sample(draw):
        return [draw(f.graph, 12, rng) for _ in range(100)]

    if lemma == "bcc":
        return growth.validate_bcc(f, 8)
    if lemma in ("bw1", "bw2"):
        return growth.validate_bw1(
            f, f_inv, sample(random_circuit), k_max=5,
            r=top if lemma == "bw2" else None,
        )
    if lemma == "illen":
        return growth.validate_illen(
            sample(random_circuit), 12.0, filt, circuit=True, r=r
        )
    if lemma == "backgrowth":
        return growth.validate_backgrowth(
            f, f_inv, sample(random_circuit), 12.0, n_max=5, m_search_max=12, r=r
        )
    if lemma == "tricho":
        return growth.validate_tricho(f, sample(random_tight_path), 12, 12.0)
    return growth.validate_decomp(sample(random_circuit), 12.0, filt)


@pytest.mark.parametrize("lemma", LEMMAS)
@pytest.mark.parametrize("name", ["fib", "fib_inverse", "plas"])
def test_library_validator_matches_cli(capsys, tmp_path, name, lemma):
    # validate is one library call: the same rows and constants, and its
    # exit code is the report's verdict
    path = tmp_path / f"{name}.aut"
    path.write_text(fixture_text(name))
    code, out, _ = run(capsys, "validate", path, lemma, "--format", "json")
    report = json.loads(out)
    rep = _library_report(name, lemma)
    assert json.loads(canonical_json(rep.rows)) == report["rows"]
    assert json.loads(canonical_json(rep.constants)) == report["constants"]
    assert rep.passed == (code == 0) == report["all_pass"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "fib.aut"],
        ["analyze", "broken.gm"],
        ["nielsen", "fib.aut"],
        *(["validate", "fib.aut", lemma, "--samples", "5"] for lemma in LEMMAS),
    ],
    ids=" ".join,
)
def test_derived_data_computed_once(capsys, files, monkeypatch, argv):
    # GraphMap.filtration and Filtration.metric read these module
    # attributes at call time, so every computation is counted
    counts = {"compute_filtration": 0, "assign_metric": 0}
    for name in counts:
        original = getattr(strata, name)

        def counted(arg, name=name, original=original):
            counts[name] += 1
            return original(arg)

        monkeypatch.setattr(strata, name, counted)
    argv = [str(files / a) if a.endswith((".aut", ".gm")) else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1), err
    assert counts["compute_filtration"] == 1
    assert counts["assign_metric"] <= 1


class TestBudgetErrors:
    """A search that runs out of its budget, or of memory, exits 3 with one
    error line."""

    def test_short_path_budget(self, capsys, files, monkeypatch):
        from traintrack import growth

        monkeypatch.setattr(
            growth, "_longest_short_path",
            functools.partial(growth._longest_short_path, budget=1),
        )
        code, out, err = run(
            capsys, "validate", files / "fib.aut", "decomp", "--samples", "2"
        )
        assert code == 3
        assert out == ""
        assert err == "error: short-path enumeration budget exceeded\n"

    def test_ray_development_budget(self, capsys, files, monkeypatch):
        from traintrack import nielsen

        monkeypatch.setattr(
            nielsen, "_develop_turn",
            functools.partial(nielsen._develop_turn, max_states=-1),
        )
        # len-bound 12 puts the path universe past the orbit budget
        code, out, err = run(
            capsys, "nielsen", files / "fib.aut", "--len-bound", "12"
        )
        assert code == 3
        assert out == ""
        assert err == "error: ray development budget exceeded\n"

    def test_growth_letter_budget(self, capsys, files, monkeypatch):
        from traintrack import cli

        monkeypatch.setattr(
            cli, "growth_table",
            functools.partial(cli.growth_table, letter_budget=20),
        )
        # |phi^6(a)| = 21 for the Fibonacci map
        code, out, err = run(
            capsys, "growth", files / "fib.aut", "a", "--k-max", "8"
        )
        assert code == 3
        assert out == ""
        assert err == "error: letter budget 20 exceeded at exponent 6\n"

    def test_nielsen_orbit_budget(self, capsys, tmp_path):
        # every stratum is polynomial, so ray development does not apply,
        # and the 664,300 tight paths of up to 6 edges pass the orbit budget
        path = tmp_path / "poly5.aut"
        path.write_text(dump_automorphism(Automorphism.from_letter_lists(
            [(1,), (2, 1), (3,), (4,), (5,)]
        )))
        for sub in ("analyze", "nielsen"):
            code, out, err = run(capsys, sub, path)
            assert code == 3
            assert out == ""
            assert err == (
                "error: Nielsen orbit search budget exceeded: 664300 tight "
                "paths of up to 6 edges, budget 200000\n"
            )

    def test_sweep_too_large_to_allocate(self, capsys, files):
        # L=24 passes the rank-3 norm limit, and numpy refuses the 66 PiB
        # of class letters before touching any of it
        code, out, err = run(capsys, "probe", files / "plas.aut", "-L", "24")
        assert code == 3
        assert out == ""
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1

    def test_unpruned_sweep_too_large_to_allocate(self, capsys, tmp_path):
        # every class of the identity returns, so all of them are grown,
        # and the 395 GiB of class letters are refused the same way
        code, out, err = run(capsys, "probe", identity_file(tmp_path, 2), "-L", "24")
        assert code == 3
        assert out == ""
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1


class TestInputErrors:
    def test_missing_file(self, capsys, files):
        code, out, err = run(capsys, "analyze", files / "absent.aut")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_unknown_extension(self, capsys, files):
        code, _, err = run(capsys, "analyze", files / "notes.txt")
        assert code == 2
        assert ".aut or .gm" in err

    def test_parse_error_carries_location(self, capsys, files):
        code, _, err = run(capsys, "probe", files / "bad.aut")
        assert code == 2
        assert "bad.aut:2" in err

    def test_l0_nan_is_refused(self, capsys, files):
        # every comparison with nan is false, so nan once passed as positive
        code, out, err = run(
            capsys, "validate", files / "fib.aut", "decomp",
            "--l0", "nan", "--samples", "5",
        )
        assert (code, out, err) == (2, "", "error: --l0 must be positive\n")

    def test_no_exponential_stratum_is_refused(self, capsys, files, tmp_path):
        # tricho, like illen, bw2 and backgrowth, needs an exponential
        # stratum; the strata of poly and of the identity are polynomial
        refused = (2, "", "error: the map has no exponential stratum\n")
        for path in (files / "poly.aut", identity_file(tmp_path, 2)):
            for lemma in ("tricho", "illen", "bw2", "backgrowth"):
                assert run(capsys, "validate", path, lemma) == refused

    def test_internal_arithmetic_error_exits_4(self, capsys, files, monkeypatch):
        # neither bad input (2) nor a spent budget (3): one error line, no report
        def stalled(*args, **kwargs):
            raise ArithmeticError("power iteration did not converge")

        monkeypatch.setattr(strata, "pf_eigen", stalled)
        code, out, err = run(capsys, "analyze", files / "fib.aut")
        assert (code, out, err) == (
            4, "", "error: power iteration did not converge\n"
        )

    def test_filtration_invariant_error_exits_4(self, capsys, files, monkeypatch):
        # fib's two edges form one component; split, each needs the other
        monkeypatch.setattr(strata, "_components", lambda adj: [(e,) for e in adj])
        code, out, err = run(capsys, "analyze", files / "fib.aut")
        assert (code, out, err) == (
            4, "", "error: dependency cycle across components\n"
        )

    def test_length_below_its_bound_exits_4(self, capsys, files, monkeypatch):
        # certify checks each walked length against its exponent-sum bound
        # with a raise, not an assert, so the check holds under python -O
        abel = hyperbolicity._abelianization
        monkeypatch.setattr(
            hyperbolicity, "_abelianization", lambda images: 10 * abel(images)
        )
        code, out, err = run(capsys, "certify", files / "fib.aut")
        assert (code, out, err) == (
            4, "", "error: a conjugacy length fell below its exponent-sum bound\n"
        )

    def test_missing_inverse_class_exits_4(self, capsys, files, monkeypatch):
        # the probe reads each witness's inverse class off the partner
        # lookup, which refuses a batch that lost one class of a pair
        may_return = hyperbolicity._may_return

        def drop_first(phi, classes, P):
            ok = may_return(phi, classes, P)
            ok[0] = False
            return ok

        monkeypatch.setattr(hyperbolicity, "_may_return", drop_first)
        code, out, err = run(capsys, "probe", files / "poly.aut", "-L", "6")
        assert (code, out, err) == (
            4, "", "error: an inverse class is missing from the batch\n"
        )

    def test_certify_table_is_built_for_csv_only(self, capsys, files, monkeypatch):
        # the per-class table is spelled only when the CSV is written, and
        # inside main's error mapping: json and text keep their pinned bytes
        pinned = json.loads(
            (Path(__file__).parent / "report_bytes.json").read_text()
        )["certify broken.gm -M 30 -L 3"]

        def failing(batch, rank):
            raise ArithmeticError("spelling failed")

        monkeypatch.setattr(engine, "spell_batch", failing)
        argv = ["certify", files / "broken.gm", "-M", "30", "-L", "3", "--format"]
        for fmt in ("json", "text"):
            code, out, err = run(capsys, *argv, fmt)
            assert [code, hashlib.sha256(out.encode()).hexdigest()] == pinned[fmt]
        assert run(capsys, *argv, "csv") == (4, "", "error: spelling failed\n")

    def test_tol_must_be_positive(self, capsys, files):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "analyze", files / "fib.aut", "--tol", "0")
        assert exc.value.code == 2

    def test_argparse_rejects_removed_options(self, capsys, files):
        # --jobs is gone and --seed belongs to validate
        for argv in (
            ["probe", files / "fib.aut", "--jobs", "2"],
            ["certify", files / "fib.aut", "--seed", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                run(capsys, *argv)
            assert exc.value.code == 2

    def test_class_sweeps_limit_rank(self, capsys, tmp_path):
        for sub in ("probe", "certify"):
            code, out, err = run(capsys, sub, identity_file(tmp_path, 129), "-L", "1")
            assert code == 2
            assert out == ""
            assert err == (
                "error: rank 129 is above the class sweep's limit of 128\n"
            )
        code, out, _ = run(capsys, "probe", identity_file(tmp_path, 128), "-L", "1", "-P", "1")
        assert code == 0
        assert json.loads(out)["classes_enumerated"] == 256
        code, out, _ = run(capsys, "certify", identity_file(tmp_path, 128), "-M", "1", "-L", "1")
        assert code == 0
        assert json.loads(out)["table_size"] == 256

    def test_class_sweeps_limit_norm(self, capsys, tmp_path):
        # a class is one uint64 code of base 2 rank: (2 rank)^L <= 2^64
        for sub in ("probe", "certify"):
            code, out, err = run(capsys, sub, identity_file(tmp_path, 1), "-L", "65")
            assert code == 2
            assert out == ""
            assert err == (
                "error: norm 65 is above the class sweep's limit of 64 at rank 1\n"
            )
        code, out, _ = run(capsys, "probe", identity_file(tmp_path, 1), "-L", "64", "-P", "1")
        assert code == 0
        assert json.loads(out)["classes_enumerated"] == 128
        code, out, _ = run(capsys, "certify", identity_file(tmp_path, 1), "-M", "1", "-L", "64")
        assert code == 0
        assert json.loads(out)["table_size"] == 128

    def test_cancellation_search_limits_edges(self, capsys, tmp_path):
        # bcc stores path images as key bytes, one per letter, so a map
        # on 129 edges is refused with one line, also when a validator
        # calls it: the map x_i -> x_i+1, x_129 -> x_2 x_1 is a train
        # track map with one exponential stratum, so bw1 reaches bcc
        shift = tmp_path / "shift129.aut"
        shift.write_text(dump_automorphism(Automorphism.from_letter_lists(
            [(x + 1,) for x in range(1, 129)] + [(2, 1)],
            [(-1, 129)] + [(x - 1,) for x in range(2, 130)],
        )))
        limit = (
            "error: letter 129 is outside the limit of 128 generators or "
            "graph edges that a key-encoded word can hold\n"
        )
        for path, lemma in ((identity_file(tmp_path, 129), "bcc"), (shift, "bw1")):
            code, out, err = run(capsys, "validate", path, lemma)
            assert (code, out, err) == (2, "", limit)
        code, out, _ = run(capsys, "validate", identity_file(tmp_path, 128), "bcc")
        assert code == 0 and "stable,true" in out

    def test_growth_runs_above_the_sweep_rank_limit(self, capsys, tmp_path):
        # growth steps one class in Python ints, so it has no rank limit;
        # on the rank-129 shift map x_i -> x_i+1, x_129 -> x_2 x_1 it
        # prints the naive norms in both directions while the class
        # sweeps refuse the same file
        images = [(x + 1,) for x in range(1, 129)] + [(2, 1)]
        inverse = [(-1, 129)] + [(x - 1,) for x in range(2, 130)]
        shift = tmp_path / "shift129.aut"
        shift.write_text(dump_automorphism(
            Automorphism.from_letter_lists(images, inverse)
        ))
        for sub in ("probe", "certify"):
            assert run(capsys, sub, shift, "-L", "1") == (
                2, "", "error: rank 129 is above the class sweep's limit of 128\n"
            )
        code, out, err = run(
            capsys, "growth", shift, "x1 x129^-1", "--k-min", "-4", "--k-max", "4",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        want = {0: 2}
        for sign, table in ((1, images), (-1, inverse)):
            cur = (1, -129)
            for k in range(1, 5):
                cur = naive_cyclic_reduce(naive_apply(dict(enumerate(table, 1)), cur))
                want[sign * k] = len(cur)
        got = {row["k"]: row["norm"] for row in json.loads(out)["rows"]}
        assert got == want

    def test_argparse_rejects_unknown_lemma(self, capsys, files):
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(files / "fib.aut"), "nope"])
        assert exc.value.code == 2


def _package_env():
    """The environment with the package this suite imported first on
    PYTHONPATH, so that a child Python runs the same code."""
    src = str(Path(traintrack.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoints:
    def test_module_execution(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "traintrack.cli", "growth",
             str(files / "fib.aut"), "a", "--k-max", "3"],
            capture_output=True, text=True, env=_package_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "k,norm\n0,1\n1,2\n2,3\n3,5\n"

    def test_console_script(self, files):
        # The declared entry point, run through the wrapper that pip
        # writes for a console script, so no install is needed.
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert "traintrack" in scripts
        module, func = scripts["traintrack"].split(":")
        assert getattr(importlib.import_module(module), func) is main

        wrapper = (
            "import sys; sys.argv[0] = 'traintrack'; "
            f"from {module} import {func}; sys.exit({func}())"
        )
        args = ["analyze", str(files / "broken.gm")]
        runs = [([sys.executable, "-c", wrapper, *args], _package_env())]
        # Where the package is installed, also run the script on PATH.
        installed = shutil.which("traintrack")
        if installed:
            runs.append(([installed, *args], None))
        for cmd, cmd_env in runs:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=cmd_env
            )
            assert proc.returncode == 1
            assert '"condition": 1' in proc.stdout

    def test_walkthrough_demo(self):
        demo = Path(__file__).resolve().parent.parent / "demos" / "walkthrough.py"
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, env=_package_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "8d102657f491ec919356e6f65dda7dff17ecc885643ec8d8354bc28c678bf56b"
        )


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, stdout) for every `$ traintrack ...` block under the
    README's Command line section."""
    text = README.read_text()
    start = text.index("\n## Command line\n")
    section = text[start : text.index("\n## ", start + 1)]
    out = []
    for block in section.split("```\n")[1::2]:
        if block.startswith("$ traintrack "):
            command, _, expected = block.partition("\n")
            out.append((shlex.split(command)[2:], expected))
    return out


def test_readme_examples_match_output(capsys, files):
    examples = _readme_examples()
    assert len(examples) == 6
    for argv, expected in examples:
        argv = [files / a if a.endswith((".aut", ".gm")) else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected), argv


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so no check in the package may
    rest on one: every module parses without an assert."""
    paths = sorted(Path(traintrack.__file__).resolve().parent.glob("*.py"))
    assert "hyperbolicity.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
