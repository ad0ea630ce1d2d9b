"""End-to-end acceptance checks.

Twelve independent criteria, one test each, every one self-contained
and finishing well inside a minute.  Each prints a single verdict line
(visible with -s or in captured output on failure).
"""

import math
from fractions import Fraction

from traintrack.cli import main as cli_main
from traintrack.fixtures import fixture_text, load_fixture
from traintrack.graphs import (
    iter_tight_paths,
    make_turn,
    random_circuit,
    rose_of,
)
from traintrack.growth import (
    _max_cancellation,
    bcc_estimate,
    growth_table,
    trichotomy_classify,
    validate_bw1,
)
from traintrack.hyperbolicity import atoroidality_probe, certificate_search
from traintrack.nielsen import split_basic_paths, verify_splitting
from traintrack.strata import (
    assign_metric,
    compute_filtration,
    pf_eigen,
    transition_matrix,
    verify_rtt,
)
from traintrack.words import CyclicWord, conjugate_automorphism

from conftest import PHI, random_reduced_word, witness_rows

PLASTIC = 1.3247179572447460
INP = (-1, -2, 1, 2)


def verdict(n, slug):
    print(f"criterion {n:02d} {slug}: PASS")


def test_criterion_01_pf_data(fib_rose, plas_rose):
    filt = compute_filtration(fib_rose)
    lam, v = pf_eigen(transition_matrix(fib_rose, filt.strata[0].edges))
    assert abs(lam - (1 + math.sqrt(5)) / 2) < 1e-9
    assert abs(min(v) - 1.0) < 1e-12 and abs(max(v) - lam) < 1e-9
    pfilt = compute_filtration(plas_rose)
    plam, _ = pf_eigen(transition_matrix(plas_rose, pfilt.strata[0].edges))
    assert abs(plam - PLASTIC) < 1e-9
    assert abs(plam ** 3 - plam - 1) < 1e-9
    verdict(1, "pf-data")


def test_criterion_02_metric_expansion(fib_rose):
    filt = compute_filtration(fib_rose)
    metric = assign_metric(filt)
    lam = filt.strata[0].pf_value
    checked = 0
    for p in iter_tight_paths(fib_rose.graph, 10):
        if not fib_rose.is_legal(p):
            continue
        image = fib_rose.map_letters(p)
        assert math.isclose(
            metric.length(image), lam * metric.length(p), rel_tol=1e-9
        ), p
        checked += 1
    assert checked > 0
    verdict(2, "metric-expansion")


def test_criterion_03_turn_legality(fib_rose):
    turns = fib_rose.all_turns()
    assert len(turns) == 6
    assert fib_rose.illegal_turns == frozenset({make_turn(1, 2)})
    for t in turns:
        kind, steps, _ = fib_rose.turn_orbit(t)
        assert kind in ("legal", "illegal")
        assert steps <= 7
    verdict(3, "turn-legality")


def test_criterion_04_bounded_cancellation(fib_rose, plas_rose):
    for f in (fib_rose, plas_rose):
        filt = compute_filtration(f)
        metric = assign_metric(filt)
        data = bcc_estimate(f)
        assert data.stable
        # exact maximum of the defect over every tight concatenation
        # with both factors at most 8 edges; <= C_f means zero violations
        worst = _max_cancellation(f, metric, 8)
        assert worst <= data.C_f + 1e-9
    verdict(4, "bounded-cancellation")


def test_criterion_05_bw1_validator(fib_rose, fib_inv_rose, rng):
    circuits = [random_circuit(fib_rose.graph, 12, rng) for _ in range(500)]
    rep = validate_bw1(fib_rose, fib_inv_rose, circuits, k_max=5)
    assert len(rep.rows) == 2500
    assert rep.passed
    assert all(row["margin"] > 0 for row in rep.rows)
    verdict(5, "bw1-validator")


def test_criterion_06_atoroidality_probe(fib, plas):
    rep = atoroidality_probe(fib, L=4, P=2)
    assert rep.verdict == "not-atoroidal"
    commutator = CyclicWord((1, 2, -1, -2))
    assert (commutator.letters, 2, True, 1) in witness_rows(rep)
    clean = atoroidality_probe(plas, L=10, P=6)
    assert clean.verdict == "no-witness-within-bounds"
    assert witness_rows(clean) == []
    assert clean.classes_enumerated == 1257526
    verdict(6, "atoroidality-probe")


def test_criterion_07_certificate_search(fib, plas):
    none = certificate_search(fib, M_max=20, L=8)
    assert none.verdict == "no-certificate-within-bounds"
    assert len(none.history) == 20
    assert all(Fraction(n, d) == 1 for _, n, d, _ in none.history)
    cert = certificate_search(plas, M_max=20, L=8)
    assert cert.verdict == "empirical-certificate"
    # frozen brute-force oracle: M = 3, lambda = 6/5 over norm <= 8
    assert cert.M == 3
    assert Fraction(*cert.lam_exact) == Fraction(6, 5)
    assert cert.lam > 1
    verdict(7, "certificate-search")


def test_criterion_08_splitting(poly_rose, rng):
    filt = compute_filtration(poly_rose)
    cancellations = 0
    for _ in range(50):
        c = random_circuit(poly_rose.graph, 10, rng)
        pieces = split_basic_paths(poly_rose, c, r=2, circuit=True)
        whole = tuple(d for p in pieces for d in p)
        ok, detail = verify_splitting(
            poly_rose, whole, pieces, k_max=5, circuit=True
        )
        if not ok:
            cancellations += 1
    assert cancellations == 0
    verdict(8, "splitting")


def test_criterion_09_growth_series(fib):
    table = growth_table(fib, (1,), range(0, 7))
    assert table == [(0, 1), (1, 2), (2, 3), (3, 5), (4, 8), (5, 13), (6, 21)]
    verdict(9, "growth-series")


def test_criterion_10_outer_invariance(fib, plas, rng):
    for phi, probe_args, cert_args in (
        (fib, dict(L=4, P=2), dict(M_max=6, L=4)),
        (plas, dict(L=6, P=3), dict(M_max=10, L=6)),
    ):
        base_probe = atoroidality_probe(phi, **probe_args)
        base_cert = certificate_search(phi, **cert_args)
        for _ in range(10):
            g = random_reduced_word(phi.rank, rng.randint(1, 4), rng)
            psi = conjugate_automorphism(phi, g)
            assert atoroidality_probe(psi, **probe_args).verdict == base_probe.verdict
            cert = certificate_search(psi, **cert_args)
            assert cert.verdict == base_cert.verdict
            assert (cert.M, cert.lam_exact) == (base_cert.M, base_cert.lam_exact)
    verdict(10, "outer-invariance")


def test_criterion_11_trichotomy(fib_rose):
    filt = compute_filtration(fib_rose)
    metric = assign_metric(filt)
    legal = trichotomy_classify(fib_rose, (1, 1, 1, 1), M=1, L=3.0)
    assert legal.case == "long-legal-segment"
    drop = trichotomy_classify(fib_rose, (-1, 2), M=1, L=10.0)
    assert drop.case == "fewer-illegal-turns"
    assert drop.witness["M"] == 1
    split = trichotomy_classify(fib_rose, INP, M=1, L=4.0)
    assert split.case == "pre-nielsen-splitting"
    for v in (legal, drop, split):
        assert v.case != "unresolved"
    verdict(11, "trichotomy")


def test_criterion_12_negative_controls(broken, tmp_path, capsys):
    filt = compute_filtration(broken)
    rep = verify_rtt(broken)
    assert not rep.passed
    (violation,) = rep.rows
    assert violation["condition"] == 1
    assert violation["edge"] == "ea"
    path = tmp_path / "broken.gm"
    path.write_text(fixture_text("broken"))
    code = cli_main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert '"edge": "ea"' in out
    verdict(12, "negative-controls")
