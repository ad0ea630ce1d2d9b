"""End-to-end tour on the two shipped exponential fixtures.

Run as: python3 demos/walkthrough.py
"""

from fractions import Fraction

from traintrack.engine import spell_batch
from traintrack.fixtures import load_fixture
from traintrack.graphs import rose_of
from traintrack.growth import bcc_estimate, validate_bw1
from traintrack.hyperbolicity import (
    atoroidality_probe,
    certificate_search,
    growth_table,
)
from traintrack.nielsen import find_nielsen_paths
from traintrack.strata import verify_rtt
from traintrack.words import Word


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    phi = load_fixture("fib")
    f = rose_of(phi)

    section("strata and growth")
    filt = f.filtration
    for s in filt.strata:
        print(f"stratum {s.index}: {s.kind}, edges {s.edges}, "
              f"lambda {s.pf_value}")
    metric = filt.metric
    print("metric:", {e: round(metric.edge_length(e), 6) for e in (1, 2)})
    print("rtt check:", "pass" if verify_rtt(f).passed else "fail")

    section("turns")
    for t in sorted(f.all_turns()):
        kind, steps, _ = f.turn_orbit(t)
        print(f"turn {t}: {kind} (resolved in {steps} steps)")

    section("periodic Nielsen paths")
    for rec in find_nielsen_paths(f, len_bound=8, period_bound=2):
        print(f"path {rec.path} period={rec.period} "
              f"indivisible={rec.indivisible} exact={rec.exact}")

    section("bounded cancellation")
    data = bcc_estimate(f)
    print(f"C_f = {data.C_f:.10f} (window {data.window}, "
          f"stable={data.stable})")
    print(f"critical length = {data.critical_length(1):.10f}")

    section("backward iteration bound")
    import random
    rng = random.Random(0)
    from traintrack.graphs import random_circuit
    phi_inv = load_fixture("fib_inverse")
    circuits = [random_circuit(f.graph, 10, rng) for _ in range(40)]
    rep = validate_bw1(f, rose_of(phi_inv), circuits, k_max=4)
    print(f"{len(rep.rows)} rows, all pass: {rep.passed}, "
          f"min margin {min(r['margin'] for r in rep.rows):.4f}")

    section("growth of a single class")
    for k, norm in growth_table(phi, Word((1,)), range(0, 8)):
        print(f"|phi^{k}(a)| = {norm}")

    section("atoroidality probe")
    rep = atoroidality_probe(phi, L=4, P=2)
    print("verdict:", rep.verdict)
    classes = spell_batch(rep.witnesses, phi.rank)
    for cls, period, step in zip(classes, rep.period, rep.inversion_step):
        print(f"  witness {cls} period={period} inverted={step > 0}")

    section("uniform growth certificate (plastic map)")
    plas = load_fixture("plas")
    cert = certificate_search(plas, M_max=10, L=8)
    print("verdict:", cert.verdict)
    print(f"M = {cert.M}, lambda = {Fraction(*cert.lam_exact)}")
    for M, num, den, argmin in cert.history:
        print(f"  M={M}: worst ratio {Fraction(num, den)} at {argmin}")


if __name__ == "__main__":
    main()
