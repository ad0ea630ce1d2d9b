import math
import random

import numpy as np
import pytest

from traintrack.graphs import GraphMap, iter_tight_paths, rose_of
from traintrack.strata import (
    Metric,
    assign_metric,
    compute_filtration,
    is_irreducible,
    pf_eigen,
    transition_matrix,
    verify_improved,
    verify_rtt,
)

from conftest import PHI, random_rose_map, reach_closure

PLASTIC = 1.3247179572447460  # real root of x^3 = x + 1


class TestTransitionMatrix:
    def test_fib(self, fib_rose, fib_filtration):
        m = transition_matrix(fib_rose, fib_filtration.strata[0].edges)
        assert m == [[1, 1], [1, 0]]
        assert all(type(x) is int for row in m for x in row)

    def test_counts_are_unsigned(self, plas_rose, plas_filtration):
        m = transition_matrix(plas_rose, plas_filtration.strata[0].edges)
        # column/row conventions aside, total crossings match image lengths
        assert sum(map(sum, m)) == sum(
            len(plas_rose.edge_image(e)) for e in (1, 2, 3)
        )


def _random_irreducible(n, rng):
    """A random irreducible nonnegative integer n x n matrix, as rows: a
    permutation matrix of one n-cycle, a block-cyclic (periodic) matrix,
    or a sparse aperiodic one.  The oracle is conftest.reach_closure, and
    a 1 x 1 matrix must be positive."""
    while True:
        kind = rng.choice(("cycle", "periodic", "sparse"))
        if kind == "cycle":
            order = rng.sample(range(n), n)
            m = [[0] * n for _ in range(n)]
            for i, j in zip(order, order[1:] + order[:1]):
                m[i][j] = 1
        elif kind == "periodic":
            # entries only from one block of a cyclic partition to the next
            block = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
            p = max(block) + 1
            m = [[rng.choice((0, 1, 1, 2, 3)) if block[j] == (block[i] + 1) % p
                  else 0 for j in range(n)] for i in range(n)]
        else:
            m = [[rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(n)]
                 for _ in range(n)]
        if all(map(any, m)) and reach_closure(np.array(m) > 0).all():
            return m


class TestPfEigen:
    def test_fib_value_and_vector(self, fib_rose, fib_filtration):
        m = transition_matrix(fib_rose, fib_filtration.strata[0].edges)
        lam, v = pf_eigen(m)
        assert abs(lam - PHI) < 1e-9
        v = list(v)
        # min-entry normalization puts the vector at (phi, 1)
        assert abs(min(v) - 1.0) < 1e-12
        assert abs(max(v) - PHI) < 1e-9

    def test_plas_is_plastic_number(self, plas_rose, plas_filtration):
        m = transition_matrix(plas_rose, plas_filtration.strata[0].edges)
        lam, _ = pf_eigen(m)
        assert abs(lam - PLASTIC) < 1e-9
        assert abs(lam ** 3 - lam - 1) < 1e-9

    def test_exact_bits(self, fib_rose, fib_filtration, plas_rose, plas_filtration):
        # the folds run in a fixed order, so the bits are the same on every
        # host; a change of that order shows here
        for f, filt, want in (
            (fib_rose, fib_filtration,
             "(1.618033988749895, (1.6180339887482036, 1.0))"),
            (plas_rose, plas_filtration,
             "(1.3247179572443486, (1.0, 1.3247179572446062, 1.754877666248871))"),
        ):
            assert repr(pf_eigen(transition_matrix(f, filt.strata[0].edges))) == want

    def test_residual_is_small(self, plas_rose, plas_filtration):
        # v is a left eigenvector: rows index crossings of f(E_j)
        m = transition_matrix(plas_rose, plas_filtration.strata[0].edges)
        lam, v = pf_eigen(m)
        residual = max(
            abs(math.fsum(m[i][j] * v[i] for i in range(3)) - lam * v[j])
            for j in range(3)
        )
        assert residual < 1e-9 * lam

    def test_matches_numpy_eig(self):
        """On 300 seeded irreducible matrices of sizes 1 to 7, periodic
        ones among them, the value and the min-1 vector agree with
        numpy.linalg.eig's to 1e-9 relative."""
        rng = random.Random("pf differential")
        kinds = set()
        for i in range(300):
            n = 1 + i % 7
            m = _random_irreducible(n, rng)
            kinds.add(sum(map(sum, m)) == n and max(map(max, m)) == 1)
            lam, v = pf_eigen(m)
            values, vectors = np.linalg.eig(np.array(m, dtype=float).T)
            k = int(np.argmax(values.real))
            want = np.abs(vectors[:, k].real)
            want /= want.min()
            assert abs(lam - values[k].real) <= 1e-9 * values[k].real, m
            assert np.abs(np.array(v) - want).max() <= 1e-9 * want.max(), m
            assert min(v) == 1.0
        assert kinds == {True, False}  # permutation matrices and others

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            pf_eigen(np.array([[1, 1], [0, 1]]))
        assert not is_irreducible(np.array([[1, 1], [0, 1]]))
        assert is_irreducible(np.array([[1, 1], [1, 0]]))


class TestFiltration:
    def test_fib_single_exponential(self, fib_filtration):
        assert len(fib_filtration.strata) == 1
        s = fib_filtration.strata[0]
        assert s.kind == "exponential" and s.index == 1
        assert s.edges == (1, 2)

    def test_poly_tower(self, poly_rose):
        filt = compute_filtration(poly_rose)
        kinds = [(s.edges, s.kind) for s in filt.strata]
        assert kinds == [((1,), "polynomial"), ((2,), "polynomial")]

    def test_identity_all_polynomial(self, ident):
        filt = compute_filtration(rose_of(ident))
        assert all(s.kind == "polynomial" for s in filt.strata)

    def test_rel_two_strata(self, rel_rose):
        filt = compute_filtration(rel_rose)
        assert [(s.edges, s.kind) for s in filt.strata] == [
            ((1,), "polynomial"),
            ((2, 3), "exponential"),
        ]
        assert abs(filt.strata[1].pf_value - PHI) < 1e-9

    def test_invariance(self, plas_rose, plas_filtration):
        # images never cross edges above their own stratum
        for s in plas_filtration.strata:
            through = plas_filtration.edges_through(s.index)
            for e in s.edges:
                assert all(abs(d) in through for d in plas_rose.edge_image(e))

    def test_zero_stratum(self):
        # an edge whose image misses its own stratum entirely
        filt = compute_filtration(_zero_example())
        assert filt.strata[-1].kind == "zero"

    def test_stratum_of(self, rel_rose):
        filt = compute_filtration(rel_rose)
        assert filt.stratum_of(1) == 1
        assert filt.stratum_of(2) == 2
        assert filt.stratum_of(3) == 2

    def test_stratum_lookup(self, rel_rose):
        filt = compute_filtration(rel_rose)
        assert [filt.stratum(r) for r in (1, 2)] == list(filt.strata)
        for r in (0, 3):
            with pytest.raises(ValueError, match=f"no stratum {r}"):
                filt.stratum(r)

    def test_random_roses_meet_the_placement_rule(self):
        """On 200 seeded rose maps of ranks 2 to 5: the strata partition
        the edges; each is a maximal set of mutually reachable edges (the
        oracle is conftest.reach_closure); every image lies in G_r; each
        stratum has the least edge among the strata that could have been
        placed at its position; and a stratum is zero exactly when its
        transition matrix is, polynomial exactly when it is a permutation
        matrix."""
        rng = random.Random("filtration spec")
        zero = ties = 0
        for i in range(200):
            f = random_rose_map(2 + i % 4, rng)
            n = f.graph.edge_count
            images = [f.edge_image(e) for e in range(1, n + 1)]
            adjacency = np.zeros((n, n), dtype=bool)
            for e, image in enumerate(images):
                for d in image:
                    adjacency[e, abs(d) - 1] = True
            closure = reach_closure(adjacency)
            mutual = closure & closure.T
            filt = compute_filtration(f)
            strata = filt.strata
            assert [s.index for s in strata] == list(range(1, len(strata) + 1))
            assert sorted(e for s in strata for e in s.edges) == list(range(1, n + 1))
            for s in strata:
                assert s.edges == tuple(sorted(s.edges)), images
                for e in s.edges:
                    assert set(s.edges) == {
                        d + 1 for d in np.flatnonzero(mutual[e - 1])
                    }, (images, s)
                    assert all(
                        abs(d) in filt.edges_through(s.index)
                        for d in images[e - 1]
                    ), (images, s)
                m = np.array(transition_matrix(f, s.edges))
                permutation = ((m == 0) | (m == 1)).all() and (
                    (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
                )
                assert (s.kind == "zero") == (not m.any()), (images, s)
                assert (s.kind == "polynomial") == permutation, (images, s)
                zero += s.kind == "zero"
            for s in strata:
                below = filt.edges_below(s.index)
                placeable = [
                    t for t in strata[s.index:]
                    if all(abs(d) in below | set(t.edges)
                           for e in t.edges for d in images[e - 1])
                ]
                ties += bool(placeable)
                assert all(t.edges[0] > s.edges[0] for t in placeable), (
                    images, s, placeable
                )
        # the corpus exercises zero strata and choices between components
        assert zero and ties

    def test_map_owns_filtration_and_metric(self, plas):
        f = rose_of(plas)
        filt = f.filtration
        assert filt is f.filtration
        assert filt == compute_filtration(f)
        assert filt.metric is filt.metric
        assert filt.metric == assign_metric(filt)


def _two_rose():
    from traintrack.graphs import Graph

    return Graph(["v"], [("a", "v", "v"), ("b", "v", "v")],
                 marking={"a": (1,), "b": (2,)})


def _zero_example():
    # a -> b, b -> b: the top stratum {a} has zero transition matrix
    return GraphMap(_two_rose(), {"v": "v"}, {"a": (2,), "b": (2,)})


def _tree_example():
    # a, b: a fib rose at v; t: u -> w, s: v -> u, r: w -> v, each sent
    # into the rose.  The zero strata {t}, {s}, {r} come in that order;
    # {t} alone is a tree component of G_2, while s and r close loops.
    from traintrack.graphs import Graph

    g = Graph(["v", "u", "w"], [("a", "v", "v"), ("b", "v", "v"),
                                ("t", "u", "w"), ("s", "v", "u"),
                                ("r", "w", "v")])
    return GraphMap(g, {"v": "v", "u": "v", "w": "v"},
                    {"a": (1, 2), "b": (1,), "t": (1,), "s": (2,), "r": (1,)})


class TestMetric:
    def test_fib_expands_by_lambda(self, fib_rose, fib_filtration):
        metric = assign_metric(fib_filtration)
        lam = fib_filtration.strata[0].pf_value
        # every legal (here: every edge) image expands by exactly lambda
        for e in (1, 2):
            img = fib_rose.edge_image(e)
            assert math.isclose(
                metric.length(img), lam * metric.edge_length(e), rel_tol=1e-9
            )

    def test_legal_paths_expand_exactly(self, fib_rose, fib_filtration):
        metric = assign_metric(fib_filtration)
        lam = fib_filtration.strata[0].pf_value
        legal = [
            p for p in iter_tight_paths(fib_rose.graph, 10)
            if fib_rose.is_legal(p)
        ]
        assert len(legal) > 100
        for p in legal:
            img = fib_rose.map_letters(p)
            assert math.isclose(
                metric.length(img), lam * metric.length(p), rel_tol=1e-9
            )

    def test_lengths_fold_left_to_right(self):
        # a compensated sum (sum() from Python 3.12) would give 1 + 2e-16
        met = Metric(lengths={1: 1.0, 2: 1e-16, 3: 5.0})
        assert met.length((1, 2, -2)) == 1.0
        assert met.r_length((1, 3, 2, -2), {1, 2}) == 1.0
        assert met.length(()) == 0.0 and type(met.length(())) is float

    def test_metric_values(self, fib_filtration):
        metric = assign_metric(fib_filtration)
        assert abs(metric.edge_length(1) - PHI) < 1e-9
        assert metric.edge_length(2) == 1.0
        assert metric.edge_length(-1) == metric.edge_length(1)

    def test_poly_edges_get_unit_length(self, poly_rose):
        filt = compute_filtration(poly_rose)
        metric = assign_metric(filt)
        assert metric.lengths == {1: 1.0, 2: 1.0}

    def test_rel_metric(self, rel_rose):
        filt = compute_filtration(rel_rose)
        metric = assign_metric(filt)
        assert metric.edge_length(1) == 1.0
        assert abs(metric.edge_length(3) / metric.edge_length(2) - PHI) < 1e-9

    def test_r_length_counts_top_edges_only(self, rel_rose):
        filt = compute_filtration(rel_rose)
        metric = assign_metric(filt)
        hr = set(filt.strata[1].edges)
        assert metric.r_length((1, 2, -3, 1), hr) == pytest.approx(
            metric.edge_length(2) + metric.edge_length(3)
        )


class TestVerify:
    def test_fib_passes_rtt(self, fib_rose, fib_filtration):
        rep = verify_rtt(fib_rose)
        assert rep.passed and rep.rows == []

    def test_plas_rel_pass(self, plas_rose, rel_rose):
        assert verify_rtt(plas_rose).passed
        assert verify_rtt(rel_rose).passed

    def test_broken_fails_condition_1_on_ea(self, broken):
        filt = compute_filtration(broken)
        rep = verify_rtt(broken)
        assert not rep.passed
        assert len(rep.rows) == 1
        v = rep.rows[0]
        assert v["condition"] == 1
        assert v["edge"] == "ea"

    def test_improved_flags_periodic_nielsen_path(self, fib_rose, fib_filtration):
        # an honest train track map can still fail the stronger conditions
        rep = verify_improved(fib_rose)
        assert not rep.passed
        assert any("period 2" in v.get("detail", "") for v in rep.rows)

    def test_improved_passes_plas(self, plas_rose):
        assert verify_improved(plas_rose).passed

    def test_improved_zero_strata_against_tree_components(self):
        # property 2 holds for a zero stratum that is a tree component of
        # G_r ({t}) and fails for one that closes a loop ({s}, {r}, {a})
        f = _tree_example()
        assert [(s.edges, s.kind) for s in f.filtration.strata] == [
            ((1, 2), "exponential"), ((3,), "zero"), ((4,), "zero"),
            ((5,), "zero"),
        ]
        rep = verify_improved(f)
        assert rep.constants == {"nielsen_records": 1, "strata": 4}
        assert rep.rows == [
            {"property": 1, "detail": "Nielsen path a^-1 b^-1 a b has period 2"},
            {"property": 3, "stratum": 2,
             "detail": "zero stratum not followed by an exponential one"},
            {"property": 2, "stratum": 3,
             "detail": "zero stratum ['s'] != contractible part []"},
            {"property": 3, "stratum": 3,
             "detail": "zero stratum not followed by an exponential one"},
            {"property": 2, "stratum": 4,
             "detail": "zero stratum ['r'] != contractible part []"},
            {"property": 3, "stratum": 4,
             "detail": "zero stratum not followed by an exponential one"},
        ]
        rep = verify_improved(_zero_example())
        assert rep.rows == [
            {"property": 2, "stratum": 2,
             "detail": "zero stratum ['a'] != contractible part []"},
            {"property": 3, "stratum": 2,
             "detail": "zero stratum not followed by an exponential one"},
        ]
