import itertools
import random

import pytest

from traintrack.graphs import (
    Graph,
    GraphMap,
    is_degenerate,
    make_turn,
    random_circuit,
    rose_of,
)
from traintrack.nielsen import (
    basic_path_type,
    check_np_constraints,
    find_nielsen_paths,
    is_pre_nielsen,
    split_basic_paths,
    verify_splitting,
)
from traintrack.strata import compute_filtration
from traintrack.words import inverse_word, letter_key

INP = (-1, -2, 1, 2)  # a^-1 b^-1 a b


class TestTurns:
    def test_fib_has_exactly_one_illegal_turn(self, fib_rose):
        assert fib_rose.illegal_turns == frozenset({make_turn(1, 2)})

    def test_fib_turn_census(self, fib_rose):
        turns = fib_rose.all_turns()
        assert len(turns) == 6
        illegal = [t for t in turns if t in fib_rose.illegal_turns]
        assert len(illegal) == 1
        assert len(turns) - len(illegal) == 5

    def test_orbits_resolve_quickly(self, fib_rose):
        # a repeat or a degeneracy must appear within #turns + 1 steps
        for t in fib_rose.all_turns():
            verdict, steps, orbit = fib_rose.turn_orbit(t)
            assert verdict in ("legal", "illegal")
            assert steps <= 7
            assert orbit[0] == t

    def test_illegal_turn_degenerates(self, fib_rose):
        img = fib_rose.turn_image(make_turn(1, 2))
        assert is_degenerate(img)

    def test_plas_single_illegal_turn(self, plas_rose):
        # directions -1 and -3 both map to -2
        assert plas_rose.illegal_turns == frozenset({make_turn(-1, -3)})
        assert is_degenerate(plas_rose.turn_image(make_turn(-1, -3)))

    def test_is_legal(self, fib_rose):
        assert fib_rose.is_legal((1, 1))
        assert fib_rose.is_legal((2, 1))
        assert not fib_rose.is_legal((-1, 2))  # crosses the {a, b} turn


class TestSearch:
    def test_fib_inventory(self, fib_rose):
        recs = find_nielsen_paths(fib_rose)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.path in (INP, tuple(-d for d in reversed(INP)))
        assert rec.period == 2
        assert rec.indivisible
        assert rec.illegal_count == 1
        assert rec.height == 1
        assert rec.exact

    def test_fib_inp_swaps_orientation(self, fib_rose):
        rec = find_nielsen_paths(fib_rose)[0]
        once = fib_rose.map_letters(rec.path)
        assert once == rec.reversed().path
        assert fib_rose.map_letters(once) == rec.path

    def test_rel_inventory(self, rel_rose):
        recs = find_nielsen_paths(rel_rose, len_bound=6)
        by_path = {r.path: r for r in recs}
        # the fixed polynomial edge generates a period-1 family
        assert by_path[(1,)].period == 1 and by_path[(1,)].indivisible
        assert not by_path[(1, 1)].indivisible
        top = by_path[(-2, -1, -3, 2, 1, 3)]
        assert top.period == 2 and top.indivisible and top.height == 2

    def test_plas_has_none(self, plas_rose):
        assert find_nielsen_paths(plas_rose, len_bound=6) == []

    def test_develop_agrees_with_orbit(self, fib_rose):
        orbit = find_nielsen_paths(fib_rose)
        develop = find_nielsen_paths(fib_rose, orbit_budget=0)
        key = {(r.path, r.period) for r in orbit if r.indivisible}
        assert key <= {(r.path, r.period) for r in develop}
        # develop also returns tight concatenations at the same tip
        assert all(r.exact for r in develop)

    # the develop inventory at the defaults, as (path, period, exact,
    # start_fraction, end_fraction, method)
    DEVELOP = {
        "fib": [
            ((-1, -2, 1, 2), 2, True, 0.0, 1.0, "develop"),
            ((-1, -2, 1, 2, -1, -2, 1, 2), 2, True, 0.0, 1.0, "compose"),
            ((-1, -2, 1, 2, -1, -2, 1, 2, -1, -2, 1, 2), 2, True, 0.0, 1.0,
             "compose"),
        ],
        "fib_inverse": [
            ((-1, -2), 2, False, 0.0, 0.6180339887498948, "develop"),
            ((-2, 1, 2), 2, False, 0.6180339887501415, 1.0, "develop"),
        ],
    }

    @pytest.mark.parametrize("name", sorted(DEVELOP))
    def test_develop_inventory(self, request, name):
        f = rose_of(request.getfixturevalue(name))
        recs = find_nielsen_paths(f, orbit_budget=0)
        assert [
            (r.path, r.period, r.exact, r.start_fraction, r.end_fraction,
             r.method)
            for r in recs
        ] == self.DEVELOP[name]

    @pytest.mark.parametrize(
        "name, orbit_budget",
        [(n, 200_000) for n in ("fib", "fib_inverse", "poly", "rel", "ident")]
        # the develop search runs only when every stratum is exponential
        + [(n, 0) for n in ("fib", "fib_inverse")],
    )
    def test_records_precede_their_reverse(self, request, name, orbit_budget):
        # a path is reported in the orientation whose letter keys come first
        f = rose_of(request.getfixturevalue(name))
        recs = find_nielsen_paths(f, orbit_budget=orbit_budget)
        assert recs
        for rec in recs:
            keys = [letter_key(d) for d in rec.path]
            assert keys < [letter_key(d) for d in inverse_word(rec.path)]


class TestIsPreNielsen:
    def test_nielsen_itself(self, fib_rose):
        assert is_pre_nielsen(fib_rose, INP) == ("nielsen", 0, 2)

    def test_transient(self, fib_rose):
        assert is_pre_nielsen(fib_rose, (2, -1))[0] == "transient"
        assert is_pre_nielsen(fib_rose, (1,))[0] == "transient"

    def test_strictly_pre(self):
        g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")],
                  marking={"a": (1,), "b": (2,)})
        collapse = GraphMap(g, {"v": "v"}, {"a": (1,), "b": (1,)})
        assert is_pre_nielsen(collapse, (2,)) == ("pre-nielsen", 1, 1)


class TestConstraints:
    def test_fib_inp_passes_all(self, fib_rose):
        rec = find_nielsen_paths(fib_rose)[0]
        out = check_np_constraints(fib_rose, rec)
        assert out == {
            "one_illegal_turn": True,
            "halves_legal": True,
            "height_exponential": True,
            "periodic": True,
            "endpoints_fixed": True,
        }

    def test_divisible_record_fails_turn_count(self, fib_rose):
        recs = find_nielsen_paths(fib_rose, orbit_budget=0)
        squared = next(r for r in recs if len(r.path) == 8)
        out = check_np_constraints(fib_rose, squared)
        assert out["one_illegal_turn"] is False


class TestSplitting:
    @pytest.fixture()
    def poly_filtration(self, poly_rose):
        return compute_filtration(poly_rose)

    def test_piece_shapes(self, poly_rose, poly_filtration):
        pieces = split_basic_paths(
            poly_rose, (2, 1, 1, -2, 1, 2, 1), r=2
        )
        types = [basic_path_type(poly_filtration, p, 2) for p in pieces]
        assert types == ["eue", "u", "eu"]

    def test_interior_stays_below(self, poly_rose, poly_filtration, rng):
        for _ in range(50):
            c = random_circuit(poly_rose.graph, 10, rng)
            pieces = split_basic_paths(
                poly_rose, c, r=2, circuit=True
            )
            for p in pieces:
                body = list(p)
                if body and body[0] == 2:
                    body = body[1:]
                if body and body[-1] == -2:
                    body = body[:-1]
                assert all(abs(d) != 2 for d in body)

    def test_random_circuits_split_without_cancellation(
        self, poly_rose, poly_filtration, rng
    ):
        # images of the pieces must concatenate cleanly at every power
        for _ in range(50):
            c = random_circuit(poly_rose.graph, 10, rng)
            pieces = split_basic_paths(
                poly_rose, c, r=2, circuit=True
            )
            whole = tuple(d for p in pieces for d in p)
            ok, detail = verify_splitting(
                poly_rose, whole, pieces, k_max=5, circuit=True
            )
            assert ok, detail

    @pytest.mark.parametrize("name, r", [("poly_rose", 2), ("rel_rose", 1)])
    def test_circuit_cuts_are_the_e_junctions(self, request, name, r):
        # pieces of a circuit join to a rotation of it, cut exactly at the
        # junctions just before E or just after E^-1, whichever cut the
        # list starts at
        f = request.getfixturevalue(name)
        e = f.filtration.stratum(r).edges[0]
        below = f.filtration.edges_through(r)
        assert below == frozenset(range(1, len(below) + 1))
        sub = Graph(["v"], [(f.graph.edge_names[i - 1], "v", "v")
                            for i in sorted(below)])
        rng = random.Random(f"split {name}")
        for _ in range(200):
            c = random_circuit(sub, 10, rng)
            n = len(c)
            want = {j for j in range(n) if c[j] == -e or c[(j + 1) % n] == e}
            pieces = split_basic_paths(f, c, r=r, circuit=True)
            assert all(pieces)
            if not want:
                assert pieces == [c]
                continue
            joined = tuple(d for p in pieces for d in p)
            shift = next(s for s in range(n) if joined == c[s:] + c[:s])
            ends = list(itertools.accumulate(len(p) for p in pieces))
            assert {(shift + q - 1) % n for q in ends} == want

    def test_bad_split_is_caught(self, fib_rose):
        ok, detail = verify_splitting(fib_rose, INP, [INP[:2], INP[2:]])
        assert not ok
        assert detail["reason"] == "cancellation"
        ok, detail = verify_splitting(fib_rose, INP, [INP[:2]])
        assert not ok

    def test_requires_single_edge_polynomial_stratum(
        self, fib_rose, fib_filtration
    ):
        with pytest.raises(ValueError):
            split_basic_paths(fib_rose, (1, 2), r=1)

    def test_path_outside_subgraph_rejected(self, poly_rose, poly_filtration):
        with pytest.raises(ValueError):
            split_basic_paths(poly_rose, (2,), r=1)

    @pytest.mark.parametrize("r", [0, 5])
    def test_missing_stratum(self, poly_rose, poly_filtration, r):
        with pytest.raises(ValueError, match=f"no stratum {r}"):
            split_basic_paths(poly_rose, (2, 1), r=r)
        with pytest.raises(ValueError, match=f"no stratum {r}"):
            basic_path_type(poly_filtration, (2, 1), r)
