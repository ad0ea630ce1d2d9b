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

INP = (-1, -2, 1, 2)  # a^-1 b^-1 a b


class TestTurns:
    def test_fib_has_exactly_one_illegal_turn(self, fib_rose):
        assert fib_rose.illegal_turns == frozenset({make_turn(1, 2)})

    def test_fib_turn_census(self, fib_rose):
        turns = fib_rose.all_turns()
        assert len(turns) == 6
        cls = fib_rose.turn_classification
        assert sorted(cls[t] for t in turns).count("illegal") == 1
        assert sorted(cls[t] for t in turns).count("legal") == 5

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
