import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack.graphs import (
    Graph,
    GraphMap,
    canonical_circuit,
    induced_automorphism,
    is_degenerate,
    iter_tight_paths,
    make_turn,
    preimage_circuit,
    random_circuit,
    random_tight_path,
    rose_of,
    tighten,
    turns_of_circuit,
    turns_of_path,
)
from traintrack.strata import compute_filtration
from traintrack.words import (
    Automorphism, CyclicWord, Word, cyclic_core, letter_key, outer_equal,
)

from conftest import naive_apply, naive_cyclic_reduce


@pytest.fixture(scope="module")
def theta():
    # two vertices, three edges; no valence-1 vertices
    return Graph(
        ["u", "v"],
        [("p", "u", "v"), ("q", "u", "v"), ("r", "u", "v")],
        marking={"p": (), "q": (1,), "r": (2,)},
        marking_rank=2,
    )


def test_graph_rejects_malformed():
    with pytest.raises(ValueError):
        Graph([], [])
    with pytest.raises(ValueError):
        Graph(["v"], [("e", "v", "w")])
    with pytest.raises(ValueError):
        Graph(["v", "w"], [("e", "v", "w")])  # valence 1
    with pytest.raises(ValueError):
        Graph(
            ["v", "w", "x"],
            [("e", "v", "w"), ("f", "w", "v"), ("g", "x", "x"), ("h", "x", "x")],
        )  # disconnected


def test_edge_lookups(theta):
    assert theta.edge_id("q") == 2
    assert theta.origin(2) == "u" and theta.terminus(2) == "v"
    assert theta.origin(-2) == "v" and theta.terminus(-2) == "u"
    assert theta.edge_name(1) == "p" and theta.edge_name(-1) == "p^-1"
    assert theta.rank == 2  # euler characteristic


def test_tighten_and_cyclic_tighten():
    assert tighten((1, -1, 2)) == (2,)
    assert tighten(()) == ()
    assert cyclic_core(tighten((3, 1, -1, 2, -3))) == (2,)


def test_paths_validate(theta, fib_rose):
    theta.check_path((1, -2, 3))
    with pytest.raises(ValueError):
        theta.check_path((1, 2))  # q starts at u, not v
    with pytest.raises(ValueError):
        theta.check_path((1, -1))  # backtracks
    with pytest.raises(ValueError, match="not tight"):
        fib_rose.graph.check_path((1, -1))  # backtracks at the one vertex


def test_turns():
    assert make_turn(3, -1) == make_turn(-1, 3)
    assert is_degenerate(make_turn(2, 2))
    assert turns_of_path((1, -2, 3)) == [make_turn(-1, -2), make_turn(2, 3)]
    # the circuit wraps around
    assert make_turn(-3, 1) in turns_of_circuit((1, -2, 3))


def test_circuit_canonical_rotation(theta):
    c1 = canonical_circuit(theta, (1, -2, 3, -1))
    c2 = canonical_circuit(theta, (3, -1, 1, -2))
    assert c1 == c2
    # circuits normalize their input: cyclic tightening happens on entry
    assert canonical_circuit(theta, (1, -2, 3, -3)) == canonical_circuit(theta, (1, -2))
    with pytest.raises(ValueError):
        canonical_circuit(theta, (1, 3))  # does not close up


def test_marking_words(theta):
    assert theta.marking_word(2) == (1,)
    assert theta.marking_word(-2) == (-1,)
    assert theta.path_marking((1, -2)).letters == (-1,)


class TestGraphMap:
    def test_rose_of_fib(self, fib, fib_rose):
        g = fib_rose.graph
        assert g.edge_count == 2 and len(g.vertices) == 1
        assert fib_rose.edge_image(1) == (1, 2)
        assert fib_rose.edge_image(-1) == (-2, -1)
        assert g.marking_word(1) == (1,)

    def test_constructor_validates(self, theta):
        with pytest.raises(ValueError):
            GraphMap(theta, {"u": "u", "v": "v"}, {"p": (1, -1, 1), "q": (2,), "r": (3,)})
        with pytest.raises(ValueError):
            GraphMap(theta, {"u": "u", "v": "v"}, {"p": (), "q": (2,), "r": (3,)})
        with pytest.raises(ValueError):
            GraphMap(theta, {"u": "v", "v": "v"}, {"p": (1,), "q": (2,), "r": (3,)})

    def test_map_path_tightens(self, fib_rose):
        # f(a^-1 b) = b^-1 a^-1 a = b^-1
        assert fib_rose.map_letters((-1, 2)) == (-2,)

    def test_iterate_letters_stays_tight(self, fib_rose, plas_rose):
        for f in (fib_rose, plas_rose):
            for e in range(1, f.graph.edge_count + 1):
                for n in range(1, 7):
                    p = f.iterate_letters((e,), n)
                    f.graph.check_path(p)  # raises if not tight

    def test_map_circuit_matches_marking(self, fib, fib_rose, rng):
        # mapping a circuit and applying the automorphism to its marking
        # land in the same conjugacy class
        for _ in range(25):
            edges = random_circuit(fib_rose.graph, 10, rng)
            c = canonical_circuit(fib_rose.graph, edges)
            image = canonical_circuit(fib_rose.graph, fib_rose.map_letters(c))
            lhs = CyclicWord(fib_rose.graph.path_marking(image).letters)
            rhs = fib.apply_class(CyclicWord(fib_rose.graph.path_marking(c).letters))
            assert lhs == rhs

    def test_preimage_circuit_example(self, fib, fib_rose, fib_inv_rose):
        # the class of aba pulls back to the class of ab in one step
        c = canonical_circuit(fib_rose.graph, (1, 2, 1))
        pre = preimage_circuit(fib_rose, fib_inv_rose, c, 1)
        assert pre == canonical_circuit(fib_rose.graph, (1, 2))
        assert preimage_circuit(fib_rose, fib_inv_rose, c, 0) == c

    @pytest.mark.parametrize("name", ["fib", "plas", "rel"])
    def test_preimage_circuit_matches_naive_walk(self, name, request, rng):
        # the k-fold preimage maps back onto c's marking class, and it is
        # the least rotation of the naive backward walk: apply f_inv's
        # images letter by letter, strip inverse pairs from the ends
        f = request.getfixturevalue(f"{name}_rose")
        f_inv = request.getfixturevalue(f"{name}_inv_rose")
        g = f.graph
        inv_images = {e: f_inv.edge_image(e) for e in range(1, g.edge_count + 1)}

        def least(w):
            return min((w[i:] + w[:i] for i in range(len(w))),
                       key=lambda r: [letter_key(x) for x in r])

        for _ in range(15):
            c = canonical_circuit(g, random_circuit(g, 6, rng))
            for k in range(5):
                pre = preimage_circuit(f, f_inv, c, k)
                image = g.path_marking(f.iterate_letters(pre, k))
                assert CyclicWord(image.letters) == CyclicWord(
                    g.path_marking(c).letters
                )
                walk = c
                for _ in range(k):
                    walk = naive_cyclic_reduce(naive_apply(inv_images, walk))
                assert pre == least(walk)

    def test_preimage_circuit_detects_wrong_inverse(self, fib_rose):
        c = canonical_circuit(fib_rose.graph, (1,))
        with pytest.raises(ValueError):
            preimage_circuit(fib_rose, fib_rose, c, 1)  # f is not its own inverse

    def test_induced_automorphism_round_trip(self, fib, fib_rose):
        phi = induced_automorphism(fib_rose, inverse=fib.inverse())
        assert outer_equal(phi, fib)

    def test_induced_automorphism_on_theta(self, theta, fib):
        # a homotopy equivalence of the theta graph realizing the same
        # outer class as fib under the marking p=1, q=a, r=b
        f = GraphMap(
            theta,
            {"u": "u", "v": "v"},
            # q -> p (p^-1 q)(p^-1 r): marking a -> a b; r -> q: b -> a
            {"p": (1,), "q": (2, -1, 3), "r": (2,)},
        )
        phi = induced_automorphism(f)
        assert outer_equal(phi, fib)


def test_iter_tight_paths_counts(fib_rose):
    # rose rank 2: 4 + 4*3 + 4*9 tight paths up to length 3
    paths = list(iter_tight_paths(fib_rose.graph, 3))
    assert len(paths) == 4 + 12 + 36
    assert all(len(p) <= 3 for p in paths)


def test_iter_tight_paths_prune(fib_rose):
    # a pruned partial path is dropped before being yielded
    paths = list(iter_tight_paths(fib_rose.graph, 5, prune=lambda p: len(p) >= 2))
    assert sorted(paths) == [(-2,), (-1,), (1,), (2,)]


def test_successors(theta, fib_rose):
    # directions at the terminus other than the reversal, in directions_at order
    assert theta.successors(1) == (-2, -3)
    assert theta.successors(-1) == (2, 3)
    assert fib_rose.graph.successors(1) == (1, 2, -2)
    assert fib_rose.graph.successors(-2) == (1, -1, -2)


def test_random_samplers_are_valid(theta, rng):
    for _ in range(40):
        c = random_circuit(theta, 8, rng)
        canonical_circuit(theta, c)
        p = random_tight_path(theta, 8, rng)
        theta.check_path(p)


@pytest.fixture(scope="module")
def turn_maps(fib_rose, plas_rose, poly_rose, rel):
    # two exponential strata {a, b} < {c, d}; c -> a c d pinches the turn
    # {a, c}, so an illegal turn meets H_2 through its second direction only
    two = Automorphism.from_letter_lists([(1, 2), (1,), (1, 3, 4), (3,)])
    return {
        "fib": fib_rose, "plas": plas_rose, "poly": poly_rose,
        "rel": rose_of(rel), "two": rose_of(two),
    }


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["fib", "plas", "poly", "rel", "two"]),
    rng=st.randoms(use_true_random=False),
    circuit=st.booleans(),
)
def test_illegal_flags_match_definition(turn_maps, name, rng, circuit):
    """Turn by turn, with the wrap turn last on a circuit: illegal_flags
    flags exactly the turns {a^-1, b} in illegal_turns, and with hr given
    only those where a or b is an edge of hr."""
    f = turn_maps[name]
    g = f.graph
    edges = random_circuit(g, 10, rng) if circuit else random_tight_path(g, 10, rng)
    pairs = list(zip(edges, edges[1:]))
    if circuit:
        pairs.append((edges[-1], edges[0]))
    strata = compute_filtration(f).exponential_strata()
    for hr in [None] + [frozenset(s.edges) for s in strata]:
        want = [
            make_turn(-a, b) in f.illegal_turns
            and (hr is None or abs(a) in hr or abs(b) in hr)
            for a, b in pairs
        ]
        assert f.illegal_flags(edges, hr, circuit) == want
