"""Finite graphs, edge paths, and tightening self-maps.

Oriented edges are nonzero integers: +e is the chosen orientation of edge e,
-e its reversal, mirroring the word encoding.  A path is a tuple of oriented
edges whose endpoints match up; tightening removes adjacent e, -e pairs.  A
circuit is a closed path up to rotation, in the canonical form of a closed
word (canonical_circuit): cyclically tight, least rotation.

A GraphMap sends vertices to vertices and edges to tight nonempty edge
paths.  Turns (unordered pairs of directions at a vertex) are classified as
legal or illegal by iterating the derivative map: a turn is illegal exactly
when some iterate pinches it onto a single direction.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .words import (
    Automorphism,
    Word,
    _reduce,
    canonical_cycle,
    cyclic_core,
    letter_key,
    letter_table,
    nielsen_inverse_search,
    invert_verify,
    compose,
    generator_name,
    substitute,
)

if TYPE_CHECKING:
    from .strata import Filtration


class Graph:
    """A finite connected graph with named vertices and edges.

    Every vertex must have valence at least two.  An optional marking
    assigns to each positive edge a word in a fixed free basis; reversed
    edges get inverse words.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, str, str]],
        marking: dict[str, Sequence[int]] | None = None,
        marking_rank: int | None = None,
    ):
        if not vertices:
            raise ValueError("graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        self.vertices = tuple(vertices)
        names = [e[0] for e in edges]
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge names")
        self.edge_names = tuple(names)
        self._edge_id = {name: i for i, name in enumerate(names, start=1)}
        vset = set(vertices)
        self._origin: dict[int, str] = {}
        for idx, (name, o, t) in enumerate(edges, start=1):
            if o not in vset or t not in vset:
                raise ValueError(f"edge {name} references unknown vertex")
            self._origin[idx] = o
            self._origin[-idx] = t
        at: dict[str, list[int]] = {v: [] for v in self.vertices}
        for d in self.directions():
            at[self._origin[d]].append(d)
        self._directions_at = {v: tuple(ds) for v, ds in at.items()}
        self._check_connected()
        self._check_valence()
        self.marking: dict[int, tuple[int, ...]] | None = None
        self.marking_rank: int | None = None
        if marking is not None:
            for name in marking:
                self.edge_id(name)  # raises on an unknown edge name
            missing = [n for n in self.edge_names if n not in marking]
            if missing:
                raise ValueError(f"marking missing edges: {missing}")
            self.marking = letter_table(
                _reduce(marking[n]) for n in self.edge_names
            )
            if marking_rank is None:
                marking_rank = max(
                    (abs(x) for w in self.marking.values() for x in w), default=0
                )
            self.marking_rank = marking_rank

    @property
    def edge_count(self) -> int:
        return len(self.edge_names)

    def edge_id(self, name: str) -> int:
        try:
            return self._edge_id[name]
        except KeyError:
            raise ValueError(f"unknown edge {name!r}") from None

    def edge_name(self, d: int) -> str:
        name = self.edge_names[abs(d) - 1]
        return name if d > 0 else name + "^-1"

    def origin(self, d: int) -> str:
        return self._origin[d]

    def terminus(self, d: int) -> str:
        return self._origin[-d]

    def directions(self) -> list[int]:
        m = self.edge_count
        return [d for e in range(1, m + 1) for d in (e, -e)]

    def directions_at(self, v: str) -> tuple[int, ...]:
        """Directions with origin v, in letter order."""
        return self._directions_at[v]

    def successors(self, d: int) -> tuple[int, ...]:
        """Directions that may follow d in a tight path: those at
        terminus(d) other than -d, in directions_at order."""
        return self._successors[d]

    @cached_property
    def _successors(self) -> dict[int, tuple[int, ...]]:
        return {
            d: tuple(e for e in self.directions_at(self.terminus(d)) if e != -d)
            for d in self.directions()
        }

    @property
    def rank(self) -> int:
        return self.edge_count - len(self.vertices) + 1

    def _check_connected(self):
        from_base, _ = _spanning_tree(self)
        if len(from_base) != len(self.vertices):
            raise ValueError("graph is not connected")

    def _check_valence(self):
        for v in self.vertices:
            if len(self.directions_at(v)) < 2:
                raise ValueError(f"vertex {v} has valence < 2")

    def marking_word(self, d: int) -> tuple[int, ...]:
        if self.marking is None:
            raise ValueError("graph has no marking")
        return self.marking[d]

    def path_marking(self, edges: Iterable[int]) -> Word:
        if self.marking is None:
            raise ValueError("graph has no marking")
        return Word._raw(substitute(self.marking, edges))

    def spell_path(self, edges: Sequence[int]) -> str:
        if not edges:
            return "1"
        return " ".join(self.edge_name(d) for d in edges)

    def check_path(self, edges: Sequence[int]) -> None:
        """Validate that edges form a connected tight path."""
        for d in edges:
            if d == 0 or abs(d) > self.edge_count:
                raise ValueError(f"bad oriented edge {d}")
        for a, b in zip(edges, edges[1:]):
            if b == -a:
                raise ValueError("path is not tight")
            if self.terminus(a) != self.origin(b):
                raise ValueError(
                    f"edges {self.edge_name(a)} and {self.edge_name(b)} do not chain"
                )

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {self.edge_count} edges)"


# removes adjacent cancelling pairs e, -e until none remain
tighten = _reduce


def canonical_circuit(graph: Graph, edges: Iterable[int]) -> tuple[int, ...]:
    """The free homotopy class of a closed path: cyclically tight, in
    canonical rotation.  Raises ValueError unless it is a path of graph
    that closes up."""
    edges = canonical_cycle(edges)
    if edges:
        graph.check_path(edges)
        if graph.terminus(edges[-1]) != graph.origin(edges[0]):
            raise ValueError("circuit does not close up")
    return edges


def make_turn(d1: int, d2: int) -> tuple[int, int]:
    """Unordered pair of directions, stored sorted by the letter order."""
    if letter_key(d1) <= letter_key(d2):
        return (d1, d2)
    return (d2, d1)


def is_degenerate(turn: tuple[int, int]) -> bool:
    return turn[0] == turn[1]


def turns_of_path(edges: Sequence[int]) -> list[tuple[int, int]]:
    """Turns taken at the interior vertices of a path."""
    return [make_turn(-a, b) for a, b in zip(edges, edges[1:])]


def turns_of_circuit(edges: Sequence[int]) -> list[tuple[int, int]]:
    if len(edges) < 1:
        return []
    pairs = list(zip(edges, edges[1:])) + [(edges[-1], edges[0])]
    return [make_turn(-a, b) for a, b in pairs]


class GraphMap:
    """A self-map of a graph sending edges to tight nonempty edge paths."""

    def __init__(
        self,
        graph: Graph,
        vertex_image: dict[str, str],
        edge_images: dict[str, Sequence[int]],
        label: str = "",
    ):
        self.graph = graph
        self.label = label
        vset = set(graph.vertices)
        if set(vertex_image) != vset or not set(vertex_image.values()) <= vset:
            raise ValueError("vertex image must map every vertex to a vertex")
        self.vertex_image = dict(vertex_image)
        for name in graph.edge_names:
            e = graph.edge_id(name)
            if name not in edge_images:
                raise ValueError(f"no image for edge {name}")
            img = tuple(edge_images[name])
            if not img:
                raise ValueError(f"image of edge {name} is empty")
            if tighten(img) != img:
                raise ValueError(f"image of edge {name} is not tight")
            graph.check_path(img)
            if graph.origin(img[0]) != vertex_image[graph.origin(e)]:
                raise ValueError(f"image of edge {name} starts at the wrong vertex")
            if graph.terminus(img[-1]) != vertex_image[graph.terminus(e)]:
                raise ValueError(f"image of edge {name} ends at the wrong vertex")
        self._images = letter_table(edge_images[n] for n in graph.edge_names)

    def edge_image(self, d: int) -> tuple[int, ...]:
        return self._images[d]

    def map_letters(self, edges: Sequence[int]) -> tuple[int, ...]:
        """Tightened image of an edge sequence."""
        return substitute(self._images, edges)

    def iterate_letters(self, edges: Sequence[int], k: int) -> tuple[int, ...]:
        out = tuple(edges)
        for _ in range(k):
            out = self.map_letters(out)
        return out

    def derivative(self, d: int) -> int:
        """First oriented edge of the image of direction d."""
        return self._images[d][0]

    def turn_image(self, turn: tuple[int, int]) -> tuple[int, int]:
        return make_turn(self.derivative(turn[0]), self.derivative(turn[1]))

    def all_turns(self) -> list[tuple[int, int]]:
        """All nondegenerate turns of the graph, grouped by vertex."""
        turns = []
        for v in self.graph.vertices:
            dirs = self.graph.directions_at(v)
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    turns.append((dirs[i], dirs[j]))
        return turns

    def turn_orbit(self, turn: tuple[int, int]) -> tuple[str, int, list[tuple[int, int]]]:
        """Iterate the derivative on a turn until degeneracy or a repeat.

        Returns (verdict, steps, orbit).  The orbit always resolves within
        (number of turns + 1) steps.
        """
        orbit = [turn]
        seen = {turn}
        t = turn
        while True:
            t = self.turn_image(t)
            orbit.append(t)
            if is_degenerate(t):
                return "illegal", len(orbit) - 1, orbit
            if t in seen:
                return "legal", len(orbit) - 1, orbit
            seen.add(t)

    @cached_property
    def turn_classification(self) -> dict[tuple[int, int], str]:
        out = {}
        for t in self.all_turns():
            verdict, _, orbit = self.turn_orbit(t)
            # every nondegenerate turn along a non-degenerating orbit is legal
            for u in orbit[:-1] if verdict == "illegal" else orbit:
                if not is_degenerate(u) and u not in out:
                    out[u] = verdict if verdict == "illegal" else "legal"
            out[t] = verdict
        return out

    @cached_property
    def filtration(self) -> Filtration:
        """The maximal invariant filtration (strata.compute_filtration),
        computed on first use."""
        from . import strata

        return strata.compute_filtration(self)

    @cached_property
    def illegal_turns(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            t for t, v in self.turn_classification.items() if v == "illegal"
        )

    def illegal_flags(
        self, edges: Sequence[int], hr=None, circuit: bool = False
    ) -> list[bool]:
        """One flag per turn of a path, or of a circuit with the wrap turn
        last: whether the turn is illegal and, when hr (a set of positive
        edge ids) is given, also meets an edge of hr."""
        illegal = self.illegal_turns
        turns = turns_of_circuit(edges) if circuit else turns_of_path(edges)
        if hr is None:
            return [t in illegal for t in turns]
        return [
            t in illegal and (abs(t[0]) in hr or abs(t[1]) in hr) for t in turns
        ]

    def is_legal(self, edges: Sequence[int]) -> bool:
        return not any(self.illegal_flags(edges))

    def __repr__(self) -> str:
        ims = ", ".join(
            f"{n} -> {self.graph.spell_path(self._images[self.graph.edge_id(n)])}"
            for n in self.graph.edge_names
        )
        return f"GraphMap({ims})"


def iter_tight_paths(
    graph: Graph,
    max_len: int,
    allowed_edges: frozenset[int] | set[int] | None = None,
    start_vertices: set[str] | None = None,
    prune=None,
):
    """Yield all nonempty tight edge paths with at most max_len edges.

    allowed_edges restricts to a subgraph (positive edge ids); prune, when
    given, is called on each partial path and a True result cuts the branch
    (the partial path itself is not yielded either).
    """
    if allowed_edges is None:
        allowed_edges = frozenset(range(1, graph.edge_count + 1))
    dirs = [d for d in graph.directions() if abs(d) in allowed_edges]
    # successors within the subgraph, reversed so the stack pops them in order
    after = {
        d: [e for e in reversed(graph.successors(d)) if abs(e) in allowed_edges]
        for d in dirs
    }
    stack = [
        (d,) for d in reversed(dirs)
        if start_vertices is None or graph.origin(d) in start_vertices
    ]
    while stack:
        path = stack.pop()
        if prune is not None and prune(path):
            continue
        yield path
        if len(path) < max_len:
            for d in after[path[-1]]:
                stack.append(path + (d,))


def rose_of(phi: Automorphism, label: str | None = None) -> GraphMap:
    """The rose representative of an automorphism, identity marking."""
    names = [generator_name(i, phi.rank) for i in range(1, phi.rank + 1)]
    graph = Graph(
        ["v"],
        [(n, "v", "v") for n in names],
        marking={n: (i,) for i, n in enumerate(names, start=1)},
        marking_rank=phi.rank,
    )
    images = {
        names[i - 1]: phi.images[i - 1].letters for i in range(1, phi.rank + 1)
    }
    return GraphMap(graph, {"v": "v"}, images, label=label or phi.label)


def _spanning_tree(graph: Graph) -> tuple[dict[str, tuple[int, ...]], list[int]]:
    """BFS spanning tree from the first vertex.

    Returns (paths from base to each vertex, sorted non-tree positive edges).
    """
    base = graph.vertices[0]
    from_base: dict[str, tuple[int, ...]] = {base: ()}
    tree_edges: set[int] = set()
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for d in graph.directions_at(v):
                w = graph.terminus(d)
                if w not in from_base:
                    from_base[w] = from_base[v] + (d,)
                    tree_edges.add(abs(d))
                    nxt.append(w)
        frontier = nxt
    non_tree = [e for e in range(1, graph.edge_count + 1) if e not in tree_edges]
    return from_base, non_tree


def induced_automorphism(
    f: GraphMap,
    inverse: Automorphism | Sequence[Word] | None = None,
) -> Automorphism:
    """Read off the outer automorphism that f induces on the marked fundamental group.

    Uses a spanning tree at the first vertex; the result is one representative
    of the outer class.  If `inverse` is given its images must invert the
    result (raises ValueError otherwise, which is the homotopy equivalence
    check); without it a bounded Nielsen search tries to find an inverse and
    the result may carry none.
    """
    graph = f.graph
    if graph.marking is None:
        raise ValueError("graph has no marking")
    base = graph.vertices[0]
    from_base, non_tree = _spanning_tree(graph)
    loop_index = {e: j for j, e in enumerate(non_tree, start=1)}
    k = len(non_tree)
    if graph.marking_rank != k:
        raise ValueError(
            f"marking rank {graph.marking_rank} != graph rank {k}"
        )

    def to_base(v: str) -> tuple[int, ...]:
        return tuple(-d for d in reversed(from_base[v]))

    def project(edges: Sequence[int]) -> tuple[int, ...]:
        out = []
        for d in edges:
            e = abs(d)
            if e in loop_index:
                out.append(loop_index[e] if d > 0 else -loop_index[e])
        return _reduce(tuple(out))

    fbase = f.vertex_image[base]
    closing = from_base[fbase]
    closing_back = tuple(-d for d in reversed(closing))

    psi_images = []
    loop_markings = []
    for e in non_tree:
        loop = from_base[graph.origin(e)] + (e,) + to_base(graph.terminus(e))
        img = f.map_letters(loop)
        closed = tighten(closing + img + closing_back)
        psi_images.append(Word(project(closed)))
        loop_markings.append(graph.path_marking(loop))
    psi = Automorphism(k, psi_images, label=(f.label + "#" if f.label else ""))

    if all(w.letters == (j,) for j, w in enumerate(loop_markings, start=1)):
        phi = psi
    else:
        m = Automorphism(k, loop_markings)
        m_full = nielsen_inverse_search(m)
        if m_full is None:
            raise ValueError("could not invert the marking; supply a simpler one")
        phi = compose(compose(m_full, psi), m_full.inverse())

    if inverse is not None:
        cand = inverse.images if isinstance(inverse, Automorphism) else tuple(inverse)
        if not invert_verify(phi, cand):
            raise ValueError(
                "induced endomorphism is not inverted by the supplied inverse; "
                "the map is not a homotopy equivalence realizing it"
            )
        return Automorphism(k, phi.images, cand, label=phi.label)
    found = nielsen_inverse_search(phi)
    if found is not None:
        return found
    return phi


def preimage_circuit(
    f: GraphMap, f_inv: GraphMap, c: Sequence[int], k: int
) -> tuple[int, ...]:
    """The class mapping onto the circuit c under k iterates of f, computed
    via f_inv, as a canonical circuit.

    Verifies [f^k(result)] == [c] and raises ValueError if the two maps are
    not homotopy inverses on this class.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    out = c
    for _ in range(k):
        out = cyclic_core(f_inv.map_letters(out))
    back = out
    for _ in range(k):
        back = cyclic_core(f.map_letters(back))
    if canonical_cycle(back) != canonical_circuit(f.graph, c):
        raise ValueError(
            "preimage verification failed: the supplied maps are not inverse "
            "on this circuit"
        )
    return canonical_circuit(f.graph, out)


def random_tight_path(graph: Graph, max_len: int, rng) -> tuple[int, ...]:
    """A uniform-ish random tight edge path with 1..max_len edges."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    v = rng.choice(list(graph.vertices))
    target = rng.randint(1, max_len)
    # every vertex has valence >= 2, so every direction has a successor
    path = [rng.choice(graph.directions_at(v))]
    for _ in range(target - 1):
        path.append(rng.choice(graph.successors(path[-1])))
    return tuple(path)


def random_circuit(graph: Graph, max_len: int, rng) -> tuple[int, ...]:
    """A random cyclically tight circuit with at most max_len edges.

    Rejection sampling: closed tight walks that fail to close up tightly
    are discarded.  Raises after 400 misses (tiny max_len on a graph with
    no short circuit).
    """
    for _ in range(400):
        path = random_tight_path(graph, max_len, rng)
        if not path:
            continue
        if graph.terminus(path[-1]) != graph.origin(path[0]):
            continue
        if len(path) > 1 and path[-1] == -path[0]:
            continue
        if len(path) == 1 and graph.origin(path[0]) != graph.terminus(path[0]):
            continue
        return tuple(path)
    raise ValueError("could not sample a circuit within the length bound")
