"""Finite graphs, edge paths, and tightening self-maps.

Oriented edges are nonzero integers: +e is the chosen orientation of edge e,
-e its reversal, mirroring the word encoding.  A path is a tuple of oriented
edges whose endpoints match up; tightening removes adjacent e, -e pairs.  A
circuit is a closed path up to rotation, in the canonical form of a closed
word (canonical_circuit): cyclically tight, least rotation.

A GraphMap sends vertices to vertices and edges to tight nonempty edge
paths.  A turn (an unordered pair of directions at a vertex) is illegal
exactly when some iterate of the derivative map pinches it onto a single
direction, which GraphMap reads off one table of eventual images.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .words import (
    Automorphism,
    _reduce,
    canonical_cycle,
    cyclic_core,
    letter_key,
    letter_table,
    nielsen_inverse_search,
    compose,
    generator_name,
    inverse_word,
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
            self.marking_rank = max(
                (abs(x) for w in self.marking.values() for x in w), default=0
            )

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

    def path_marking(self, edges: Iterable[int]) -> tuple[int, ...]:
        if self.marking is None:
            raise ValueError("graph has no marking")
        return substitute(self.marking, edges)

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
    def _limit(self) -> dict[int, int]:
        """Each direction's image under Df^(2^b), 2^b > N directions, by b
        squarings of the derivative.  Within N steps every direction
        reaches the Df-cycle it ends on, and Df is one-to-one on cycles,
        so two directions meet under some power of Df exactly when their
        limits are equal: that is when the turn they form is illegal."""
        lim = {d: self.derivative(d) for d in self.graph.directions()}
        for _ in range(len(lim).bit_length()):
            lim = {d: lim[e] for d, e in lim.items()}
        return lim

    @cached_property
    def filtration(self) -> Filtration:
        """The maximal invariant filtration (strata.compute_filtration),
        computed on first use."""
        from . import strata

        return strata.compute_filtration(self)

    @cached_property
    def illegal_turns(self) -> frozenset[tuple[int, int]]:
        lim = self._limit
        return frozenset(t for t in self.all_turns() if lim[t[0]] == lim[t[1]])

    def illegal_flags(
        self, edges: Sequence[int], hr=None, circuit: bool = False
    ) -> list[bool]:
        """One flag per turn {a^-1, b} of a path, or of a circuit with the
        wrap turn last: whether the turn is illegal and, when hr (a set of
        positive edge ids) is given, also meets an edge of hr."""
        lim = self._limit
        junctions = list(zip(edges, edges[1:]))
        if circuit and edges:
            junctions.append((edges[-1], edges[0]))
        return [
            a != -b and lim[-a] == lim[b]
            and (hr is None or abs(a) in hr or abs(b) in hr)
            for a, b in junctions
        ]

    def is_legal(self, edges: Sequence[int]) -> bool:
        return not any(self.illegal_flags(edges))

    def __repr__(self) -> str:
        ims = ", ".join(
            f"{n} -> {self.graph.spell_path(self._images[self.graph.edge_id(n)])}"
            for n in self.graph.edge_names
        )
        return f"GraphMap({ims})"


def cut(edges, flags, circuit: bool) -> list[tuple[int, ...]]:
    """Split a tuple of edges at flagged junctions.  flags[j] refers
    to the junction after edge j (for circuits the last flag is the wrap
    junction).  A circuit with no cuts comes back as one cyclic piece."""
    edges = tuple(edges)
    if not any(flags):
        return [edges]
    if circuit:
        # rotate the last cut onto the wrap junction, then cut as a path
        shift = (max(j for j, c in enumerate(flags) if c) + 1) % len(edges)
        edges = edges[shift:] + edges[:shift]
        flags = flags[shift:] + flags[:shift]
    pieces = []
    prev = 0
    for j, c in enumerate(flags):
        if c:
            pieces.append(edges[prev : j + 1])
            prev = j + 1
    if prev < len(edges):
        pieces.append(edges[prev:])
    return pieces


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
    )
    images = dict(zip(names, phi.images))
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


def induced_automorphism(f: GraphMap) -> Automorphism:
    """Read off the outer automorphism that f induces on the marked fundamental group.

    Uses a spanning tree at the first vertex; the result is one representative
    of the outer class.  It carries no inverse: a caller that needs one
    searches for it (words.nielsen_inverse_search).
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
        return inverse_word(from_base[v])

    def project(edges: Sequence[int]) -> tuple[int, ...]:
        out = []
        for d in edges:
            e = abs(d)
            if e in loop_index:
                out.append(loop_index[e] if d > 0 else -loop_index[e])
        return _reduce(tuple(out))

    fbase = f.vertex_image[base]
    closing = from_base[fbase]
    closing_back = inverse_word(closing)

    psi_images = []
    loop_markings = []
    for e in non_tree:
        loop = from_base[graph.origin(e)] + (e,) + to_base(graph.terminus(e))
        img = f.map_letters(loop)
        closed = tighten(closing + img + closing_back)
        psi_images.append(project(closed))
        loop_markings.append(graph.path_marking(loop))
    psi = Automorphism(k, psi_images, label=(f.label + "#" if f.label else ""))

    if all(w == (j,) for j, w in enumerate(loop_markings, start=1)):
        return psi
    m = Automorphism(k, loop_markings)
    m_full = nielsen_inverse_search(m)
    if m_full is None:
        raise ValueError("could not invert the marking; supply a simpler one")
    return compose(compose(m_full, psi), m_full.inverse())


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
        if graph.terminus(path[-1]) != graph.origin(path[0]):
            continue
        if len(path) > 1 and path[-1] == -path[0]:
            continue
        return tuple(path)
    raise ValueError("could not sample a circuit within the length bound")
