"""Filtrations, strata, transition matrices and train-track conditions.

A topological representative is organized by an increasing chain of
invariant subgraphs.  Each layer (stratum) carries a nonnegative integer
transition matrix whose Perron-Frobenius data drives everything else:
the stratum type, the eigenvector metric, and the expansion factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .graphs import Graph, GraphMap, iter_tight_paths

__all__ = [
    "Stratum",
    "Filtration",
    "Metric",
    "compute_filtration",
    "transition_matrix",
    "is_irreducible",
    "pf_eigen",
    "assign_metric",
    "verify_rtt",
    "verify_improved",
    "CheckReport",
    "InternalError",
]


class InternalError(RuntimeError):
    """A result broke an invariant that its construction guarantees: a
    bug in this package, not bad input."""


def _reach(adj: dict) -> dict:
    """The set of nodes that each node of a digraph reaches, itself
    included; adj maps every node to its successors.

    A depth-first search from every node costs O(V*E), where a linear
    strongly-connected-components algorithm would not.  The graphs this
    package can check are small: verify_rtt lists every connecting path
    of up to 12 edges."""
    out = {}
    for root in adj:
        seen = {root}
        stack = [root]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out[root] = seen
    return out


def _components(adj: dict) -> list[tuple]:
    """Strongly connected components of a digraph (nodes that reach each
    other), each sorted, listed by least node."""
    reach = _reach(adj)
    mutual = {tuple(sorted(v for v in reach[u] if u in reach[v])) for u in adj}
    return sorted(mutual)


@dataclass(frozen=True)
class Stratum:
    """One layer of the filtration.

    edges holds positive edge ids, sorted.  kind is "zero", "polynomial"
    or "exponential"; pf_value and pf_vector are None unless the stratum
    is irreducible (pf_vector is indexed parallel to edges).
    """

    index: int
    edges: tuple[int, ...]
    kind: str
    pf_value: float | None = None
    pf_vector: tuple[float, ...] | None = None

    @property
    def is_exponential(self) -> bool:
        return self.kind == "exponential"


@dataclass(frozen=True)
class Filtration:
    graph_map: GraphMap
    strata: tuple[Stratum, ...]

    def stratum(self, r: int) -> Stratum:
        """The stratum H_r; raises ValueError unless 1 <= r <= len(strata)."""
        if not 1 <= r <= len(self.strata):
            raise ValueError(f"no stratum {r}")
        return self.strata[r - 1]

    def stratum_of(self, edge: int) -> int:
        return self._edge_level[abs(edge)]

    @cached_property
    def _edge_level(self) -> dict[int, int]:
        return {e: s.index for s in self.strata for e in s.edges}

    @cached_property
    def metric(self) -> Metric:
        """The eigenvector metric (assign_metric), computed on first use."""
        return assign_metric(self)

    def edges_below(self, r: int) -> frozenset[int]:
        """Positive edges of G_{r-1}, i.e. all strata strictly below r."""
        return frozenset(
            e for s in self.strata if s.index < r for e in s.edges
        )

    def edges_through(self, r: int) -> frozenset[int]:
        """Positive edges of G_r."""
        return frozenset(
            e for s in self.strata if s.index <= r for e in s.edges
        )

    def exponential_strata(self) -> list[Stratum]:
        return [s for s in self.strata if s.kind == "exponential"]


def transition_matrix(f: GraphMap, edges: tuple[int, ...]) -> np.ndarray:
    """Integer matrix M with M[i, j] = number of times f(E_j) crosses E_i
    in either direction, rows and columns indexed by the given edges."""
    pos = {e: i for i, e in enumerate(edges)}
    m = np.zeros((len(edges), len(edges)), dtype=np.int64)
    for e in edges:
        for d in f.edge_image(e):
            i = pos.get(abs(d))
            if i is not None:
                m[i, pos[e]] += 1
    return m


def is_irreducible(matrix: np.ndarray) -> bool:
    """Whether the nonnegative matrix is irreducible (support digraph is
    strongly connected; a 1x1 zero matrix is not irreducible)."""
    m = np.asarray(matrix)
    n = m.shape[0]
    if n == 0:
        return False
    if n == 1:
        return bool(m[0, 0] > 0)
    adj = {i: set(np.flatnonzero(row).tolist()) for i, row in enumerate(m > 0)}
    return len(_components(adj)) == 1


def _is_permutation_matrix(m: np.ndarray) -> bool:
    return bool(
        ((m == 0) | (m == 1)).all()
        and (m.sum(axis=0) == 1).all()
        and (m.sum(axis=1) == 1).all()
    )


def pf_eigen(
    matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 1_000_000
) -> tuple[float, np.ndarray]:
    """Perron-Frobenius value and left eigenvector of an irreducible
    nonnegative matrix, eigenvector normalized to minimum entry 1.

    Power iteration runs on (M + I)^T, which is primitive whenever M is
    irreducible, so it converges even for periodic matrices.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if (m < 0).any():
        raise ValueError("matrix must be nonnegative")
    if not is_irreducible(m):
        raise ValueError("matrix is not irreducible")
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0]), np.array([1.0])
    a = (m + np.eye(n)).T
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        w /= w.sum()
        lam = float(v @ m.T @ v / (v @ v))
        if np.abs(m.T @ w - lam * w).max() <= tol * max(lam, 1.0):
            v = w
            break
        v = w
    else:
        raise ArithmeticError("power iteration did not converge")
    lam = float(v @ m.T @ v / (v @ v))
    return lam, v / v.min()


def compute_filtration(f: GraphMap) -> Filtration:
    """Maximal invariant filtration of a graph self-map.

    Strata are the strongly connected components of the edge dependency
    digraph (E depends on every edge its image crosses), placed
    bottom-up: each stratum is the first component, in least-edge order,
    whose images cross only edges in itself or in strata already placed.
    Components never share their least edge, so the order is
    deterministic, and every image lies in its G_r.
    """
    adj = {
        e: {abs(d) for d in f.edge_image(e)}
        for e in range(1, f.graph.edge_count + 1)
    }
    unplaced = _components(adj)
    placed: set[int] = set()
    strata = []
    while unplaced:
        comp = next(
            (c for c in unplaced
             if all(d in placed or d in c for e in c for d in adj[e])),
            None,
        )
        if comp is None:
            raise InternalError("dependency cycle across components")
        unplaced.remove(comp)
        placed.update(comp)
        m = transition_matrix(f, comp)
        if not m.any():
            kind, lam, vec = "zero", None, None
        else:
            lam_f, v = pf_eigen(m)
            if _is_permutation_matrix(m):
                kind, lam, vec = "polynomial", 1.0, tuple(float(x) for x in v)
            else:
                kind, lam, vec = "exponential", lam_f, tuple(float(x) for x in v)
        strata.append(
            Stratum(index=len(strata) + 1, edges=comp, kind=kind,
                    pf_value=lam, pf_vector=vec)
        )
    return Filtration(graph_map=f, strata=tuple(strata))


@dataclass(frozen=True)
class Metric:
    """Edge lengths making each exponential stratum expand by exactly its
    Perron-Frobenius factor; other edges get length 1."""

    lengths: dict[int, float]

    def edge_length(self, d: int) -> float:
        return self.lengths[abs(d)]

    def extend(self, total, d: int) -> float:
        """One step of the length fold: total plus the length of d.

        Every path length is this fold, left to right from int 0, so a
        length is decided by the length before its last edge and that
        edge.  sum() is not: from Python 3.12 it compensates rounding."""
        return total + self.lengths[abs(d)]

    def length(self, path) -> float:
        return float(reduce(self.extend, path, 0))

    def r_length(self, path, hr_edges) -> float:
        return float(
            reduce(self.extend, (d for d in path if abs(d) in hr_edges), 0)
        )


def assign_metric(filtration: Filtration) -> Metric:
    lengths: dict[int, float] = {}
    for s in filtration.strata:
        if s.kind == "exponential":
            for e, v in zip(s.edges, s.pf_vector):
                lengths[e] = v
        else:
            for e in s.edges:
                lengths[e] = 1.0
    return Metric(lengths=lengths)


@dataclass(frozen=True)
class CheckReport:
    """The verdict of a map check or a lemma validator: whether it passed,
    its rows (the violations of a map check, one row per case a validator
    checked), and its constants (what was counted or estimated)."""

    passed: bool
    rows: list[dict]
    constants: dict


def _subgraph_vertices(graph: Graph, edges) -> set[str]:
    out = set()
    for e in edges:
        out.add(graph.origin(e))
        out.add(graph.terminus(e))
    return out


def verify_rtt(f: GraphMap) -> CheckReport:
    """Check the three defining conditions of a relative train track map,
    for every exponential stratum.

    1. Images of stratum edges start and end with edges of the stratum.
    2. Connecting paths in the lower subgraph (nontrivial, endpoints on
       the stratum) have nontrivial tightened images.  Exhaustive up to
       12 edges.
    3. Paths in G_r that cross the stratum only at legal turns keep that
       property after one application.  Exhaustive up to 6 edges.
    """
    filtration = f.filtration
    g = f.graph
    violations: list[dict] = []
    counts = {"strata": 0, "beta_paths": 0, "legal_paths": 0}
    for s in filtration.exponential_strata():
        counts["strata"] += 1
        r = s.index
        hr = frozenset(s.edges)
        lower = filtration.edges_below(r)
        for e in s.edges:
            img = f.edge_image(e)
            if abs(img[0]) not in hr or abs(img[-1]) not in hr:
                violations.append({
                    "condition": 1,
                    "stratum": r,
                    "edge": g.edge_name(e),
                    "detail": "image of %s leaves the stratum at %s" % (
                        g.edge_name(e),
                        g.edge_name(img[0]) if abs(img[0]) not in hr
                        else g.edge_name(img[-1]),
                    ),
                })
        if lower:
            anchors = _subgraph_vertices(g, lower) & _subgraph_vertices(g, hr)
            for beta in iter_tight_paths(
                g, 12, allowed_edges=lower, start_vertices=anchors
            ):
                if g.terminus(beta[-1]) not in anchors:
                    continue
                counts["beta_paths"] += 1
                if not f.map_letters(beta):
                    violations.append({
                        "condition": 2,
                        "stratum": r,
                        "path": g.spell_path(beta),
                        "detail": "connecting path has trivial image",
                    })
        gr = filtration.edges_through(r)

        def r_illegal_prefix(path, hr=hr):
            return any(f.illegal_flags(path[-2:], hr))

        for p in iter_tight_paths(
            g, 6, allowed_edges=gr, prune=r_illegal_prefix
        ):
            if not any(abs(d) in hr for d in p):
                continue
            counts["legal_paths"] += 1
            image = f.map_letters(p)
            if any(f.illegal_flags(image, hr)):
                violations.append({
                    "condition": 3,
                    "stratum": r,
                    "path": g.spell_path(p),
                    "detail": "image %s is not r-legal" % g.spell_path(image),
                })
    return CheckReport(not violations, violations, counts)


def _contractible_component_edges(graph: Graph, edges) -> set[int]:
    """Edges lying in tree components of the subgraph spanned by edges:
    the components with one more vertex than they have edges."""
    adj = {v: set() for v in _subgraph_vertices(graph, edges)}
    for e in edges:
        adj[graph.origin(e)].add(graph.terminus(e))
        adj[graph.terminus(e)].add(graph.origin(e))
    out: set[int] = set()
    for verts in {frozenset(c) for c in _reach(adj).values()}:
        comp_edges = {e for e in edges if graph.origin(e) in verts}
        if len(comp_edges) == len(verts) - 1:
            out |= comp_edges
    return out


def verify_improved(f: GraphMap) -> CheckReport:
    """Check structural properties enjoyed by improved representatives:
    fixed (not just periodic) Nielsen classes, zero strata exactly the
    contractible lower debris, zero strata capped by exponential ones,
    polynomial strata of the form E -> E u, and at most one indivisible
    Nielsen path per exponential stratum.
    """
    from .nielsen import find_nielsen_paths

    filtration = f.filtration
    g = f.graph
    violations: list[dict] = []
    records = find_nielsen_paths(f)
    for rec in records:
        if rec.period != 1:
            violations.append({
                "property": 1,
                "detail": "Nielsen path %s has period %d"
                % (g.spell_path(rec.path), rec.period),
            })
    for s in filtration.strata:
        r = s.index
        if s.kind == "zero":
            gr = filtration.edges_through(r)
            contractible = _contractible_component_edges(g, gr)
            if contractible != set(s.edges):
                violations.append({
                    "property": 2,
                    "stratum": r,
                    "detail": "zero stratum %s != contractible part %s" % (
                        sorted(g.edge_name(e) for e in s.edges),
                        sorted(g.edge_name(e) for e in contractible),
                    ),
                })
            nxt = filtration.strata[r] if r < len(filtration.strata) else None
            if nxt is None or nxt.kind != "exponential":
                violations.append({
                    "property": 3,
                    "stratum": r,
                    "detail": "zero stratum not followed by an exponential one",
                })
        elif s.kind == "polynomial":
            lower = filtration.edges_below(r)
            ok = len(s.edges) == 1
            if ok:
                e = s.edges[0]
                img = f.edge_image(e)
                ok = img[0] == e and all(abs(d) in lower for d in img[1:])
            if not ok:
                violations.append({
                    "property": 4,
                    "stratum": r,
                    "detail": "stratum is not of the form E -> E u with "
                    "u below",
                })
    by_stratum: dict[int, int] = {}
    for rec in records:
        # INPs: indivisible with an illegal turn (fixed edges don't count)
        if not rec.indivisible or rec.illegal_count == 0:
            continue
        top = max(filtration.stratum_of(d) for d in rec.path)
        by_stratum[top] = by_stratum.get(top, 0) + 1
    for s in filtration.exponential_strata():
        n = by_stratum.get(s.index, 0)
        if n > 1:
            violations.append({
                "property": 5,
                "stratum": s.index,
                "detail": "%d indivisible Nielsen paths meet the stratum" % n,
            })
    counts = {"nielsen_records": len(records), "strata": len(filtration.strata)}
    return CheckReport(not violations, violations, counts)
