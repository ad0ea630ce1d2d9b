"""Periodic Nielsen paths: search, classification and splittings.

A path p is a periodic Nielsen path if [f^k(p)] = p for some k >= 1.
The indivisible ones (INPs) have exactly one illegal turn, at their
"tip", and their two legal halves a, b satisfy f^k(a) = g a and
f^k(b) = g b for a common prefix g.  Two searches:

* orbit: enumerate every tight path up to a length bound and walk its
  forward orbit.  Complete within the bounds, but only feasible when
  the path universe is small.

* develop: seed a pair of rays at each illegal turn and grow them by
  stripping the common prefix off their images.  Finds INPs directly,
  including ones whose endpoints sit inside an edge; sound only when
  every stratum is exponential (then legal paths strictly expand, so
  every periodic Nielsen path is a concatenation of INPs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm

from .graphs import GraphMap, iter_tight_paths
from .strata import Filtration, Metric
from .words import BudgetExceeded, common_prefix, letter_key

__all__ = [
    "NielsenPathRecord",
    "find_nielsen_paths",
    "is_pre_nielsen",
    "check_np_constraints",
    "split_basic_paths",
    "basic_path_type",
    "verify_splitting",
]

_ORBIT_CAP = 10_000
# _develop_turn: image steps per seed, and the ray length that ends it
_DEVELOP_ITER = 60
_RAY_LETTERS = 2000


@dataclass(frozen=True)
class NielsenPathRecord:
    """A periodic Nielsen path.

    path lists full edges; when exact is False the endpoints sit inside
    the first / last edge: the path enters its first edge at parameter
    start_fraction and leaves its last edge at parameter end_fraction
    (exact records have 0.0 and 1.0).  period is minimal.
    """

    path: tuple[int, ...]
    period: int
    indivisible: bool
    illegal_count: int
    height: int
    exact: bool = True
    start_fraction: float = 0.0
    end_fraction: float = 1.0
    method: str = "orbit"

    def reversed(self) -> "NielsenPathRecord":
        return replace(
            self,
            path=tuple(-d for d in reversed(self.path)),
            start_fraction=1.0 - self.end_fraction,
            end_fraction=1.0 - self.start_fraction,
        )


def _key_tuple(path) -> tuple[int, ...]:
    return tuple(letter_key(d) for d in path)


def _canonical(rec: NielsenPathRecord) -> NielsenPathRecord:
    rev = rec.reversed()
    return rec if _key_tuple(rec.path) <= _key_tuple(rev.path) else rev


def _identity_key(rec: NielsenPathRecord):
    return (
        rec.path,
        round(rec.start_fraction, 9),
        round(rec.end_fraction, 9),
    )


def _path_universe_size(graph, max_len: int) -> int:
    # counts[d]: tight paths of the current length that start with d
    counts = dict.fromkeys(graph.directions(), 1)
    total = len(counts)
    for _ in range(max_len - 1):
        counts = {d: sum(counts[e] for e in graph.successors(d)) for d in counts}
        total += sum(counts.values())
    return total


def _minimal_period(f: GraphMap, path, period_bound: int) -> int | None:
    cur = tuple(path)
    for j in range(1, period_bound + 1):
        cur = f.map_letters(cur)
        if len(cur) > _ORBIT_CAP:
            return None
        if cur == path:
            return j
    return None


def _orbit_search(f, len_bound, period_bound):
    filtration = f.filtration
    found: dict[tuple[int, ...], int] = {}
    for p in iter_tight_paths(f.graph, len_bound):
        if _key_tuple(tuple(-d for d in reversed(p))) < _key_tuple(p):
            continue
        j = _minimal_period(f, p, period_bound)
        if j is not None:
            found[p] = j
    nielsen_set = set(found)
    nielsen_set |= {tuple(-d for d in reversed(p)) for p in nielsen_set}
    records = []
    for p, j in sorted(found.items(), key=lambda kv: (len(kv[0]), _key_tuple(kv[0]))):
        divisible = any(
            p[:i] in nielsen_set and p[i:] in nielsen_set
            for i in range(1, len(p))
        )
        records.append(
            NielsenPathRecord(
                path=p,
                period=j,
                indivisible=not divisible,
                illegal_count=sum(f.illegal_flags(p)),
                height=max(filtration.stratum_of(d) for d in p),
                method="orbit",
            )
        )
    return records


def _iterated_map(f: GraphMap, k: int) -> GraphMap:
    g = f.graph
    vimg = dict(zip(g.vertices, g.vertices))
    for v in g.vertices:
        w = v
        for _ in range(k):
            w = f.vertex_image[w]
        vimg[v] = w
    images = {
        name: f.iterate_letters((g.edge_id(name),), k) for name in g.edge_names
    }
    return GraphMap(g, vimg, images, label=f"{f.label}^{k}" if f.label else "")


def _legal_extensions(f: GraphMap, path):
    for x in f.graph.successors(path[-1]):
        if f.is_legal((path[-1], x)):
            yield x


def _develop_turn(f, fk, k, turn, len_bound, max_states=50_000):
    """Grow a ray pair seeded at an illegal turn of f^k.

    Returns a list of ("exact", half1, half2, gamma) and
    ("grow", ray1, ray2, gamma) outcomes.  Exact outcomes are genuine
    INP halves (f^k(half) = gamma half); grow outcomes are long stable
    ray prefixes whose endpoint must be cut with the metric.
    """
    results = []
    work = [((turn[0],), (turn[1],))]
    seen = set()
    while work:
        if len(seen) > max_states:
            raise BudgetExceeded("ray development budget exceeded")
        state = work.pop()
        if state in seen:
            continue
        seen.add(state)
        p, q = state
        if len(p) > len_bound or len(q) > len_bound:
            continue
        for _ in range(_DEVELOP_ITER):
            gp, gq = fk.map_letters(p), fk.map_letters(q)
            c = common_prefix(gp, gq)
            if c == 0:
                break
            p2, q2 = gp[c:], gq[c:]
            if not p2 or not q2:
                # image swallowed by the common prefix: the seed is too
                # short on that side, branch over legal continuations
                src, other, short_side = (p, q, 0) if not p2 else (q, p, 1)
                for x in _legal_extensions(f, src):
                    nxt = src + (x,)
                    work.append((nxt, other) if short_side == 0 else (other, nxt))
                break
            # each ray and what is left of its image: one must extend the other
            if any(
                common_prefix(a, b) < min(len(a), len(b))
                for a, b in ((p, p2), (q, q2))
            ):
                break
            if p2 == p and q2 == q:
                results.append(("exact", p, q, gp[:c]))
                break
            if len(p2) > _RAY_LETTERS or len(q2) > _RAY_LETTERS:
                results.append(("grow", p2, q2, gp[:c]))
                break
            p, q = p2, q2
    return results


def _cut_ray(ray, target, metric: Metric, hr, tol=1e-9):
    """Cut an H_r length off the front of a ray.  Returns (edges, frac)
    with frac in (0, 1], or None when the cut point is ambiguous."""
    acc = 0.0
    for i, d in enumerate(ray):
        el = metric.edge_length(d) if abs(d) in hr else 0.0
        if acc + el >= target - tol:
            if el == 0.0:
                return None
            frac = (target - acc) / el
            if frac < tol:
                return None
            return ray[: i + 1], min(frac, 1.0)
        acc += el
    return None


def _develop_search(f, len_bound, period_bound):
    filtration, metric = f.filtration, f.filtration.metric
    lam_of = {s.index: s.pf_value for s in filtration.strata}
    hr_of = {s.index: frozenset(s.edges) for s in filtration.strata}
    records = []
    for k in range(1, period_bound + 1):
        fk = f if k == 1 else _iterated_map(f, k)
        for turn in sorted(fk.illegal_turns):
            for outcome in _develop_turn(f, fk, k, turn, len_bound):
                kind, half1, half2, gamma = outcome
                if kind == "exact":
                    path = tuple(-d for d in reversed(half1)) + half2
                    if fk.map_letters(path) != path:
                        continue
                    rec = NielsenPathRecord(
                        path=path,
                        period=k,
                        indivisible=True,
                        illegal_count=1,
                        height=max(filtration.stratum_of(d) for d in path),
                        method="develop",
                    )
                else:
                    r = max(
                        filtration.stratum_of(d)
                        for d in (*half1, *half2, *gamma)
                    )
                    hr = hr_of[r]
                    lam = lam_of[r]
                    target = metric.r_length(gamma, hr) / (lam ** k - 1.0)
                    cut1 = _cut_ray(half1, target, metric, hr)
                    cut2 = _cut_ray(half2, target, metric, hr)
                    if cut1 is None or cut2 is None:
                        continue
                    e1, t1 = cut1
                    e2, t2 = cut2
                    path = tuple(-d for d in reversed(e1)) + e2
                    rec = NielsenPathRecord(
                        path=path,
                        period=k,
                        indivisible=True,
                        illegal_count=1,
                        height=r,
                        exact=False,
                        start_fraction=1.0 - t1,
                        end_fraction=t2,
                        method="develop",
                    )
                records.append(rec)
    return records


def _compose_records(f, base, len_bound, period_bound):
    """Concatenations of exact INPs are again periodic Nielsen paths as
    long as the junction is tight; breadth-first up to the length bound."""
    exact = [r for r in base if r.exact]
    pieces = exact + [r.reversed() for r in exact]
    out = []
    frontier = [(r.path, r.period) for r in pieces]
    seen = {p for p, _ in frontier}
    while frontier:
        path, period = frontier.pop(0)
        for nxt in pieces:
            if path[-1] == -nxt.path[0]:
                continue
            cand = path + nxt.path
            if len(cand) > len_bound or cand in seen:
                continue
            seen.add(cand)
            k = lcm(period, nxt.period)
            if k > period_bound:
                continue
            if f.iterate_letters(cand, k) != cand:
                continue
            out.append((cand, k))
            frontier.append((cand, k))
    records = []
    for path, k in out:
        records.append(
            NielsenPathRecord(
                path=path,
                period=k,
                indivisible=False,
                illegal_count=sum(f.illegal_flags(path)),
                height=0,
                method="compose",
            )
        )
    return records


def find_nielsen_paths(
    f: GraphMap,
    len_bound: int = 6,
    period_bound: int = 4,
    orbit_budget: int = 200_000,
) -> list[NielsenPathRecord]:
    """All periodic Nielsen paths up to the given bounds.

    When the tight paths with at most len_bound edges number at most
    orbit_budget, the orbit search walks every one of them and is
    complete within the bounds.  Otherwise, when every stratum is
    exponential, the develop search grows INPs from illegal turns (each
    half seeded up to len_bound edges) plus their tight concatenations up
    to twice that, and also finds paths with endpoints inside edges.
    Otherwise it raises BudgetExceeded.
    """
    filtration = f.filtration
    size = _path_universe_size(f.graph, len_bound)
    if size <= orbit_budget:
        records = _orbit_search(f, len_bound, period_bound)
    elif any(s.kind != "exponential" for s in filtration.strata):
        raise BudgetExceeded(
            f"Nielsen orbit search budget exceeded: {size} tight paths "
            f"of up to {len_bound} edges, budget {orbit_budget}"
        )
    else:
        records = _develop_search(f, len_bound, period_bound)
        records += _compose_records(
            f, records, len_bound=2 * len_bound, period_bound=period_bound
        )
    uniq: dict = {}
    for rec in records:
        rec = _canonical(rec)
        if rec.exact:
            j = _minimal_period(f, rec.path, period_bound)
            if j is not None:
                rec = replace(rec, period=j)
        if rec.method == "compose":
            rec = replace(
                rec,
                height=max(filtration.stratum_of(d) for d in rec.path),
            )
        key = _identity_key(rec)
        if key not in uniq or uniq[key].period > rec.period:
            uniq[key] = rec
    return sorted(
        uniq.values(), key=lambda r: (len(r.path), _key_tuple(r.path))
    )


def is_pre_nielsen(
    f: GraphMap, path, max_steps: int = 12
) -> tuple[str, int | None, int | None]:
    """Walk the forward orbit of a path looking for a repeat.

    Returns (verdict, entry, period): "nielsen" when the path itself is
    periodic, "pre-nielsen" when some forward image is, and "transient"
    when no repeat shows up within max_steps (or the orbit blows past
    the length cap).
    """
    cur = tuple(path)
    seen = {cur: 0}
    for j in range(1, max_steps + 1):
        cur = f.map_letters(cur)
        if not cur or len(cur) > _ORBIT_CAP:
            return "transient", None, None
        if cur in seen:
            entry = seen[cur]
            period = j - entry
            return ("nielsen" if entry == 0 else "pre-nielsen", entry, period)
        seen[cur] = j
    return "transient", None, None


def check_np_constraints(
    f: GraphMap, rec: NielsenPathRecord
) -> dict[str, bool | None]:
    """Structural sanity checks for an INP candidate.  Values are True,
    False, or None when the check does not apply (inexact endpoints)."""
    filtration = f.filtration
    flags = f.illegal_flags(rec.path)
    out: dict[str, bool | None] = {}
    out["one_illegal_turn"] = sum(flags) == 1
    if sum(flags) == 1:
        tip = flags.index(True)
        left = rec.path[: tip + 1]
        right = rec.path[tip + 1 :]
        out["halves_legal"] = f.is_legal(left) and f.is_legal(right)
    else:
        out["halves_legal"] = False
    height = max(filtration.stratum_of(d) for d in rec.path)
    out["height_exponential"] = filtration.stratum(height).is_exponential
    if rec.exact:
        out["periodic"] = f.iterate_letters(rec.path, rec.period) == rec.path
        g = f.graph
        v0, v1 = g.origin(rec.path[0]), g.terminus(rec.path[-1])
        w0, w1 = v0, v1
        for _ in range(rec.period):
            w0, w1 = f.vertex_image[w0], f.vertex_image[w1]
        out["endpoints_fixed"] = (w0, w1) == (v0, v1)
    else:
        out["periodic"] = None
        out["endpoints_fixed"] = None
    return out


def split_basic_paths(
    f: GraphMap,
    edges,
    r: int,
    circuit: bool = False,
) -> list[tuple[int, ...]]:
    """Split a path in G_r at the polynomial stratum H_r = {E}: cut
    immediately before each occurrence of E and immediately after each
    occurrence of E inverse.  Pieces have the shapes E u, E u E^-1, or
    u with u below the stratum.  Circuits are rotated to start at a cut
    point first; a circuit not crossing E comes back whole.
    """
    filtration = f.filtration
    stratum = filtration.stratum(r)
    if stratum.kind != "polynomial" or len(stratum.edges) != 1:
        raise ValueError("splitting needs a single-edge polynomial stratum")
    e = stratum.edges[0]
    allowed = filtration.edges_through(r)
    edges = tuple(edges)
    if any(abs(d) not in allowed for d in edges):
        raise ValueError("path is not contained in G_r")

    def cut_points(seq):
        pts = set()
        for i, d in enumerate(seq):
            if d == e:
                pts.add(i)
            elif d == -e:
                pts.add(i + 1)
        return sorted(p for p in pts if 0 < p < len(seq))

    if circuit:
        anchors = [i for i, d in enumerate(edges) if d == e] + [
            i + 1 for i, d in enumerate(edges) if d == -e
        ]
        if not anchors:
            return [edges]
        shift = min(a % len(edges) for a in anchors)
        edges = edges[shift:] + edges[:shift]
    pts = cut_points(edges)
    pieces = []
    prev = 0
    for p in pts + [len(edges)]:
        pieces.append(edges[prev:p])
        prev = p
    return pieces


def basic_path_type(filtration: Filtration, piece, r: int) -> str:
    e = filtration.stratum(r).edges[0]
    first = piece[0] == e
    last = piece[-1] == -e
    if first and last:
        return "eue"
    if first:
        return "eu"
    if last:
        return "ue"
    return "u"


def verify_splitting(
    f: GraphMap,
    whole,
    pieces,
    k_max: int = 5,
    circuit: bool = False,
) -> tuple[bool, dict | None]:
    """Check that a decomposition really is a splitting: for every k up
    to k_max the pieces' images tighten independently and concatenate,
    with no cancellation at the junctions, to the image of the whole."""
    whole = tuple(whole)
    pieces = [tuple(p) for p in pieces]
    joined = tuple(d for p in pieces for d in p)
    if joined != whole:
        return False, {"reason": "pieces do not concatenate to the path"}
    for k in range(1, k_max + 1):
        images = [f.iterate_letters(p, k) for p in pieces]
        pairs = list(zip(images, images[1:]))
        if circuit and len(images) > 1:
            pairs.append((images[-1], images[0]))
        for i, (a, b) in enumerate(pairs):
            if a and b and a[-1] == -b[0]:
                return False, {"k": k, "junction": i, "reason": "cancellation"}
        concat = tuple(d for img in images for d in img)
        target = f.iterate_letters(whole, k)
        if concat != target:
            return False, {"k": k, "reason": "images do not concatenate"}
    return True, None
