"""Length and illegal-turn statistics, cancellation constants, and
executable validators for the growth estimates.

Conventions.  For a tight path p: L(p) is its metric length, i(p) the
number of illegal turns it contains, and script_L(p) the length of its
longest maximal legal segment.  The r-variants count only turns that
involve an edge of the exponential stratum H_r and measure only the
H_r part of the length.  Circuits use cyclic turns and segments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GraphMap, canonical_circuit, preimage_circuit
from .nielsen import is_pre_nielsen, split_basic_paths, verify_splitting
from .strata import CheckReport, Filtration, Metric
from .words import BudgetExceeded, common_prefix, inverse_keys, key_word, letter_key

__all__ = [
    "PathStats",
    "CancellationData",
    "TrichotomyVerdict",
    "DecompositionReport",
    "path_stats",
    "bcc_estimate",
    "validate_bcc",
    "validate_bw1",
    "validate_illen",
    "trichotomy_classify",
    "validate_tricho",
    "validate_backgrowth",
    "BoundViolation",
    "growth_decomposition",
    "validate_decomp",
]

_SLACK = 1e-9
# trichotomy_classify: longest pre-Nielsen piece tried, and the forward
# steps that is_pre_nielsen and verify_splitting take
_PIECE_CAP = 12
_PRE_STEPS = 8


@dataclass(frozen=True)
class PathStats:
    L: float
    i: int
    script_L: float
    L_r: float | None = None
    i_r: int | None = None
    script_L_r: float | None = None


def _segments(edges, cut_flags, circuit):
    """Split a tuple of edges at flagged junctions.  cut_flags[j] refers
    to the junction after edge j (for circuits the last flag is the wrap
    junction).  A circuit with no cuts comes back as one cyclic piece."""
    edges = tuple(edges)
    if not any(cut_flags):
        return [edges]
    if circuit:
        # rotate the last cut onto the wrap junction, then cut as a path
        shift = (max(j for j, c in enumerate(cut_flags) if c) + 1) % len(edges)
        edges = edges[shift:] + edges[:shift]
        cut_flags = cut_flags[shift:] + cut_flags[:shift]
    pieces = []
    prev = 0
    for j, c in enumerate(cut_flags):
        if c:
            pieces.append(edges[prev : j + 1])
            prev = j + 1
    if prev < len(edges):
        pieces.append(edges[prev:])
    return pieces


def path_stats(
    p,
    filtration: Filtration,
    metric: Metric,
    r: int | None = None,
    circuit: bool = False,
) -> PathStats:
    """Exact turn counts and metric lengths of a tight path or circuit."""
    edges = tuple(p)
    if not edges:
        raise ValueError("constant paths have no defined statistics")
    f = filtration.graph_map
    ill_flags = f.illegal_flags(edges, circuit=circuit)
    L = metric.length(edges)
    i = sum(ill_flags)
    script_L = (
        L
        if i == 0
        else max(metric.length(s) for s in _segments(edges, ill_flags, circuit))
    )
    out = {"L": L, "i": i, "script_L": script_L}
    if r is not None:
        hr = frozenset(filtration.stratum(r).edges)
        gr = filtration.edges_through(r)
        if any(abs(d) not in gr for d in edges):
            raise ValueError(f"path is not contained in G_{r}")
        r_flags = f.illegal_flags(edges, hr, circuit)
        L_r = metric.r_length(edges, hr)
        i_r = sum(r_flags)
        script_L_r = (
            L_r
            if i_r == 0
            else max(
                metric.r_length(s, hr)
                for s in _segments(edges, r_flags, circuit)
            )
        )
        out.update(L_r=L_r, i_r=i_r, script_L_r=script_L_r)
    return PathStats(**out)


@dataclass(frozen=True)
class CancellationData:
    C_f: float
    window: int
    stable: bool
    critical: dict[int, float]

    def critical_length(self, r: int | None = None) -> float:
        if not self.critical:
            raise ValueError("no exponential stratum, no critical length")
        if r is None:
            if len(self.critical) != 1:
                raise ValueError("stratum index required")
            return next(iter(self.critical.values()))
        return self.critical[r]


def _iter_path_images(f: GraphMap, window: int):
    """All tight paths with at most window edges, as triples
    (first direction, last direction, tightened image as key bytes)."""
    g = f.graph
    dirs = g.directions()
    img = {d: key_word(f.edge_image(d)) for d in dirs}
    stack = [((d,), img[d]) for d in reversed(dirs)]
    while stack:
        path, u = stack.pop()
        yield path[0], path[-1], u
        if len(path) < window:
            for d in g.successors(path[-1]):
                w = img[d]
                i, j = len(u), 0
                while i > 0 and j < len(w) and u[i - 1] == w[j] ^ 1:
                    i -= 1
                    j += 1
                stack.append((path + (d,), u[:i] + w[j:]))


def _max_cancellation(f: GraphMap, metric: Metric, window: int) -> float:
    """Exact maximum of L([f a]) + L([f b]) - L([f(ab)]) over tight
    concatenations a.b with |a|, |b| <= window.

    Tightening u.w removes exactly twice the longest common prefix of
    the reduced words u^-1 and w, so the maximum is twice the heaviest
    common prefix between the set of inverted images of paths (grouped
    by last direction) and the set of images (grouped by first
    direction), over group pairs that meet tightly at a vertex.  In a
    lexicographic sort the heaviest cross-group prefix occurs between
    neighbors, so one sorted scan with per-group last-seen words covers
    every pair without the quadratic join.  Words with different first
    keys share no prefix, so each word is compared only with the groups
    seen since the scan's first key last changed.
    """
    g = f.graph
    dirs = g.directions()
    ndir = len(dirs)
    nkeys = 2 * g.edge_count
    len_by_key = [0.0] * nkeys
    for d in dirs:
        len_by_key[letter_key(d)] = metric.edge_length(d)
    max_edge = max(len_by_key)
    tag_a = {d: i for i, d in enumerate(dirs)}
    tag_b = {d: i + ndir for i, d in enumerate(dirs)}
    partners: list[set[int]] = [set() for _ in range(2 * ndir)]
    for d in dirs:
        for d2 in g.successors(d):
            partners[tag_a[d]].add(tag_b[d2])
            partners[tag_b[d2]].add(tag_a[d])
    seen: list[set[bytes]] = [set() for _ in range(2 * ndir)]
    for first, last, u in _iter_path_images(f, window):
        if u:
            seen[tag_b[first]].add(u)
            seen[tag_a[last]].add(inverse_keys(u))
    entries = [(w, t) for t, bucket in enumerate(seen) for w in bucket]
    entries.sort()
    best = 0.0
    lead = None
    latest: dict[int, bytes] = {}
    for w, t in entries:
        if w[0] != lead:
            lead, latest = w[0], {}
        for p, v in latest.items():
            if p not in partners[t]:
                continue
            k = common_prefix(w, v)
            if k and 2.0 * k * max_edge > best:
                c = 2.0 * sum(len_by_key[b] for b in w[:k])
                if c > best:
                    best = c
        latest[t] = w
    return best


def bcc_estimate(f: GraphMap, pair_len_bound: int = 8) -> CancellationData:
    """Bounded cancellation constant by exhaustive windowed search.

    C_f bounds L([f(a)]) + L([f(b)]) - L([f(ab)]) over tight
    concatenations.  The cancelled segment only depends on a bounded
    terminal piece of a and initial piece of b, so the window W grows
    until the maximum stops changing and is short of the guaranteed
    surviving image length lambda_min (W-1) l_min; failing that within
    pair_len_bound, the result is flagged as a lower bound.
    """
    if pair_len_bound < 1:
        raise ValueError("pair_len_bound must be >= 1")
    metric = f.filtration.metric
    exp = f.filtration.exponential_strata()
    lam_min = min((s.pf_value for s in exp), default=1.0)
    l_min = min(metric.lengths.values())
    cur = _max_cancellation(f, metric, 1)
    window = 1
    stable = False
    while window < pair_len_bound:
        window += 1
        nxt = _max_cancellation(f, metric, window)
        if nxt == cur and nxt < lam_min * (window - 1) * l_min:
            stable = True
            break
        cur = nxt
    critical = {
        s.index: 2.0 * cur / (s.pf_value - 1.0) for s in exp
    }
    return CancellationData(C_f=cur, window=window, stable=stable, critical=critical)


def validate_bcc(f: GraphMap, pair_len_bound: int = 8) -> CheckReport:
    """bcc_estimate as a check: its constants, passing when the windowed
    search stabilised within pair_len_bound."""
    data = bcc_estimate(f, pair_len_bound)
    constants = {"C_f": data.C_f, "window": data.window, "stable": data.stable}
    for idx in sorted(data.critical):
        constants[f"critical_length_{idx}"] = data.critical[idx]
    return CheckReport(data.stable, [], constants)


def _require_absolute(filtration: Filtration) -> float:
    if len(filtration.strata) != 1 or filtration.strata[0].kind != "exponential":
        raise ValueError(
            "this validator needs an absolute train track map "
            "(a single exponential stratum)"
        )
    return filtration.strata[0].pf_value


def _circuit_row(g, c, k, st: PathStats, r, bound, margin, ok) -> dict:
    """The row validate_bw1 and validate_backgrowth report for one circuit
    and exponent k: the statistics st of its k-fold preimage, the bound and
    the margin."""
    return {
        "circuit": g.spell_path(c),
        "k": k,
        "L": st.L,
        "Lr": st.L_r,
        "i": st.i,
        "ir": st.i_r,
        "scriptL": st.script_L if r is None else st.script_L_r,
        "bound": bound,
        "margin": margin,
        "pass": bool(ok),
    }


def validate_bw1(
    f: GraphMap,
    f_inv: GraphMap,
    circuits,
    k_max: int = 5,
    r: int | None = None,
) -> CheckReport:
    """Backward control of the longest legal segment: for every circuit
    and k <= k_max, script_L of the k-fold preimage stays below
    script_L / lambda^k + L_c, and below script_L + L_c (weaker form).
    Passes when every row does.

    With r (relative form, BW2, for circuits in G_r): script_L_r of the
    preimage stays below script_L_r + L_c_r.
    """
    filtration, metric = f.filtration, f.filtration.metric
    if r is None:
        lam = _require_absolute(filtration)
    cancellation = bcc_estimate(f)
    lc = cancellation.critical_length(r)
    if r is None:
        constants = {"lambda": lam, "C_f": cancellation.C_f, "L_c": lc}
    else:
        constants = {"L_c_r": lc, "r": r}
    rows = []
    stratum = filtration.strata[0].index if r is None else r
    g = f.graph
    for c in circuits:
        c = canonical_circuit(g, c)
        base = path_stats(c, filtration, metric, r=stratum, circuit=True)
        for k in range(1, k_max + 1):
            pre = preimage_circuit(f, f_inv, c, k)
            st = path_stats(pre, filtration, metric, r=stratum, circuit=True)
            if r is None:
                seg = st.script_L
                bound = base.script_L / lam ** k + lc
                weak_ok = seg < base.script_L + lc + _SLACK * max(1.0, lc)
            else:
                seg = st.script_L_r
                bound = base.script_L_r + lc
                weak_ok = True
            margin = bound - seg
            ok = margin > -_SLACK * max(1.0, abs(bound)) and weak_ok
            rows.append(_circuit_row(g, c, k, st, r, bound, margin, ok))
    return CheckReport(all(row["pass"] for row in rows), rows, constants)


def validate_illen(
    sample,
    L: float,
    filtration: Filtration,
    circuit: bool = False,
    r: int | None = None,
) -> CheckReport:
    """Least constant C with i/C <= metric length <= C i over the sample
    paths (filtered to 1 <= script_L <= L and i > 0), as the constant C
    of a passing report.  With r, the same over the r-quantities i_r, L_r
    and script_L_r.  Raises ValueError when no sample path qualifies."""
    metric = filtration.metric
    best = None
    for p in sample:
        st = path_stats(p, filtration, metric, r=r, circuit=circuit)
        if r is None:
            length, turns, seg = st.L, st.i, st.script_L
        else:
            length, turns, seg = st.L_r, st.i_r, st.script_L_r
        if turns == 0 or not (1.0 - _SLACK <= seg <= L + _SLACK):
            continue
        c = max(length / turns, turns / length)
        best = c if best is None else max(best, c)
    if best is None:
        raise ValueError("no sample path meets the preconditions")
    constants = {"C": best, "L": L}
    if r is not None:
        constants["stratum"] = r
    return CheckReport(True, [], constants)


@dataclass(frozen=True)
class TrichotomyVerdict:
    case: str
    witness: dict


def _splittable_into_pre_nielsen(f, edges) -> list[tuple[int, ...]] | None:
    """Try to split a path into pre-Nielsen pieces with one illegal turn
    each.  Returns the pieces, or None."""
    n = len(edges)

    def piece_ok(piece):
        if sum(f.illegal_flags(piece)) != 1:
            return False
        verdict, _, _ = is_pre_nielsen(f, piece, max_steps=_PRE_STEPS)
        return verdict in ("nielsen", "pre-nielsen")

    parts: list[list[tuple[int, ...]] | None] = [None] * (n + 1)
    parts[n] = []
    for pos in range(n - 1, -1, -1):
        for nxt in range(pos + 1, min(pos + _PIECE_CAP, n) + 1):
            if parts[nxt] is None:
                continue
            piece = edges[pos:nxt]
            if piece_ok(piece):
                parts[pos] = [piece] + parts[nxt]
                break
    if parts[0] is None:
        return None
    ok, _ = verify_splitting(f, edges, parts[0], k_max=_PRE_STEPS)
    return parts[0] if ok else None


def trichotomy_classify(
    f: GraphMap,
    rho,
    M: int,
    L: float,
) -> TrichotomyVerdict:
    """Classify the behavior of a path under M iterations: a legal
    segment longer than L appears, or illegal turns drop, or the path
    itself decomposes around a core that splits into pre-Nielsen pieces
    (short, at most one illegal turn on each side trim).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    filtration, metric = f.filtration, f.filtration.metric
    rho = tuple(rho)
    base = path_stats(rho, filtration, metric)
    img = path_stats(f.iterate_letters(rho, M), filtration, metric)
    if img.script_L > L + _SLACK:
        return TrichotomyVerdict(
            case="long-legal-segment",
            witness={"segment_length": img.script_L, "threshold": L, "M": M},
        )
    if img.i < base.i:
        return TrichotomyVerdict(
            case="fewer-illegal-turns",
            witness={"before": base.i, "after": img.i, "M": M},
        )
    n = len(rho)

    def trim_ok(piece):
        if not piece:
            return True
        st = path_stats(piece, filtration, metric)
        return st.L <= 2 * L + _SLACK and st.i <= 1

    for a in range(0, n):
        if not trim_ok(rho[:a]):
            break
        for b in range(n, a, -1):
            # suffixes only grow as b decreases, so the first failure ends it
            if not trim_ok(rho[b:]):
                break
            pieces = _splittable_into_pre_nielsen(f, rho[a:b])
            if pieces is not None:
                return TrichotomyVerdict(
                    case="pre-nielsen-splitting",
                    witness={
                        "tau1": rho[:a],
                        "tau2": rho[b:],
                        "pieces": pieces,
                    },
                )
    return TrichotomyVerdict(case="unresolved", witness={"M": M, "L": L})


def validate_tricho(f: GraphMap, paths, M: int, L: float) -> CheckReport:
    """trichotomy_classify on every path: one row per path with its case,
    passing when no path is unresolved."""
    rows = []
    for p in paths:
        case = trichotomy_classify(f, p, M=M, L=L).case
        rows.append({
            "path": f.graph.spell_path(p),
            "case": case,
            "pass": case != "unresolved",
        })
    unresolved = sum(not row["pass"] for row in rows)
    return CheckReport(
        not unresolved, rows, {"unresolved": unresolved, "M": M, "L": L}
    )


def _qualifying_circuits(f, circuits, L0, i_min, r):
    """Circuits meeting the preconditions: enough illegal turns, short
    legal segments."""
    filtration, metric = f.filtration, f.filtration.metric
    g = f.graph
    keep = []
    for c in circuits:
        c = canonical_circuit(g, c)
        base = path_stats(c, filtration, metric, r=r, circuit=True)
        seg = base.script_L if r is None else base.script_L_r
        turns = base.i if r is None else base.i_r
        if turns >= i_min and seg <= L0 + _SLACK:
            keep.append((c, turns))
    return keep


def _backgrowth_rows(f, f_inv, qualified, M, n_max, ratio, r):
    filtration, metric = f.filtration, f.filtration.metric
    g = f.graph
    rows = []
    for c, turns in qualified:
        for n in range(1, n_max + 1):
            pre = preimage_circuit(f, f_inv, c, n * M)
            st = path_stats(pre, filtration, metric, r=r, circuit=True)
            val = st.i if r is None else st.i_r
            bound = ratio ** n * turns
            ok = val >= bound - _SLACK * max(1.0, bound)
            rows.append(_circuit_row(g, c, n * M, st, r, bound, val - bound, ok))
    return rows


def validate_backgrowth(
    f: GraphMap,
    f_inv: GraphMap,
    sample,
    L0: float,
    n_max: int = 3,
    m_search_max: int = 12,
    r: int | None = None,
) -> CheckReport:
    """Backward growth of illegal turns: (8/7)^n i <= i of the nM-fold
    preimage, over sample circuits with script_L <= L0 and i >= 4.  With
    r, the relative form: (10/9)^n i_r, over circuits in G_r with
    script_L_r <= L0 and i_r >= 5.  The least workable exponent
    M <= m_search_max is searched for, and the report passes when one is
    found.  It also passes, vacuously and with no rows, when no sample
    circuit qualifies: its constants then say qualifying 0."""
    ratio, i_min = (8.0 / 7.0, 4) if r is None else (10.0 / 9.0, 5)
    qualified = _qualifying_circuits(f, sample, L0, i_min, r)
    for m in range(1, m_search_max + 1):
        rows = _backgrowth_rows(f, f_inv, qualified, m, n_max, ratio, r)
        if rows and all(row["pass"] for row in rows):
            return CheckReport(True, rows, {
                "M": m, "ratio": ratio, "found": True,
                "qualifying": len(qualified),
            })
    return CheckReport(not qualified, [], {
        "M": None, "ratio": ratio, "found": False,
        "qualifying": len(qualified), "searched": m_search_max,
    })


class BoundViolation(Exception):
    """A bound that growth_decomposition guarantees failed on a circuit."""


@dataclass(frozen=True)
class DecompositionReport:
    case: str
    pieces: list[tuple[int, ...]]
    fraction: float
    details: dict


def _longest_short_path(graph, metric: Metric, L0: float, budget: int = 2_000_000):
    """Length of the longest tight path of metric length strictly below
    L0 (endpoints at vertices).  Exhaustive.

    A tight path's extensions depend only on its last direction and its
    cut at L0 only on its length, so a depth-first search over the
    states (last direction, length so far) reaches every length that
    listing the paths would, visiting each state once.  Lengths grow by
    Metric.extend, the step of Metric.length, so the result is the same
    float.  Positive edge lengths keep the search finite; budget caps
    the number of states."""
    cut = L0 - _SLACK
    seen: set[tuple[int, float]] = set()
    stack = [(d, metric.extend(0, d)) for d in graph.directions()]
    while stack:
        state = stack.pop()
        d, x = state
        if x >= cut or state in seen:
            continue
        if len(seen) >= budget:
            raise BudgetExceeded("short-path enumeration budget exceeded")
        seen.add(state)
        stack.extend((e, metric.extend(x, e)) for e in graph.successors(d))
    return float(max((x for _, x in seen), default=0))


def growth_decomposition(
    sigma, L0: float, filtration: Filtration
) -> DecompositionReport:
    """Label a circuit with the case that governs its growth and return
    the witnessing collection of subpaths.

    Exponential top stratum: either the circuit is legal or long between
    illegal turns (case legal-or-sparse: keep maximal legal segments of
    length >= L0; their share is at least 1 - l/L0 where l is the
    longest vertex-to-vertex path shorter than L0), or it has at least 4
    illegal turns (case many-illegal-turns: strip legal runs longer than
    6 L0, keep leftover blocks with >= 4 illegal turns; share at least
    1/(6 L0)), or it is short (case short-circuit, length < 3 L0).  A
    polynomially growing top stratum is handled by basic-path splitting.
    A bound that fails on the circuit raises BoundViolation.
    """
    metric = filtration.metric
    f = filtration.graph_map
    g = f.graph
    edges = canonical_circuit(g, sigma)
    if not edges:
        raise ValueError("trivial circuit")
    top = max(filtration.stratum_of(d) for d in edges)
    total = metric.length(edges)
    if filtration.stratum(top).kind == "polynomial":
        pieces = split_basic_paths(f, edges, top, circuit=True)
        return DecompositionReport(
            case="polynomial-top",
            pieces=pieces,
            fraction=1.0,
            details={"stratum": top},
        )
    st = path_stats(edges, filtration, metric, circuit=True)
    if st.i == 0:
        return DecompositionReport(
            case="legal-or-sparse",
            pieces=[edges],
            fraction=1.0,
            details={"i": 0},
        )
    segs = _segments(edges, f.illegal_flags(edges, circuit=True), circuit=True)
    if st.L / st.i >= L0 - _SLACK:
        keep = [s for s in segs if metric.length(s) >= L0 - _SLACK]
        frac = sum(metric.length(s) for s in keep) / total
        short = _longest_short_path(g, metric, L0)
        lower = 1.0 - short / L0
        if frac < lower - _SLACK:
            raise BoundViolation(
                f"legal-or-sparse share {frac!r} below {lower!r}"
            )
        return DecompositionReport(
            case="legal-or-sparse",
            pieces=keep,
            fraction=frac,
            details={"lower_bound": lower, "l": short, "i": st.i},
        )
    if st.i >= 4:
        long_flags = [metric.length(s) > 6.0 * L0 + _SLACK for s in segs]
        if not any(long_flags):
            return DecompositionReport(
                case="many-illegal-turns",
                pieces=[edges],
                fraction=1.0,
                details={"i": st.i, "blocks": 1, "removed": 0},
            )
        m = len(segs)
        start = next(j for j, fl in enumerate(long_flags) if fl)
        order = [(start + j) % m for j in range(1, m + 1)]
        blocks: list[list[int]] = []
        cur: list[int] = []
        for j in order:
            if long_flags[j]:
                if cur:
                    blocks.append(cur)
                    cur = []
            else:
                cur.append(j)
        if cur:
            blocks.append(cur)
        pieces = []
        for blk in blocks:
            if len(blk) - 1 >= 4:
                pieces.append(tuple(d for j in blk for d in segs[j]))
        if not pieces:
            raise BoundViolation("no block with enough illegal turns survived")
        frac = sum(metric.length(p) for p in pieces) / total
        if frac < 1.0 / (6.0 * L0) - _SLACK:
            raise BoundViolation(
                f"many-illegal-turns share {frac!r} below 1/(6 L0)"
            )
        return DecompositionReport(
            case="many-illegal-turns",
            pieces=pieces,
            fraction=frac,
            details={
                "i": st.i,
                "blocks": len(blocks),
                "removed": sum(long_flags),
            },
        )
    if st.L > 3.0 * L0 + _SLACK:
        raise BoundViolation(f"short circuit has length {st.L!r} > 3 L0")
    return DecompositionReport(
        case="short-circuit",
        pieces=[edges],
        fraction=1.0,
        details={"i": st.i, "L": st.L},
    )


def validate_decomp(circuits, L0: float, filtration: Filtration) -> CheckReport:
    """growth_decomposition of every circuit: one row per circuit with its
    case, share and piece count.  A circuit on which a guaranteed bound
    fails gets a bound-violated row, and the constant violation holds the
    last such failure; the report passes when there is none."""
    g = filtration.graph_map.graph
    rows, constants = [], {}
    for c in circuits:
        try:
            rep = growth_decomposition(c, L0, filtration)
        except BoundViolation as exc:
            row = {"case": "bound-violated", "pass": False}
            constants["violation"] = str(exc)
        else:
            row = {"case": rep.case, "fraction": rep.fraction,
                   "pieces": len(rep.pieces), "pass": True}
        rows.append({"circuit": g.spell_path(c), **row})
    constants["L0"] = L0
    return CheckReport("violation" not in constants, rows, constants)
