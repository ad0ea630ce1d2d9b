"""Text file formats and deterministic report serialization.

Two input formats are supported.  Automorphism files describe a map on a
free basis:

    basis: a b
    map: a -> a b
    map: b -> a
    inv: a -> b
    inv: b -> b^-1 a

Graph map files describe a graph together with a self-map and an optional
marking:

    vertex: v w
    edge: e1 v w
    edge: e2 w v
    image: e1 -> e1 e2 e1
    mark: e1 -> a
    fvertex: v -> v

Inverse letters and reversed edges are written with the ``^-1`` suffix.
Blank lines and lines starting with ``#`` are ignored.  Defects that can
be repaired (unreduced images) raise :class:`FormatWarning`; everything
else raises :class:`ParseError` with a line number.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .graphs import Graph, GraphMap, tighten
from .words import (
    _ABC,
    Automorphism,
    generator_name,
    invert_verify,
    reduce_letters,
    spell,
)

__all__ = [
    "FormatWarning",
    "ParseError",
    "parse_automorphism",
    "parse_graph_map",
    "load_automorphism",
    "load_graph_map",
    "dump_automorphism",
    "format_float",
    "format_value",
    "canonical_json",
    "render_csv",
    "Report",
    "render_report",
]

class FormatWarning(UserWarning):
    """A recoverable defect in an input file (the parser repaired it)."""


class ParseError(ValueError):
    """A defect in an input file that cannot be repaired.

    Carries the source label and 1-based line number (0 for whole-file
    problems such as a missing section).
    """

    def __init__(self, source: str, line_no: int, message: str):
        self.source = source
        self.line_no = line_no
        self.reason = message
        where = f"{source}:{line_no}" if line_no else source
        super().__init__(f"{where}: {message}")


def _logical_lines(text: str, source: str) -> list[tuple[int, str, str]]:
    """Yield (line number, keyword, payload) for each non-comment line."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(source, no, f"expected 'keyword: ...', got {line!r}")
        out.append((no, key.strip(), rest.strip()))
    return out


def _split_arrow(source: str, no: int, payload: str) -> tuple[str, str]:
    left, sep, right = payload.partition("->")
    if not sep:
        raise ParseError(source, no, f"expected '<name> -> <image>' in {payload!r}")
    return left.strip(), right.strip()


def _parse_letter_token(
    source: str, no: int, tok: str, index: Mapping[str, int], kind: str
) -> int:
    name, sign = tok, 1
    if tok.endswith("^-1"):
        name, sign = tok[: -len("^-1")], -1
    elif "^" in tok:
        raise ParseError(source, no, f"bad exponent in {tok!r} (only ^-1 is allowed)")
    if name not in index:
        raise ParseError(source, no, f"unknown {kind} {name!r}")
    return sign * index[name]


def _parse_word(
    source: str, no: int, payload: str, index: Mapping[str, int], kind: str
) -> tuple[int, ...]:
    toks = payload.split()
    if not toks:
        raise ParseError(source, no, "empty image")
    return tuple(_parse_letter_token(source, no, t, index, kind) for t in toks)


# ---------------------------------------------------------------------------
# automorphism files


def parse_automorphism(text: str, source: str = "<aut>", label: str = "") -> Automorphism:
    """Parse an automorphism file.

    The ``inv:`` section is optional but must be complete when present;
    it is checked to actually invert the map.  Unreduced images are
    reduced with a :class:`FormatWarning`.
    """
    names: list[str] | None = None
    index: dict[str, int] = {}
    images: dict[int, tuple[int, ...]] = {}
    inverses: dict[int, tuple[int, ...]] = {}
    for no, key, payload in _logical_lines(text, source):
        if key == "basis":
            if names is not None:
                raise ParseError(source, no, "duplicate basis line")
            names = payload.split()
            if not names:
                raise ParseError(source, no, "basis line lists no generators")
            if len(set(names)) != len(names):
                raise ParseError(source, no, "duplicate generator names")
            for n in names:
                if n.endswith("^-1") or ":" in n or "->" in n:
                    raise ParseError(source, no, f"bad generator name {n!r}")
            index = {n: i for i, n in enumerate(names, start=1)}
        elif key in ("map", "inv"):
            if names is None:
                raise ParseError(source, no, f"{key} line before basis line")
            target = images if key == "map" else inverses
            lhs, rhs = _split_arrow(source, no, payload)
            if lhs not in index:
                raise ParseError(source, no, f"unknown generator {lhs!r}")
            gen = index[lhs]
            if gen in target:
                raise ParseError(source, no, f"duplicate {key} line for {lhs!r}")
            letters = _parse_word(source, no, rhs, index, "generator")
            reduced = reduce_letters(letters, len(names))
            if reduced != letters:
                warnings.warn(
                    f"{source}:{no}: image of {lhs!r} is not reduced; reducing",
                    FormatWarning,
                    stacklevel=2,
                )
            if not reduced:
                raise ParseError(source, no, f"image of {lhs!r} reduces to the identity")
            target[gen] = reduced
        else:
            raise ParseError(source, no, f"unknown keyword {key!r}")
    if names is None:
        raise ParseError(source, 0, "missing basis line")
    rank = len(names)
    missing = [names[i - 1] for i in range(1, rank + 1) if i not in images]
    if missing:
        raise ParseError(source, 0, f"missing map lines for: {' '.join(missing)}")
    inv_words = None
    if inverses:
        missing = [names[i - 1] for i in range(1, rank + 1) if i not in inverses]
        if missing:
            raise ParseError(source, 0, f"missing inv lines for: {' '.join(missing)}")
        inv_words = [inverses[i] for i in range(1, rank + 1)]
    phi = Automorphism(
        rank,
        [images[i] for i in range(1, rank + 1)],
        inv_words,
        label=label or source,
    )
    if inv_words is not None and not invert_verify(phi, inv_words):
        raise ParseError(source, 0, "inv lines do not invert the map")
    return phi


def dump_automorphism(phi: Automorphism) -> str:
    """Render an automorphism in the text format parse_automorphism reads."""
    names = [generator_name(i, phi.rank) for i in range(1, phi.rank + 1)]
    out = [f"basis: {' '.join(names)}"]
    for i, n in enumerate(names):
        out.append(f"map: {n} -> {spell(phi.images[i], phi.rank)}")
    if phi.inverse_images is not None:
        for i, n in enumerate(names):
            out.append(f"inv: {n} -> {spell(phi.inverse_images[i], phi.rank)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# graph map files


def _generator_index(source: str, no: int, tok: str) -> tuple[str, int]:
    """Resolve a marking token to (base name, sign)."""
    name, sign = tok, 1
    if tok.endswith("^-1"):
        name, sign = tok[: -len("^-1")], -1
    elif "^" in tok:
        raise ParseError(source, no, f"bad exponent in {tok!r} (only ^-1 is allowed)")
    if len(name) == 1 and name in _ABC:
        return name, sign
    if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
        return name, sign
    raise ParseError(source, no, f"bad marking letter {name!r}")


def parse_graph_map(text: str, source: str = "<gm>", label: str = "") -> GraphMap:
    """Parse a graph map file.

    ``fvertex`` lines may be omitted for vertices whose image is forced
    by an edge image.  ``mark`` lines are optional but must cover every
    edge when present.  Untight edge images are tightened with a
    :class:`FormatWarning`.
    """
    vertices: list[str] = []
    vset: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    enames: set[str] = set()
    image_lines: list[tuple[int, str, str]] = []
    mark_lines: list[tuple[int, str, str]] = []
    fvertex: dict[str, str] = {}
    for no, key, payload in _logical_lines(text, source):
        if key == "vertex":
            for v in payload.split():
                if v in vset:
                    raise ParseError(source, no, f"duplicate vertex {v!r}")
                vset.add(v)
                vertices.append(v)
        elif key == "edge":
            parts = payload.split()
            if len(parts) != 3:
                raise ParseError(source, no, "expected 'edge: name origin terminus'")
            name, o, t = parts
            if name in enames:
                raise ParseError(source, no, f"duplicate edge {name!r}")
            if o not in vset or t not in vset:
                raise ParseError(source, no, f"edge {name!r} references unknown vertex")
            enames.add(name)
            edges.append((name, o, t))
        elif key == "image":
            image_lines.append((no, *_split_arrow(source, no, payload)))
        elif key == "mark":
            mark_lines.append((no, *_split_arrow(source, no, payload)))
        elif key == "fvertex":
            lhs, rhs = _split_arrow(source, no, payload)
            if lhs not in vset or rhs not in vset:
                raise ParseError(source, no, f"unknown vertex in {payload!r}")
            if lhs in fvertex:
                raise ParseError(source, no, f"duplicate fvertex line for {lhs!r}")
            fvertex[lhs] = rhs
        else:
            raise ParseError(source, no, f"unknown keyword {key!r}")
    if not vertices:
        raise ParseError(source, 0, "no vertex lines")
    if not edges:
        raise ParseError(source, 0, "no edge lines")

    # marking letters are resolved against the generator naming convention
    marking: dict[str, tuple[int, ...]] | None = None
    if mark_lines:
        resolved: list[tuple[int, str, list[tuple[str, int]]]] = []
        base_names: set[str] = set()
        for no, lhs, rhs in mark_lines:
            toks = rhs.split()
            if not toks:
                raise ParseError(source, no, "empty marking word")
            pairs = [_generator_index(source, no, t) for t in toks]
            base_names.update(n for n, _ in pairs)
            resolved.append((no, lhs, pairs))
        if any(n.startswith("x") and len(n) > 1 for n in base_names):
            rank = max(int(n[1:]) for n in base_names)
            to_index = {f"x{i}": i for i in range(1, rank + 1)}
        else:
            rank = max(_ABC.index(n) + 1 for n in base_names)
            to_index = {_ABC[i - 1]: i for i in range(1, rank + 1)}
        marking = {}
        for no, lhs, pairs in resolved:
            if lhs not in enames:
                raise ParseError(source, no, f"unknown edge {lhs!r}")
            if lhs in marking:
                raise ParseError(source, no, f"duplicate mark line for {lhs!r}")
            try:
                marking[lhs] = tuple(sign * to_index[n] for n, sign in pairs)
            except KeyError as exc:
                raise ParseError(source, no, f"bad marking letter {exc.args[0]!r}") from None

    try:
        graph = Graph(vertices, edges, marking=marking)
    except ValueError as exc:
        raise ParseError(source, 0, str(exc)) from None

    eindex = {n: graph.edge_id(n) for n in graph.edge_names}
    edge_images: dict[str, tuple[int, ...]] = {}
    for no, lhs, rhs in image_lines:
        if lhs not in eindex:
            raise ParseError(source, no, f"unknown edge {lhs!r}")
        if lhs in edge_images:
            raise ParseError(source, no, f"duplicate image line for {lhs!r}")
        path = _parse_word(source, no, rhs, eindex, "edge")
        tight = tighten(path)
        if tight != path:
            warnings.warn(
                f"{source}:{no}: image of {lhs!r} is not tight; tightening",
                FormatWarning,
                stacklevel=2,
            )
        if not tight:
            raise ParseError(source, no, f"image of {lhs!r} tightens to a point")
        edge_images[lhs] = tight
    missing = [n for n in graph.edge_names if n not in edge_images]
    if missing:
        raise ParseError(source, 0, f"missing image lines for: {' '.join(missing)}")

    # vertex images omitted from the file are forced by edge images
    vertex_image = dict(fvertex)
    for v in vertices:
        if v in vertex_image:
            continue
        d = min(graph.directions_at(v), key=abs)
        img = edge_images[graph.edge_names[abs(d) - 1]]
        first = img[0] if d > 0 else -img[-1]
        vertex_image[v] = graph.origin(first)
    try:
        return GraphMap(graph, vertex_image, edge_images, label=label or source)
    except ValueError as exc:
        raise ParseError(source, 0, str(exc)) from None


def _load(parse, path: Any):
    """Parse a file, labelled by its name without the extension."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.basename(str(path))
    return parse(text, source=name, label=name.rsplit(".", 1)[0])


def load_automorphism(path: Any) -> Automorphism:
    return _load(parse_automorphism, path)


def load_graph_map(path: Any) -> GraphMap:
    return _load(parse_graph_map, path)


# ---------------------------------------------------------------------------
# report output


def format_float(x: float) -> str:
    """Render a float at 12 significant digits."""
    return f"{x:.12g}"


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        # rounding first keeps the emitted digits at 12 significant figures
        return float(format_float(obj))
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize a report deterministically (12 significant digit floats)."""
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def format_value(v: Any) -> str:
    """A report value as text: floats at 12 significant digits, bools as
    true/false, lists joined by spaces, anything else by str."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (list, tuple)):
        return " ".join(map(format_value, v))
    return str(v)


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render rows as CSV with LF line endings, each cell by format_value;
    None is an empty cell."""

    def cell(v: Any) -> str:
        if v is None:
            return ""
        s = format_value(v)
        if "," in s or '"' in s or "\n" in s:
            s = '"' + s.replace('"', '""') + '"'
        return s

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(cell, row)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Report:
    """A subcommand's result and exit code.  ``fields`` is the JSON
    document, and ``fields[table]`` the list of row dicts that the CSV
    writes ``columns`` of and the text writes by the ``row`` format after
    the ``head`` lines.  ``csv_rows``, when set, builds the CSV's rows in
    their place: a table that only the CSV holds."""

    fields: dict
    code: int = 0
    table: str | None = None
    columns: Sequence[str] = ()
    head: Sequence[str] = ()
    row: str = ""
    csv_rows: Callable[[], Iterable[Sequence[Any]]] | None = None


def render_report(report: Report, fmt: str) -> str:
    """The report as one of the formats json, csv and text."""
    if fmt == "json":
        return canonical_json(report.fields)
    rows = report.fields[report.table] if report.table else []
    if fmt == "csv":
        if report.csv_rows is not None:
            return render_csv(report.columns, report.csv_rows())
        cols = report.columns
        return render_csv(cols, ([r.get(c) for c in cols] for r in rows))
    lines = list(report.head)
    if report.row:
        lines += [
            report.row.format_map({k: format_value(v) for k, v in r.items()})
            for r in rows
        ]
    return "\n".join(lines) + "\n"
