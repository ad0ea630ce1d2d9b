import json

import pytest

from traintrack.fixtures import FIXTURE_FILES, fixture_text, load_fixture
from traintrack.formats import (
    FormatWarning,
    ParseError,
    canonical_json,
    dump_automorphism,
    format_float,
    parse_automorphism,
    parse_graph_map,
    Report,
    render_csv,
    render_report,
)

from conftest import outer_equal

FIB_TEXT = """\
# golden mean map
basis: a b
map: a -> a b
map: b -> a
inv: a -> b
inv: b -> b^-1 a
"""

GM_TEXT = """\
vertex: v
edge: ea v v
edge: eb v v
image: ea -> ea eb
image: eb -> ea
mark: ea -> a
mark: eb -> b
fvertex: v -> v
"""


class TestAutomorphismParsing:
    def test_round_trip(self, fib):
        text = dump_automorphism(fib)
        again = parse_automorphism(text)
        assert again.images == fib.images
        assert again.inverse_images == fib.inverse_images

    def test_parse_fib(self, fib):
        phi = parse_automorphism(FIB_TEXT, label="fib")
        assert outer_equal(phi, fib)
        assert phi.label == "fib"

    def test_comments_and_blanks_skipped(self):
        text = "\n# nothing\n" + FIB_TEXT + "\n   \n"
        parse_automorphism(text)

    @pytest.mark.parametrize(
        "mutate, line, fragment",
        [
            (lambda t: t.replace("map: a -> a b", "map: a -> a c"), 3, "unknown generator 'c'"),
            (lambda t: t.replace("basis: a b", "basis: a a"), 2, "duplicate generator"),
            (lambda t: "map: a -> a\n" + t, 1, "before basis"),
            (lambda t: t + "map: a -> b\n", 7, "duplicate map line"),
            (lambda t: t.replace("map: b -> a\n", ""), 0, "missing map lines for: b"),
            (lambda t: t.replace("inv: a -> b", "inv: a -> a"), 0, "do not invert"),
            (lambda t: t.replace("map: b -> a\n", "map: b -> a a^-1\n"), 4, "reduces to the identity"),
            (lambda t: t.replace("map: a -> a b", "map: a -> a^2 b"), 3, "bad exponent"),
            (lambda t: t.replace("map: a -> a b", "map a -> a b"), 3, "expected 'keyword: ...'"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::traintrack.formats.FormatWarning")
    def test_diagnostics_carry_line_numbers(self, mutate, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_automorphism(mutate(FIB_TEXT), source="bad.aut")
        assert err.value.line_no == line
        assert fragment in err.value.reason
        if line:
            assert str(err.value).startswith(f"bad.aut:{line}:")
        else:
            assert str(err.value).startswith("bad.aut:")

    def test_unreduced_image_is_repaired(self):
        text = FIB_TEXT.replace("map: a -> a b", "map: a -> a b^-1 b b")
        with pytest.warns(FormatWarning, match="not reduced"):
            phi = parse_automorphism(text)
        assert phi.images[0] == (1, 2)

    def test_inv_lines_optional(self):
        text = "basis: a b\nmap: a -> a b\nmap: b -> a\n"
        phi = parse_automorphism(text)
        assert phi.inverse_images is None


class TestGraphMapParsing:
    def test_parse_and_infer_vertex_image(self):
        f = parse_graph_map(GM_TEXT)
        assert f.graph.edge_names == ("ea", "eb")
        assert f.edge_image(1) == (1, 2)
        assert f.vertex_image == {"v": "v"}

    def test_fvertex_line_can_be_omitted(self):
        f = parse_graph_map(GM_TEXT.replace("fvertex: v -> v\n", ""))
        assert f.vertex_image == {"v": "v"}

    def test_marking_letters(self):
        text = GM_TEXT.replace("mark: ea -> a", "mark: ea -> x2^-1").replace(
            "mark: eb -> b", "mark: eb -> x1"
        )
        f = parse_graph_map(text)
        assert f.graph.marking_word(1) == (-2,)
        assert f.graph.marking_word(2) == (1,)

    @pytest.mark.parametrize(
        "mutate, line, fragment",
        [
            (lambda t: t.replace("edge: eb v v", "edge: eb v w"), 3, "unknown vertex"),
            (lambda t: t.replace("image: eb -> ea", "image: ec -> ea"), 5, "unknown edge 'ec'"),
            (lambda t: t.replace("image: eb -> ea\n", ""), 0, "missing image lines for: eb"),
            (lambda t: t.replace("image: eb -> ea\n", "image: eb -> ea ea^-1\n"), 5, "tightens to a point"),
            (lambda t: t.replace("mark: ea -> a", "mark: ea -> q7"), 6, "bad marking letter"),
            (lambda t: t + "junk: v -> v\n", 9, "unknown keyword"),
            (lambda t: "".join(l for l in t.splitlines(keepends=True)
                   if l.startswith(("image:", "mark:"))), 0, "no vertex lines"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::traintrack.formats.FormatWarning")
    def test_diagnostics(self, mutate, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_graph_map(mutate(GM_TEXT), source="bad.gm")
        assert err.value.line_no == line
        assert fragment in err.value.reason

    def test_untight_image_is_repaired(self):
        text = GM_TEXT.replace("image: eb -> ea\n", "image: eb -> eb eb^-1 ea\n")
        with pytest.warns(FormatWarning, match="not tight"):
            f = parse_graph_map(text)
        assert f.edge_image(2) == (1,)

    def test_broken_fixture_parses(self, broken):
        assert broken.graph.edge_names == ("ea", "eb", "ec")
        assert broken.edge_image(1) == (3, 1, 2)


class TestFixtures:
    def test_corpus_is_complete(self):
        assert set(FIXTURE_FILES) == {
            "identity", "fib", "fib_inverse", "plas", "poly", "broken",
        }
        for name in FIXTURE_FILES:
            assert fixture_text(name).strip()
            load_fixture(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture_text("nope")

    def test_inverse_fixture_inverts(self, fib, fib_inverse):
        assert outer_equal(fib.inverse(), fib_inverse)


class TestWriters:
    def test_format_float(self):
        assert format_float(1.6180339887498949) == "1.61803398875"
        assert format_float(1.0) == "1"
        assert format_float(0.25) == "0.25"

    def test_canonical_json_rounds_floats(self):
        text = canonical_json({"x": 0.1 + 0.2})
        assert json.loads(text) == {"x": 0.3}
        assert text.endswith("\n")

    def test_canonical_json_is_stable(self):
        obj = {"b": [1, 2.5, None, True], "a": {"nested": "x"}}
        assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))

    def test_canonical_json_rejects_exotic_values(self):
        with pytest.raises(TypeError):
            canonical_json({"x": {1, 2}})

    def test_render_csv(self):
        out = render_csv(
            ["cls", "ok", "lam", "edges"],
            [
                ["a b", True, 1.5, ["e1", "e2^-1"]],
                ['say "hi", twice', False, 0.1 + 0.2, []],
                ["two\nlines", None, 2, ("x", 0.5, False)],
            ],
        )
        assert out == (
            "cls,ok,lam,edges\n"
            "a b,true,1.5,e1 e2^-1\n"
            '"say ""hi"", twice",false,0.3,\n'
            '"two\nlines",,2,x 0.5 false\n'
        )
        assert "\r" not in out

    def test_report_in_three_formats(self):
        built = []

        def csv_rows():
            built.append(True)
            return [["a", 0.1 + 0.2]]

        rows = [{"w": "a b", "n": 2, "ok": True}, {"w": "b", "n": 1, "ok": None}]
        fields = {"input": "x", "rows": rows}
        report = Report(
            fields, table="rows", columns=["w", "ok", "lambda"],
            head=["input: x"], row="{w}: n={n} ok={ok}",
        )
        assert render_report(report, "json") == canonical_json(fields)
        assert render_report(report, "csv") == "w,ok,lambda\na b,true,\nb,,\n"
        # text renders None by str, as validate's constants print it
        assert render_report(report, "text") == (
            "input: x\na b: n=2 ok=true\nb: n=1 ok=None\n"
        )
        # a CSV-only table is built by the CSV path alone
        lazy = Report(fields, columns=["q", "v"], head=["input: x"], csv_rows=csv_rows)
        assert render_report(lazy, "json") == canonical_json(fields)
        assert render_report(lazy, "text") == "input: x\n"
        assert built == []
        assert render_report(lazy, "csv") == "q,v\na,0.3\n"
        assert built == [True]
