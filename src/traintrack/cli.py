"""Command line front end.

Six subcommands over the two input formats (.aut automorphism files,
.gm graph map files):

    analyze   stratify, grade growth, assign the metric, check the map
    probe     sweep short conjugacy classes for periodic orbits
    certify   search for a uniform growth certificate
    growth    exact conjugacy length series of one class
    nielsen   inventory periodic Nielsen paths
    validate  run one of the named inequality validators

Exit codes: 0 completed, 1 a validator found a violation, 2 input error,
3 a bounded search ran out of its budget or memory (a class sweep too
large to allocate), 4 an internal arithmetic error (a power iteration
that did not converge, a class that a length computation reduced to the
trivial class, a walked length below its exponent-sum bound, or an
inverse class missing from the batch).
Reports are deterministic byte-for-byte for a fixed config; floats are
printed at 12 significant digits.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import engine, growth as growth_mod
from .formats import (
    ParseError,
    Report,
    format_float,
    format_value,
    load_automorphism,
    load_graph_map,
    render_report,
)
from .graphs import (
    GraphMap,
    induced_automorphism,
    random_circuit,
    random_tight_path,
    rose_of,
)
from .hyperbolicity import atoroidality_probe, certificate_search, growth_table
from .nielsen import find_nielsen_paths
from .strata import InternalError, verify_improved, verify_rtt
from .words import (
    Automorphism,
    BudgetExceeded,
    Word,
    generator_name,
    nielsen_inverse_search,
    spell,
)

LEMMAS = ("bcc", "bw1", "bw2", "illen", "backgrowth", "tricho", "decomp")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Input or configuration problem; maps to exit code 2."""


def _positive(args, names):
    for n in names:
        v = getattr(args, n, None)
        if v is not None and v <= 0:
            raise CliError(f"--{n.replace('_', '-')} must be positive")


def _load_input(path: str):
    """Returns ('aut', Automorphism) or ('gm', GraphMap) by extension."""
    if path.endswith(".aut"):
        return "aut", load_automorphism(path)
    if path.endswith(".gm"):
        return "gm", load_graph_map(path)
    raise CliError(f"cannot tell the format of {path!r} (expected .aut or .gm)")


def _as_graph_map(kind, obj) -> GraphMap:
    return rose_of(obj) if kind == "aut" else obj


def _as_automorphism(kind, obj) -> Automorphism:
    if kind == "aut":
        return obj
    return induced_automorphism(obj)


def _with_inverse(phi: Automorphism) -> Automorphism:
    if phi.inverse_images is not None:
        return phi
    found = nielsen_inverse_search(phi)
    if found is None:
        raise CliError(
            "no inverse known for this map and a short search found none; "
            "add inv lines to the input file"
        )
    return found


def _parse_class_word(text: str, rank: int) -> Word:
    index = {generator_name(i, rank): i for i in range(1, rank + 1)}
    letters = []
    for tok in text.split():
        name, sign = tok, 1
        if tok.endswith("^-1"):
            name, sign = tok[: -len("^-1")], -1
        if name not in index:
            raise CliError(f"unknown generator {name!r} (rank {rank})")
        letters.append(sign * index[name])
    if not letters:
        raise CliError("empty word")
    return Word(letters, rank)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> Report:
    kind, obj = _load_input(args.file)
    f = _as_graph_map(kind, obj)
    g = f.graph
    filt = f.filtration
    metric = filt.metric
    rtt = verify_rtt(f)
    improved = verify_improved(f)

    strata_rows = []
    for s in filt.strata:
        strata_rows.append({
            "index": s.index,
            "edges": [g.edge_names[e - 1] for e in s.edges],
            "kind": s.kind,
            "lambda": s.pf_value,
            "vector": list(s.pf_vector) if s.pf_vector is not None else None,
        })
    report = {
        "input": f.label,
        "kind": "automorphism" if kind == "aut" else "graph-map",
        "vertices": len(g.vertices),
        "edges": g.edge_count,
        "rank": g.marking_rank,
        "strata": strata_rows,
        "metric": {g.edge_names[e - 1]: metric.lengths[e] for e in sorted(metric.lengths)},
        "rtt": {"passed": rtt.passed, "violations": rtt.rows},
        "improved": {"passed": improved.passed, "violations": improved.rows},
    }
    # the stronger conditions fail on honest train track maps whenever a
    # Nielsen path has period > 1, so they gate the exit code only on demand
    failed = not rtt.passed or (args.strict and not improved.passed)

    lines = [
        f"input: {report['input']}",
        f"kind: {report['kind']}",
        f"rank: {report['rank']}",
    ]
    for r in strata_rows:
        lam = "" if r["lambda"] is None else f" lambda={format_float(r['lambda'])}"
        lines.append(
            f"stratum {r['index']}: {r['kind']} edges={' '.join(r['edges'])}{lam}"
        )
    lines.append(
        "metric: " + " ".join(
            f"{n}={format_float(v)}" for n, v in report["metric"].items()
        )
    )
    for label, rep in (("rtt", rtt), ("improved", improved)):
        lines.append(f"{label}: {'pass' if rep.passed else 'FAIL'}")
        for v in rep.rows:
            lines.append("  violation: " + " ".join(f"{k}={v[k]}" for k in sorted(v)))
    return Report(
        report, EXIT_VIOLATION if failed else EXIT_OK, table="strata",
        columns=["index", "edges", "kind", "lambda"], head=lines,
    )


# ---------------------------------------------------------------------------
# probe / certify / growth


def cmd_probe(args) -> Report:
    _positive(args, ["max_class_len", "max_period"])
    kind, obj = _load_input(args.file)
    phi = _with_inverse(_as_automorphism(kind, obj))
    rep = atoroidality_probe(phi, args.max_class_len, args.max_period)
    table = {
        "class": engine.spell_batch(rep.witnesses, phi.rank),
        "norm": engine.batch_lengths(rep.witnesses).tolist(),
        "period": rep.period.tolist(),
        "inverted": (rep.inversion_step > 0).tolist(),
        "inversion_step": rep.inversion_step.tolist(),
    }
    wit_rows = [dict(zip(table, r)) for r in zip(*table.values())]
    report = {
        "input": phi.label,
        "verdict": rep.verdict,
        "max_class_len": rep.exhausted[0],
        "max_period": rep.exhausted[1],
        "classes_enumerated": rep.classes_enumerated,
        "witnesses": wit_rows,
    }
    return Report(
        report, table="witnesses", columns=list(table),
        head=[
            f"input: {phi.label}",
            f"verdict: {rep.verdict}",
            f"classes: {rep.classes_enumerated} (norm <= {rep.exhausted[0]}, "
            f"period <= {rep.exhausted[1]})",
        ],
        row="witness: {class} norm={norm} period={period} "
            "inverted={inverted} step={inversion_step}",
    )


def cmd_certify(args) -> Report:
    _positive(args, ["m_max", "max_class_len"])
    kind, obj = _load_input(args.file)
    phi = _with_inverse(_as_automorphism(kind, obj))
    cert = certificate_search(phi, args.m_max, args.max_class_len)
    history = [
        {"M": m, "num": num, "den": den, "ratio": num / den, "argmin": cls}
        for m, num, den, cls in cert.history
    ]
    report = {
        "input": phi.label,
        "verdict": cert.verdict,
        "m_max": args.m_max,
        "max_class_len": cert.L,
        "M": cert.M,
        "lambda": cert.lam,
        "lambda_exact": list(cert.lam_exact) if cert.lam_exact else None,
        "history": history,
        "table_size": cert.table_size,
    }
    lines = [f"input: {phi.label}", f"verdict: {cert.verdict}"]
    if cert.M is not None:
        lines.append(f"M: {cert.M}")
        lines.append(
            f"lambda: {format_float(cert.lam)} "
            f"({cert.lam_exact[0]}/{cert.lam_exact[1]})"
        )
    # the CSV is the per-class table, which the JSON and text leave out
    return Report(
        report, table="history", columns=["class", "norm", "fwd", "bwd", "ratio"],
        head=lines,
        row="history: M={M} ratio={ratio} argmin={argmin}",
        csv_rows=lambda: zip(*cert.table.values()),
    )


def cmd_growth(args) -> Report:
    kind, obj = _load_input(args.file)
    phi = _as_automorphism(kind, obj)
    if args.k_min < 0:
        phi = _with_inverse(phi)
    if args.k_max < args.k_min:
        raise CliError("--k-max must be >= --k-min")
    g = _parse_class_word(args.word, phi.rank)
    rows = growth_table(phi, g, range(args.k_min, args.k_max + 1))
    word = spell(g.letters, phi.rank)
    report = {
        "input": phi.label,
        "word": word,
        "rows": [{"k": k, "norm": n} for k, n in rows],
    }
    return Report(
        report, table="rows", columns=["k", "norm"],
        head=[f"input: {phi.label}", f"word: {word}"], row="k={k} norm={norm}",
    )


# ---------------------------------------------------------------------------
# nielsen


def cmd_nielsen(args) -> Report:
    _positive(args, ["len_bound", "period_bound"])
    kind, obj = _load_input(args.file)
    f = _as_graph_map(kind, obj)
    recs = find_nielsen_paths(
        f, len_bound=args.len_bound, period_bound=args.period_bound
    )
    recs = sorted(recs, key=lambda r: (r.height, len(r.path), f.graph.spell_path(r.path)))
    rows = [
        {
            "path": f.graph.spell_path(r.path),
            "period": r.period,
            "indivisible": r.indivisible,
            "illegal": r.illegal_count,
            "height": r.height,
            "exact": r.exact,
            "start_fraction": r.start_fraction,
            "end_fraction": r.end_fraction,
            "method": r.method,
        }
        for r in recs
    ]
    report = {
        "input": f.label,
        "len_bound": args.len_bound,
        "period_bound": args.period_bound,
        "count": len(rows),
        "paths": rows,
    }
    return Report(
        report, table="paths",
        columns=["path", "period", "indivisible", "illegal", "height", "exact"],
        head=[f"input: {f.label}", f"count: {len(rows)}"],
        row="path: {path} period={period} indivisible={indivisible} "
            "illegal={illegal} height={height} exact={exact}",
    )


# ---------------------------------------------------------------------------
# validate


def _top_exponential(filt):
    exp = [s for s in filt.strata if s.is_exponential]
    if not exp:
        raise CliError("the map has no exponential stratum")
    return exp[-1].index


def _inverse_rose(kind, obj) -> GraphMap:
    """The inverse as a graph map; only automorphism inputs carry one."""
    if kind != "aut":
        raise CliError(
            "this validator iterates backwards and needs an automorphism "
            "input with inv lines"
        )
    return rose_of(_with_inverse(obj).inverse())


_CIRCUIT_COLUMNS = ["circuit", "k", "L", "Lr", "i", "ir", "scriptL", "bound",
                    "margin", "pass"]
# bw1, bw2 and backgrowth write _CIRCUIT_COLUMNS; bcc and illen have no
# rows, and their CSV lists the constants
_COLUMNS = {
    "bcc": ["quantity", "value"],
    "illen": ["quantity", "value"],
    "tricho": ["path", "case", "pass"],
    "decomp": ["circuit", "case", "fraction", "pieces", "pass"],
}


def cmd_validate(args) -> Report:
    _positive(args, ["pairs", "k_max", "len_bound", "samples", "m_max"])
    if not args.l0 > 0:  # also refuses nan
        raise CliError("--l0 must be positive")
    kind, obj = _load_input(args.file)
    f = _as_graph_map(kind, obj)
    filt = f.filtration
    lemma, l0 = args.lemma, float(args.l0)
    rng = random.Random(args.seed)

    def sample(draw):
        return [draw(f.graph, args.len_bound, rng) for _ in range(args.samples)]

    def relative():  # illen and backgrowth on a map with several strata
        return _top_exponential(filt) if len(filt.strata) > 1 else None

    if lemma == "bcc":
        rep = growth_mod.validate_bcc(f, args.pairs)
    elif lemma in ("bw1", "bw2"):
        rep = growth_mod.validate_bw1(
            f, _inverse_rose(kind, obj), sample(random_circuit), k_max=args.k_max,
            r=_top_exponential(filt) if lemma == "bw2" else None,
        )
    elif lemma == "illen":
        rep = growth_mod.validate_illen(
            sample(random_circuit), l0, filt, circuit=True, r=relative()
        )
    elif lemma == "backgrowth":
        rep = growth_mod.validate_backgrowth(
            f, _inverse_rose(kind, obj), sample(random_circuit), l0,
            n_max=args.k_max, m_search_max=args.m_max, r=relative(),
        )
    elif lemma == "tricho":
        _top_exponential(filt)  # refuses a map with no exponential stratum
        rep = growth_mod.validate_tricho(f, sample(random_tight_path), args.m_max, l0)
    elif lemma == "decomp":
        rep = growth_mod.validate_decomp(sample(random_circuit), l0, filt)
    else:
        raise CliError(f"unknown lemma {lemma!r}")

    report = {
        "input": f.label,
        "lemma": lemma,
        "seed": args.seed,
        "constants": rep.constants,
        "rows": rep.rows,
        "all_pass": rep.passed,
    }
    lines = [f"input: {f.label}", f"lemma: {lemma}"]
    lines += [f"{k}: {format_value(v)}" for k, v in rep.constants.items()]
    failures = [r for r in rep.rows if not r["pass"]]
    lines.append(f"rows: {len(rep.rows)} failures: {len(failures)}")
    for r in failures[:10]:
        lines.append("  fail: " + " ".join(f"{k}={r[k]}" for k in r))
    lines.append("pass" if rep.passed else "FAIL")
    return Report(
        report, EXIT_OK if rep.passed else EXIT_VIOLATION, table="rows",
        columns=_COLUMNS.get(lemma, _CIRCUIT_COLUMNS), head=lines,
        csv_rows=rep.constants.items if lemma in ("bcc", "illen") else None,
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="traintrack",
        description="Train track maps, stratified growth, and hyperbolicity probes.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help, fmt="json"):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="input file (.aut or .gm)")
        p.add_argument("--format", default=fmt, choices=["json", "csv", "text"])
        p.set_defaults(handler=handler)
        return p

    p = command("analyze", cmd_analyze, "strata, growth rates, metric, map checks")
    p.add_argument("--strict", action="store_true",
                   help="fail on the improved-map conditions as well")

    p = command("probe", cmd_probe, "bounded periodic conjugacy class sweep")
    p.add_argument("-L", "--max-class-len", type=int, default=4)
    p.add_argument("-P", "--max-period", type=int, default=2)

    p = command("certify", cmd_certify, "uniform growth certificate search")
    p.add_argument("-M", "--m-max", type=int, default=20)
    p.add_argument("-L", "--max-class-len", type=int, default=8)

    p = command("growth", cmd_growth, "conjugacy length series of one class", "csv")
    p.add_argument("word", help="class word, e.g. 'a b^-1'")
    p.add_argument("--k-min", type=int, default=0)
    p.add_argument("--k-max", type=int, default=6)

    p = command("nielsen", cmd_nielsen, "periodic Nielsen path inventory")
    p.add_argument("--len-bound", type=int, default=6)
    p.add_argument("--period-bound", type=int, default=4)

    p = command("validate", cmd_validate, "run one inequality validator", "csv")
    p.add_argument("lemma", choices=LEMMAS)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled circuits and paths")
    p.add_argument("--pairs", type=int, default=8,
                   help="bcc: concatenation factor length bound")
    p.add_argument("--k-max", type=int, default=5,
                   help="iteration depth (bw1/bw2/backgrowth)")
    p.add_argument("--len-bound", type=int, default=12,
                   help="sampled circuit/path length bound")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--m-max", type=int, default=12,
                   help="exponent search cap (backgrowth) / iterate (tricho)")
    p.add_argument("--l0", type=float, default=12.0,
                   help="length threshold (illen/backgrowth/tricho/decomp)")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
        out = render_report(report, args.format)
    except (CliError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (ArithmeticError, InternalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(out)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
