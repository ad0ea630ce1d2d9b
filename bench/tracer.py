"""Outside-in tracing of the traintrack package.

The benchmark does not edit the package.  Instead it replaces, inside the
child process and before ``cli.main`` runs, every module-level binding of
a traced function (``from .x import f`` copies the function into each
importing module, so every copy is patched) and every traced method on
its class.  Wrappers record nested spans: a span's self time is its
duration minus the time of the traced spans it encloses.  Spans are
aggregated in memory per name and per caller/callee pair and written out
once, when the child ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # each frame: [name, time spent in traced children]
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.callers: dict[str, int] = defaultdict(int)  # "parent>child" -> calls
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.untraced: list[str] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else "-"
        self.callers[f"{parent}>{name}"] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list, dur: float) -> None:
        self._stack.pop()
        name = frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        # a recursive call's time is already inside the outermost call
        if self._active[name] == 1:
            agg[1] += dur
        agg[2] += dur - frame[1]
        self._active[name] -= 1

    # -- wrapper factories ------------------------------------------------

    def span(self, name, fn, after=None):
        """Time every call of fn; after(result, args) may add counters."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, _clock() - t0)
            if after is not None:
                self._after(name, after, result, args)
            return result

        return traced

    def span_each_next(self, name, fn, after=None):
        """For a generator function: one span per next() of its result."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(name)
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    exit_(frame, _clock() - t0)
                    return
                except BaseException:
                    exit_(frame, _clock() - t0)
                    raise
                exit_(frame, _clock() - t0)
                if after is not None:
                    self._after(name, after, item, args)
                yield item

        return traced

    def _after(self, name, after, result, args):
        # counters read the arguments and results of the traced call; if a
        # later version changes their types the counters stop, not the run
        try:
            after(result, args)
        except (AttributeError, TypeError):
            if f"{name} counters" not in self.untraced:
                self.untraced.append(f"{name} counters")

    def count_calls(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def count_yields(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[name] += n

        return counted

    def dump(self) -> dict:
        return {
            "spans": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in self.spans.items()
            },
            "callers": dict(self.callers),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "untraced": self.untraced,
        }


def _rebind(original, replacement, modules=None) -> int:
    """Point every traintrack module global that holds `original` at
    `replacement`; returns how many bindings changed."""
    changed = 0
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not (name == "traintrack" or name.startswith("traintrack.")):
            continue
        if modules is not None and name not in modules:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


def install() -> Tracer:
    """Install the wrappers for every per-layer metric of the benchmark."""
    import traintrack.cli as cli
    from traintrack import engine, formats, graphs, growth, hyperbolicity
    from traintrack import nielsen, strata, words

    t = Tracer()
    c, m = t.counters, t.maxima

    def patch(mod, attr, wrapper_factory, *a, modules=None, **k):
        # a function that a later version renames or removes is listed as
        # untraced, and its metrics read 0, rather than failing the run
        original = getattr(mod, attr, None)
        if original is None or _rebind(
            original, wrapper_factory(*a, original, **k), modules
        ) == 0:
            t.untraced.append(f"{mod.__name__}.{attr}")

    def patch_method(cls, attr, name):
        original = getattr(cls, attr, None)
        if original is None:
            t.untraced.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        else:
            setattr(cls, attr, t.span(name, original))

    # engine kernels: counts of letters in and out of each pass
    def after_apply(out, args):
        n_in, n_out = len(args[0].flat), len(out.flat)
        c["engine.letters_applied_in"] += n_in
        c["engine.letters_applied_out"] += n_out
        m["engine.peak_batch_letters"] = max(m["engine.peak_batch_letters"], n_out)

    def after_reduce(out, args):
        c["engine.letters_cancelled"] += len(args[0].flat) - len(out.flat)

    def after_cyclic(out, args):
        c["engine.letters_trimmed"] += len(args[0].flat) - len(out.flat)

    def after_chunk(chunk, args):
        c["engine.classes_enumerated"] += len(chunk)

    patch(engine, "batch_apply", t.span, "engine.batch_apply", after=after_apply)
    patch(engine, "batch_reduce", t.span, "engine.batch_reduce", after=after_reduce)
    patch(engine, "batch_cyclic_reduce", t.span, "engine.batch_cyclic_reduce",
          after=after_cyclic)
    patch(engine, "enumerate_classes", t.span_each_next, "engine.enumerate_classes",
          after=after_chunk)
    patch(engine, "key_bytes", t.count_calls, "engine.key_bytes_calls")
    patch(engine, "cyclic_equal_bytes", t.count_calls, "engine.rotation_checks")

    # hyperbolicity
    def after_probe(rep, args):
        c["hyperbolicity.witnesses"] += len(rep.witnesses)

    patch(hyperbolicity, "atoroidality_probe", t.span,
          "hyperbolicity.atoroidality_probe", after=after_probe)
    patch(hyperbolicity, "certificate_search", t.span,
          "hyperbolicity.certificate_search")

    # words
    patch(words, "spell", t.span, "words.spell")
    patch(words, "nielsen_inverse_search", t.span, "words.nielsen_inverse_search")
    patch_method(words.Automorphism, "apply_letters", "words.apply_letters")

    # graphs / strata / nielsen
    patch_method(graphs.GraphMap, "map_letters", "graphs.map_letters")
    patch(strata, "compute_filtration", t.span, "strata.compute_filtration")
    patch(strata, "pf_eigen", t.count_calls, "strata.pf_eigen_calls")
    patch(strata, "verify_rtt", t.span, "strata.verify_rtt")
    patch(strata, "verify_improved", t.span, "strata.verify_improved")
    patch(strata, "assign_metric", t.span, "strata.assign_metric")

    def after_nielsen(recs, args):
        c["nielsen.paths_found"] += len(recs)

    patch(nielsen, "find_nielsen_paths", t.span, "nielsen.find_nielsen_paths",
          after=after_nielsen)

    # growth: the tight-path count is taken where growth enumerates them
    patch(growth, "growth_decomposition", t.span, "growth.growth_decomposition")
    patch(graphs, "iter_tight_paths", t.count_yields, "growth.tight_paths_yielded",
          modules={"traintrack.growth"})
    for v in ("validate_bw1", "validate_bw2", "validate_illen", "validate_illen2",
              "validate_backgrowth", "validate_bgrowth2"):
        patch(growth, v, t.span, "growth.validators")
    patch(growth, "trichotomy_classify", t.span, "growth.trichotomy_classify")
    patch(growth, "bcc_estimate", t.span, "growth.bcc_estimate")

    # formats and the front end
    patch(formats, "parse_automorphism", t.span, "formats.parse")
    patch(formats, "parse_graph_map", t.span, "formats.parse")
    patch(formats, "canonical_json", t.span, "formats.render")
    patch(formats, "render_csv", t.span, "formats.render")
    patch(cli, "main", t.span, "cli.main")
    return t
