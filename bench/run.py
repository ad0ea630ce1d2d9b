"""The traintrack benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A single client runs the workload's
cases one at a time (a closed loop), each ``traintrack`` invocation in a
fresh child process with the default ``--jobs 1``; a pass runs every case
once, and passes repeat while one more, at the median pass length so far,
still ends within S seconds (at least one pass).
Each child's own rusage comes from ``os.wait4``; the child stamps the end
of ``import traintrack.cli`` so that set-up is split from the work.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` summed over the cases of a pass, as the mean
over passes; ``peak_rss_mb`` the largest single child of a pass, as the
median over passes; and ``setup_s`` the median over every child started
(IMPORT_PROBES import-only children plus every case).  With ``--trace 1``
it runs one plain pass and one pass with the outside-in wrappers of
tracer.py and reports the per-layer metrics, summed over the cases of the
traced pass.

Every case's output is checked (see workloads.py); a wrong exit code, a
wrong output or a traceback fails the case.  Per-case details with every
stdout sha256 go to bench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")

IMPORT_PROBES = 5
# OpenBLAS starts one thread per core when numpy loads, and those threads
# spin for a while on any idle core: that adds about 0.1 s of CPU per child
# and 0.08 s to the import, depending on what else the machine runs.  The
# program only multiplies matrices a few rows wide, so children get one
# BLAS thread and cpu_s and setup_s measure the program, not the load.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
# every child is killed at this many seconds after the run started, so the
# run ends within three minutes even if the program hangs
RUN_LIMIT_S = 170.0


class Deadline(Exception):
    pass


def spawn(mode: str, args, workdir: str, tag: str, deadline: float) -> dict:
    """Run one child to completion; returns its exit code, timings, rusage
    and the paths of its stdout, stderr and side files."""
    out, err, side = (os.path.join(workdir, f"{tag}.{ext}") for ext in ("out", "err", "side"))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    argv = [sys.executable, CHILD, mode, side, SRC, *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)

    def kill(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited as the timer fired
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.monotonic()
    import_done = None
    if os.path.exists(side):
        with open(side, encoding="utf-8") as fh:
            side_data = json.load(fh)
        import_done = side_data["import_done"]
    else:
        side_data = {}
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "setup_s": None if import_done is None else import_done - t0,
        "trace": side_data.get("trace"),
        "out": out,
        "err": err,
    }


def run_case(case, mode: str, workdir: str, deadline: float) -> dict:
    r = spawn(mode, case.args, workdir, case.name, deadline)
    with open(r.pop("out"), "rb") as fh:
        stdout = fh.read()
    with open(r.pop("err"), "rb") as fh:
        stderr = fh.read()
    if r["code"] < 0:
        error = f"killed by signal {-r['code']}"
    elif b"Traceback (most recent call last)" in stderr:
        error = "traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
    else:
        try:
            error = case.check(r["code"], stdout)
        except Exception as exc:  # a malformed report fails the case
            error = f"unreadable output: {exc!r}"
    r.update(
        name=case.name,
        mode=mode,
        args=list(case.args),
        sha256=hashlib.sha256(stdout).hexdigest(),
        error=error,
    )
    return r


def run_pass(cases, mode: str, workdir: str, deadline: float) -> list[dict]:
    return [run_case(c, mode, workdir, deadline) for c in cases]


def end_to_end(passes: list[list[dict]], setups: list[float]) -> dict:
    # Pass times are means, not medians: on a shared host the CPU runs in
    # a fast and a slow state, about 1.7x apart for pure-Python work, and
    # switches every few seconds to minutes.  The median of a run split
    # between the states jumps from one to the other; the mean moves in
    # proportion to the time spent in each.
    mean, med = statistics.fmean, statistics.median
    return {
        "wall_s": {"value": mean([sum(r["wall_s"] for r in p) for p in passes]), "unit": "s"},
        "cpu_s": {"value": mean([sum(r["cpu_s"] for r in p) for p in passes]), "unit": "s"},
        "peak_rss_mb": {"value": med([max(r["rss_mb"] for r in p) for p in passes]), "unit": "MB"},
        "setup_s": {"value": med(setups), "unit": "s"},
    }


# per-layer metric -> the span whose total time, self time or call count it is
SPAN_TOTAL = {
    "engine.batch_apply_s": "engine.batch_apply",
    "engine.batch_reduce_s": "engine.batch_reduce",
    "engine.batch_cyclic_reduce_s": "engine.batch_cyclic_reduce",
    "engine.enumerate_classes_s": "engine.enumerate_classes",
    "words.spell_s": "words.spell",
    "graphs.map_letters_s": "graphs.map_letters",
    "strata.compute_filtration_s": "strata.compute_filtration",
    "strata.assign_metric_s": "strata.assign_metric",
    "nielsen.find_nielsen_paths_s": "nielsen.find_nielsen_paths",
    "growth.growth_decomposition_s": "growth.growth_decomposition",
    "growth.validators_s": "growth.validators",
    "growth.trichotomy_classify_s": "growth.trichotomy_classify",
    "growth.bcc_estimate_s": "growth.bcc_estimate",
    "words.apply_letters_s": "words.apply_letters",
    "words.nielsen_inverse_search_s": "words.nielsen_inverse_search",
    "formats.parse_s": "formats.parse",
    "formats.render_s": "formats.render",
}
SPAN_SELF = {
    "hyperbolicity.atoroidality_probe_self_s": "hyperbolicity.atoroidality_probe",
    "hyperbolicity.certificate_search_self_s": "hyperbolicity.certificate_search",
    "strata.verify_rtt_self_s": "strata.verify_rtt",
    "strata.verify_improved_self_s": "strata.verify_improved",
    "cli.self_s": "cli.main",
}
SPAN_CALLS = {
    "words.spell_calls": "words.spell",
    "graphs.map_letters_calls": "graphs.map_letters",
    "growth.growth_decomposition_calls": "growth.growth_decomposition",
    "words.apply_letters_calls": "words.apply_letters",
}
COUNTERS = (
    "engine.letters_applied_in",
    "engine.letters_applied_out",
    "engine.letters_cancelled",
    "engine.letters_trimmed",
    "engine.classes_enumerated",
    "engine.key_bytes_calls",
    "engine.rotation_checks",
    "hyperbolicity.witnesses",
    "strata.pf_eigen_calls",
    "nielsen.paths_found",
    "growth.tight_paths_yielded",
)


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    spans: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    peak = 0
    for r in traced:
        t = r["trace"] or {"spans": {}, "counters": {}, "maxima": {}}
        for name, s in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += s["calls"]
            acc[1] += s["total_s"]
            acc[2] += s["self_s"]
        for name, n in t["counters"].items():
            counters[name] = counters.get(name, 0) + n
        peak = max(peak, t["maxima"].get("engine.peak_batch_letters", 0))

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    out = {}
    for metric, name in SPAN_TOTAL.items():
        out[metric] = (span(name, 1), "s")
    for metric, name in SPAN_SELF.items():
        out[metric] = (span(name, 2), "s")
    for metric, name in SPAN_CALLS.items():
        out[metric] = (span(name, 0), "count")
    for name in COUNTERS:
        out[name] = (counters.get(name, 0), "count")
    out["engine.peak_batch_letters"] = (peak, "count")
    applied = counters.get("engine.letters_applied_out", 0)
    out["engine.cancel_ratio"] = (
        counters.get("engine.letters_cancelled", 0) / applied if applied else 0.0, "ratio"
    )
    out["engine.batch_apply_ns_per_letter"] = (
        span("engine.batch_apply", 1) * 1e9 / applied if applied else 0.0, "ns"
    )
    traced_wall = sum(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - sum(r["wall_s"] for r in plain), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "traintrack", "cli.py")):
        print(f"error: no traintrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if opts.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {opts.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(BENCH, ".work", f"{opts.workload}-{os.getpid()}")
    os.makedirs(workdir)
    passes: list[list[dict]] = []
    traced: list[dict] = []
    try:
        cases = workloads.Workload(ROOT, workdir).build(opts.workload, opts.seed)
        probes = [spawn("import", (), workdir, f"probe{i}", deadline)
                  for i in range(IMPORT_PROBES)]
        if opts.trace:
            passes.append(run_pass(cases, "run", workdir, deadline))
            traced = run_pass(cases, "trace", workdir, deadline)
        else:
            # start a pass only if a pass of the median length so far
            # still ends within the measuring time
            measure_start = time.monotonic()
            pass_s: list[float] = []
            while not passes or (time.monotonic() - measure_start
                                 + statistics.median(pass_s) <= opts.seconds):
                t0 = time.monotonic()
                passes.append(run_pass(cases, "run", workdir, deadline))
                pass_s.append(time.monotonic() - t0)
    except Deadline:
        print(f"error: run limit of {RUN_LIMIT_S:.0f} s reached", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [r for p in passes for r in p] + traced
    failed = [r for r in done if r["error"]]
    setups = [r["setup_s"] for r in probes + done if r["setup_s"] is not None]
    if opts.trace:
        metrics = per_layer(passes[0], traced)
    else:
        metrics = end_to_end(passes, setups)

    results_dir = os.path.join(BENCH, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "passes": len(passes),
        "setup_samples": len(setups),
        "fail_frac": len(failed) / len(done),
        "metrics": metrics,
        "cases": [
            {k: v for k, v in r.items() if k != "trace"} for r in done
        ],
        "traces": {r["name"]: r["trace"] for r in traced},
    }
    path = os.path.join(results_dir, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for r in failed:
        print(f"FAILED {r['name']}: {r['error']}", file=sys.stderr)
    untraced = sorted({n for r in traced if r["trace"] for n in r["trace"]["untraced"]})
    if untraced:
        print(f"not traced, missing in this version: {', '.join(untraced)}", file=sys.stderr)
    print(
        f"{opts.workload} seed {opts.seed}: {len(passes)} pass(es) of {len(cases)} "
        f"case(s), {len(setups)} set-up samples, fail_frac "
        f"{len(failed)}/{len(done)}; details in {os.path.relpath(path, ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
