"""The benchmark's workloads: seeded inputs, the cases run on them, and
the checks on each case's output.

A case is one ``traintrack`` invocation.  Cases on the bundled fixtures
with fixed arguments are checked byte for byte against ``expected.json``
(exit code and stdout sha256 recorded at the parent of the benchmark's
first commit).  Cases on seeded inputs are checked with the exact word
arithmetic of ``traintrack.words``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("certify-sweep", "probe-sweep", "cli-short")

# The seeded conjugate of a sweep gets a letter budget that is this share
# of its fixture case's.  Conjugating adds nested cancellations, and the
# engine's reduction takes one pass over the whole batch per nesting
# level, so per letter a conjugate costs 1-4x the fixture; a small share
# keeps that seed-to-seed difference from dominating the workload.
CONJUGATE_SHARE = 1 / 64

# ``validate decomp`` spends nearly all its time in the exhaustive
# short-path search that some sampled circuits need (0.45 s each on fib
# at the default L0 = 12), so --samples is sized to reach a fixed number
# of searches: which circuits need one depends on the seed.
DECOMP_SEARCHES = {"fib.aut": 7}
DECOMP_L0 = 12.0
DECOMP_LEN_BOUND = 12
_SLACK = 1e-9  # growth.py's tolerance on the legal-or-sparse test

VALIDATE_LEMMAS = ("bcc", "bw1", "bw2", "illen", "backgrowth", "tricho")


@dataclass(frozen=True)
class Case:
    name: str
    args: tuple[str, ...]
    # check(exit code, stdout bytes) -> None when correct, else the reason;
    # it may raise on output it cannot parse
    check: Callable[[int, bytes], str | None]


class Workload:
    """Imports traintrack from the checkout's src/ in this process to build
    the seeded inputs and to check outputs; the cases themselves run in
    child processes."""

    def __init__(self, root: str, workdir: str):
        self.src = os.path.join(root, "src")
        self.fixtures = os.path.join(self.src, "traintrack", "fixtures")
        self.workdir = workdir
        with open(os.path.join(os.path.dirname(__file__), "expected.json")) as fh:
            self.expected = json.load(fh)

    def fixture(self, name: str) -> str:
        return os.path.join(self.fixtures, name)

    def build(self, workload: str, seed: int) -> list[Case]:
        builder = {
            "certify-sweep": self._certify_sweep,
            "probe-sweep": self._probe_sweep,
            "cli-short": self._cli_short,
        }[workload]
        return builder(seed)

    # -- fixed cases --------------------------------------------------------

    def fixed(self, name: str, *args: str) -> Case:
        """A case with fixed inputs, checked against expected.json."""
        want = self.expected[name]

        def check(code: int, out: bytes) -> str | None:
            if code != want["code"]:
                return f"exit code {code}, expected {want['code']}"
            digest = hashlib.sha256(out).hexdigest()
            if digest != want["sha256"]:
                return f"stdout sha256 {digest}, expected {want['sha256']}"
            return None

        return Case(name, args, check)

    def fixed_cases(self) -> list[Case]:
        """Every case with fixed inputs."""
        f = self.fixture
        cases = [
            self.fixed("certify-fib", "certify", f("fib.aut")),
            self.fixed("probe-plas-L10-P6", "probe", f("plas.aut"), "-L", "10", "-P", "6"),
        ]
        for name in ("identity.aut", "fib.aut", "fib_inverse.aut", "plas.aut",
                     "poly.aut", "broken.gm"):
            cases.append(self.fixed(f"analyze-{name}", "analyze", f(name)))
        for name in ("fib.aut", "plas.aut", "poly.aut", "broken.gm"):
            cases.append(self.fixed(f"nielsen-{name}", "nielsen", f(name)))
        cases += [
            self.fixed("growth-fib-a", "growth", f("fib.aut"), "a"),
            self.fixed("probe-fib-L4-P2", "probe", f("fib.aut"), "-L", "4", "-P", "2"),
            self.fixed("certify-plas", "certify", f("plas.aut")),
        ]
        return cases

    def _fixed_named(self, *names: str) -> list[Case]:
        by_name = {c.name: c for c in self.fixed_cases()}
        return [by_name[n] for n in names]

    # -- workloads ----------------------------------------------------------

    def _certify_sweep(self, seed: int) -> list[Case]:
        from traintrack.formats import load_automorphism

        fib = load_automorphism(self.fixture("fib.aut"))
        conj = seeded_conjugate(fib, seed)
        # certify walks both directions for M = 1..M_max at L = 8
        budget = CONJUGATE_SHARE * image_letters(fib, 20, math.inf, both=True)[-1]
        totals = image_letters(conj, 20, budget, both=True)
        m_max = max(sum(t <= budget for t in totals), 1)
        path = self.write_input("conj.aut", conj)
        case = Case(
            "certify-conj",
            ("certify", path, "-M", str(m_max), "-L", "8"),
            lambda code, out: check_certify(conj, m_max, code, out),
        )
        return self._fixed_named("certify-fib") + [case]

    def _probe_sweep(self, seed: int) -> list[Case]:
        from traintrack.formats import load_automorphism

        plas = load_automorphism(self.fixture("plas.aut"))
        conj = seeded_conjugate(plas, seed)
        # probe walks forward for up to P = 6 steps over every class with
        # norm <= L; the batch holds about letters(L) * |phi^k(x)| letters
        period = 6

        def cost(phi, L):
            return class_letters(3, L) * sum(image_letters(phi, period, math.inf))

        budget = CONJUGATE_SHARE * cost(plas, 10)
        L = max((n for n in range(1, 11) if cost(conj, n) <= budget), default=1)
        path = self.write_input("conj.aut", conj)
        case = Case(
            "probe-conj",
            ("probe", path, "-L", str(L), "-P", str(period)),
            lambda code, out: check_probe(conj, L, period, code, out),
        )
        return self._fixed_named("probe-plas-L10-P6") + [case]

    def _cli_short(self, seed: int) -> list[Case]:
        sweeps = ("certify-fib", "probe-plas-L10-P6")
        cases = [c for c in self.fixed_cases() if c.name not in sweeps]
        f = self.fixture
        s = str(seed)
        for lemma in VALIDATE_LEMMAS:
            for name in ("fib.aut", "plas.aut"):
                cases.append(Case(
                    f"validate-{lemma}-{name}",
                    ("validate", f(name), lemma, "--seed", s),
                    check_validate,
                ))
        cases.append(self.decomp_case("fib.aut", seed))
        cases.append(Case(
            "validate-decomp-poly.aut",
            ("validate", f("poly.aut"), "decomp", "--seed", s),
            check_validate,
        ))
        return cases

    def decomp_case(self, name: str, seed: int) -> Case:
        circuits = decomp_circuits(self.fixture(name), seed, DECOMP_SEARCHES[name])
        args = (
            "validate", self.fixture(name), "decomp", "--seed", str(seed),
            "--samples", str(len(circuits)),
        )
        return Case(
            f"validate-decomp-{name}",
            args,
            lambda code, out: check_decomp(circuits, code, out),
        )

    def write_input(self, name: str, phi) -> str:
        from traintrack.formats import dump_automorphism

        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_automorphism(phi))
        return path


# -- seeded inputs ------------------------------------------------------------


def elementary_moves(rank: int) -> list[tuple[list, list]]:
    """Nielsen moves as (images, inverse images) letter lists: each
    inversion x_i -> x_i^-1, and each transvection x_i -> x_i x_j^s or
    x_j^s x_i (i != j, s = +-1).  Permutations of the basis are left out:
    conjugating by one only renames the generators."""
    basis = [(i,) for i in range(1, rank + 1)]
    moves = []
    for i in range(1, rank + 1):
        ims = list(basis)
        ims[i - 1] = (-i,)
        moves.append((ims, ims))
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i == j:
                continue
            for s in (1, -1):
                for fwd, bwd in (((i, s * j), (i, -s * j)), ((s * j, i), (-s * j, i))):
                    f, b = list(basis), list(basis)
                    f[i - 1], b[i - 1] = fwd, bwd
                    moves.append((f, b))
    return moves


def seeded_conjugate(phi, seed: int):
    """psi phi psi^-1 for psi a product of two seeded elementary moves."""
    from traintrack.words import Automorphism, compose, invert_verify

    rng = random.Random(seed)
    moves = elementary_moves(phi.rank)
    psi = None
    for _ in range(2):
        images, inverse = rng.choice(moves)
        move = Automorphism.from_letter_lists(images, inverse, rank=phi.rank)
        if not invert_verify(move, move.inverse()):
            raise RuntimeError("elementary move built with a wrong inverse")
        psi = move if psi is None else compose(move, psi)
    conj = compose(compose(psi, phi), psi.inverse())
    if not invert_verify(conj, conj.inverse()):
        raise RuntimeError("conjugate does not carry a verified inverse")
    return conj


def image_letters(phi, k_max: int, limit: float, both: bool = False) -> list[int]:
    """Total length of phi^k(x) over the generators x (plus that of
    phi^-k(x) when both), for k = 1, 2, ... up to k_max or until the
    total passes limit."""
    from traintrack.words import Word

    maps = [phi, phi.inverse()] if both else [phi]
    words = [[Word((i,)) for i in range(1, phi.rank + 1)] for _ in maps]
    totals: list[int] = []
    while len(totals) < k_max and (not totals or totals[-1] <= limit):
        words = [[m(w) for w in ws] for m, ws in zip(maps, words)]
        totals.append(sum(len(w) for ws in words for w in ws))
    return totals


def necklace_count(rank: int, n: int) -> int:
    """Conjugacy classes of norm exactly n in the free group of the rank:
    Burnside over rotations of the closed non-backtracking walks, whose
    number is tr(A^d) = (2r-1)^d + r + (r-1)(-1)^d."""
    def closed_walks(d):
        return (2 * rank - 1) ** d + rank + (rank - 1) * (-1) ** d

    return sum(closed_walks(math.gcd(n, s)) for s in range(n)) // n


def class_letters(rank: int, max_norm: int) -> int:
    return sum(n * necklace_count(rank, n) for n in range(1, max_norm + 1))


def decomp_circuits(path: str, seed: int, searches: int) -> list[str]:
    """The circuits ``validate <path> decomp --seed <seed>`` samples, up to
    and including the searches-th whose decomposition needs the short-path
    search.  For a map with one exponential stratum, as fib and plas have,
    those are the circuits with illegal turns that are long between them."""
    from traintrack.formats import load_automorphism
    from traintrack.graphs import random_circuit, rose_of
    from traintrack.growth import path_stats
    from traintrack.strata import assign_metric, compute_filtration

    f = rose_of(load_automorphism(path))
    filt = compute_filtration(f)
    metric = assign_metric(filt)
    rng = random.Random(seed)
    circuits, found = [], 0
    while found < searches:
        c = random_circuit(f.graph, DECOMP_LEN_BOUND, rng)
        circuits.append(f.graph.spell_path(c))
        st = path_stats(c, filt, metric, circuit=True)
        if st.i > 0 and st.L / st.i >= DECOMP_L0 - _SLACK:
            found += 1
    return circuits


# -- output checks ------------------------------------------------------------


def _parse_class(text: str, rank: int) -> tuple[int, ...]:
    from traintrack.words import generator_name

    index = {generator_name(i, rank): i for i in range(1, rank + 1)}
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            letters.append(-index[tok[:-3]])
        else:
            letters.append(index[tok])
    return tuple(letters)


def check_certify(phi, m_max: int, code: int, out: bytes) -> str | None:
    """The run ends without a certificate (phi fixes a class up to
    inversion) after m_max steps, and the last history entry's ratio is
    exact on its argmin class."""
    from traintrack.words import CyclicWord, Word, iterate

    if code != 0:
        return f"exit code {code}, expected 0"
    rep = json.loads(out)
    if rep["verdict"] != "no-certificate-within-bounds":
        return f"verdict {rep['verdict']!r}"
    if len(rep["history"]) != m_max:
        return f"{len(rep['history'])} history entries, expected {m_max}"
    last = rep["history"][-1]
    cls = _parse_class(last["argmin"], phi.rank)
    fwd = CyclicWord(iterate(phi, Word(cls), m_max).letters).norm
    bwd = CyclicWord(iterate(phi, Word(cls), -m_max).letters).norm
    if (last["num"], last["den"]) != (max(fwd, bwd), len(cls)):
        return f"ratio {last['num']}/{last['den']} on {last['argmin']}, exact {max(fwd, bwd)}/{len(cls)}"
    return None


def check_probe(phi, L: int, P: int, code: int, out: bytes) -> str | None:
    """The class count matches the necklace count and every witness has
    the period and inversion step the exact orbit gives."""
    from traintrack.words import CyclicWord

    if code != 0:
        return f"exit code {code}, expected 0"
    rep = json.loads(out)
    want = sum(necklace_count(phi.rank, n) for n in range(1, L + 1))
    if rep["classes_enumerated"] != want:
        return f"classes_enumerated {rep['classes_enumerated']}, expected {want}"
    for w in rep["witnesses"]:
        c = CyclicWord(_parse_class(w["class"], phi.rank))
        inv = c.inverse_class()
        cur, period, inv_step = c, None, 0
        for k in range(1, P + 1):
            cur = phi.apply_class(cur)
            if cur == c:
                period = k
                break
            if cur == inv and not inv_step:
                inv_step = k
        got = (w["norm"], w["period"], w["inversion_step"], w["inverted"])
        exact = (c.norm, period, inv_step, inv_step > 0)
        if got != exact:
            return f"witness {w['class']}: reported {got}, exact {exact}"
    return None


def check_validate(code: int, out: bytes) -> str | None:
    """Seeded validators on the fixtures find no violation; every CSV row
    that has a pass column passes.  A header alone is a valid report: a
    backgrowth sample may hold no qualifying circuit."""
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.decode().splitlines()
    if not lines:
        return "empty report"
    header = lines[0].split(",")
    if "pass" in header:
        col = header.index("pass")
        bad = [ln for ln in lines[1:] if ln.split(",")[col] != "true"]
        if bad:
            return f"{len(bad)} failing rows"
    return None


def check_decomp(circuits, code: int, out: bytes) -> str | None:
    """Every sampled circuit is decomposed, in order, and passes."""
    err = check_validate(code, out)
    if err:
        return err
    rows = out.decode().splitlines()[1:]
    if len(rows) != len(circuits):
        return f"{len(rows)} rows, expected {len(circuits)}"
    for row, spelled in zip(rows, circuits):
        if row.split(",")[0] != spelled:
            return f"row {row!r} is not circuit {spelled!r}"
    return None
