"""Empirical top-level verdicts: atoroidality probing, certificate
search for the growth inequality, and the distortion constant that
compares circuit lengths with marking norms.

Both searches are bounded: they sweep every conjugacy class up to a
norm cap and report what happened inside the cap.  Neither verdict
claims the unbounded property; atoroidality and hyperbolicity quantify
over infinitely many classes, so the reports say "within bounds" and
leave the implication to the theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import engine
from .strata import Metric
from .graphs import GraphMap
from .words import Automorphism, CyclicWord, Word, spell

__all__ = [
    "Witness",
    "AtoroidalityReport",
    "ClassRatio",
    "HyperbolicityCertificate",
    "atoroidality_probe",
    "certificate_search",
    "distortion_constant",
    "growth_table",
]


@dataclass(frozen=True)
class Witness:
    cls: CyclicWord
    period: int
    inverted: bool
    inversion_step: int  # 0 when the orbit never met the inverse class


@dataclass(frozen=True)
class AtoroidalityReport:
    witnesses: list[Witness]
    exhausted: tuple[int, int]
    classes_enumerated: int
    verdict: str  # "not-atoroidal" | "no-witness-within-bounds"


@dataclass(frozen=True)
class ClassRatio:
    cls: str
    norm: int
    fwd: int
    bwd: int
    ratio: float


@dataclass(frozen=True)
class HyperbolicityCertificate:
    M: int | None
    lam: float | None
    lam_exact: tuple[int, int] | None
    L: int
    table: list[ClassRatio]
    history: list[tuple[int, int, int, str]]  # (M, num, den, argmin class)
    verdict: str  # "empirical-certificate" | "no-certificate-within-bounds"


def _require_inverse(phi: Automorphism):
    if phi.inverse_images is None:
        raise ValueError(
            f"automorphism {phi.label or '?'} has no verified inverse"
        )


def _table(images, rank: int) -> engine.ImageTable:
    return engine.image_table(
        {i: w.letters for i, w in enumerate(images, start=1)}, rank
    )


def _step(batch: engine.WordBatch, table: engine.ImageTable) -> engine.WordBatch:
    return engine.batch_cyclic_reduce(
        engine.batch_reduce(engine.batch_apply(batch, table))
    )


def atoroidality_probe(
    phi: Automorphism,
    L: int,
    P: int,
    partitions: int = 1,
) -> AtoroidalityReport:
    """Sweep every conjugacy class with norm <= L and follow its class
    orbit for up to P steps, recording first returns.

    A class and its inverse are separate orbits; when an orbit lands on
    the inverse class halfway and then comes back, the witness carries
    the inversion flag (the two readings of "periodic class" differ
    exactly there).
    """
    if L < 1 or P < 1:
        raise ValueError("L and P must be positive")
    _require_inverse(phi)
    table = _table(phi.images, phi.rank)
    witnesses: list[Witness] = []
    total = 0
    for chunk in engine.enumerate_classes(phi.rank, L, partitions):
        total += len(chunk)
        witnesses.extend(_probe_chunk(table, chunk, P))
    witnesses.sort(key=lambda w: (w.cls.norm, w.cls.letters))
    verdict = "not-atoroidal" if witnesses else "no-witness-within-bounds"
    return AtoroidalityReport(witnesses, (L, P), total, verdict)


def _probe_chunk(
    table: engine.ImageTable, chunk: engine.WordBatch, P: int
) -> list[Witness]:
    oflat, ooff = chunk
    orig_len = engine.batch_lengths(chunk)
    unresolved = np.ones(len(chunk), dtype=bool)
    inv_at = np.zeros(len(chunk), dtype=np.int64)
    out: list[Witness] = []
    cur = chunk
    for k in range(1, P + 1):
        cur = _step(cur, table)
        lens = engine.batch_lengths(cur)
        cand = np.flatnonzero(unresolved & (lens == orig_len))
        if not len(cand):
            continue
        cflat, coff = cur
        for i in map(int, cand):
            ow = oflat[ooff[i] : ooff[i + 1]]
            ob = engine.key_bytes(ow)
            wb = engine.key_bytes(cflat[coff[i] : coff[i + 1]])
            if engine.cyclic_equal_bytes(ob, wb):
                step = int(inv_at[i])
                out.append(
                    Witness(
                        cls=CyclicWord(int(x) for x in ow),
                        period=k,
                        inverted=step > 0,
                        inversion_step=step,
                    )
                )
                unresolved[i] = False
            elif inv_at[i] == 0:
                iob = bytes(b ^ 1 for b in reversed(ob))
                if engine.cyclic_equal_bytes(iob, wb):
                    inv_at[i] = k
    return out


def certificate_search(
    phi: Automorphism,
    M_max: int,
    L: int,
    partitions: int = 1,
) -> HyperbolicityCertificate:
    """Find the least M for which every class with norm <= L grows under
    phi^M or phi^-M: r(M) = min over classes of max(fwd, bwd)/norm, and
    the certificate is the first M with r(M) > 1, with lambda = r(M).

    Ratios are exact (integer pairs); r(M) values for each M up to the
    decisive one land in the history, and the per-class table is taken
    at the decisive M (or at M_max when no certificate exists).
    """
    if M_max < 1 or L < 1:
        raise ValueError("M_max and L must be positive")
    _require_inverse(phi)
    tf = _table(phi.images, phi.rank)
    tb = _table(phi.inverse_images, phi.rank)
    chunks = list(engine.enumerate_classes(phi.rank, L, partitions))
    norms = [engine.batch_lengths(c) for c in chunks]
    fwd = list(chunks)
    bwd = list(chunks)
    history: list[tuple[int, int, int, str]] = []
    decisive = None
    for M in range(1, M_max + 1):
        best_num = best_den = 0
        best_at = (0, 0)
        for ci in range(len(chunks)):
            fwd[ci] = _step(fwd[ci], tf)
            bwd[ci] = _step(bwd[ci], tb)
            mx = np.maximum(
                engine.batch_lengths(fwd[ci]), engine.batch_lengths(bwd[ci])
            )
            i = int(np.argmin(mx / norms[ci]))
            num, den = int(mx[i]), int(norms[ci][i])
            if best_den == 0 or num * best_den < best_num * den:
                best_num, best_den = num, den
                best_at = (ci, i)
        ci, i = best_at
        flat, off = chunks[ci]
        arg = spell(
            [int(x) for x in flat[off[i] : off[i + 1]]], phi.rank
        )
        history.append((M, best_num, best_den, arg))
        if best_num > best_den:
            decisive = M
            break
    table = []
    for ci in range(len(chunks)):
        flat, off = chunks[ci]
        lf = engine.batch_lengths(fwd[ci])
        lb = engine.batch_lengths(bwd[ci])
        nn = norms[ci]
        for i in range(len(nn)):
            table.append(
                ClassRatio(
                    cls=spell([int(x) for x in flat[off[i] : off[i + 1]]], phi.rank),
                    norm=int(nn[i]),
                    fwd=int(lf[i]),
                    bwd=int(lb[i]),
                    ratio=max(int(lf[i]), int(lb[i])) / int(nn[i]),
                )
            )
    if decisive is None:
        return HyperbolicityCertificate(
            M=None,
            lam=None,
            lam_exact=None,
            L=L,
            table=table,
            history=history,
            verdict="no-certificate-within-bounds",
        )
    lam = Fraction(history[-1][1], history[-1][2])
    return HyperbolicityCertificate(
        M=decisive,
        lam=float(lam),
        lam_exact=(lam.numerator, lam.denominator),
        L=L,
        table=table,
        history=history,
        verdict="empirical-certificate",
    )


def distortion_constant(f: GraphMap, metric: Metric) -> float:
    """Bound C with L(circuit)/C <= marking norm <= C * L(circuit),
    valid edgewise: the worst stretch between an edge's metric length
    and the word length of its marking image."""
    g = f.graph if isinstance(f, GraphMap) else f
    if g.marking is None:
        raise ValueError("graph has no marking")
    c = 0.0
    for e in range(1, g.edge_count + 1):
        le = metric.edge_length(e)
        word = Word(g.marking_word(e))
        c = max(c, le, len(word) / le)
    return c


def growth_table(
    phi: Automorphism,
    g: Word,
    n_range,
    letter_budget: int = 10_000_000,
):
    """Exact conjugacy lengths of phi^k(g) over the given exponents.

    Walks outward from k = 0 applying phi (or its inverse), reducing
    cyclically at every step; refuses to grow any intermediate word past
    the letter budget.
    """
    ks = sorted(set(int(k) for k in n_range))
    if not ks:
        return []
    cls0 = CyclicWord(g.letters)
    if not cls0.letters:
        raise ValueError("trivial class has no growth")
    inv = None
    if min(ks) < 0:
        _require_inverse(phi)
        inv = phi.inverse()
    out: dict[int, int] = {}
    for direction in (1, -1):
        wanted = [k for k in ks if k * direction > 0]
        cur = cls0
        last = 0
        for k in sorted(wanted, key=abs):
            for _ in range(abs(k) - last):
                nxt = (
                    phi.apply_class(cur)
                    if direction > 0
                    else inv.apply_class(cur)
                )
                if len(nxt.letters) > letter_budget:
                    raise ValueError(
                        f"letter budget {letter_budget} exceeded at exponent {k}"
                    )
                cur = nxt
            last = abs(k)
            out[k] = cur.norm
    if 0 in ks:
        out[0] = cls0.norm
    return [(k, out[k]) for k in ks]
