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

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import engine
from .strata import Metric
from .graphs import GraphMap
from .words import (
    MAX_LETTER,
    Automorphism,
    BudgetExceeded,
    CyclicWord,
    Word,
    common_prefix,
    inverse_keys,
    key_letters,
    spell,
)

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
    history: list[tuple[int, int, int, str]]  # (M, num, den, argmin class)
    # "empirical-certificate" | "no-certificate-within-bounds" | "budget-exceeded"
    verdict: str
    table_size: int
    # (rank, classes, norms, fwd lengths, bwd lengths) behind `table`
    sweep: tuple = field(repr=False, compare=False)

    @cached_property
    def table(self) -> list[ClassRatio]:
        """Per-class lengths at the decisive M (or the last M reached),
        spelled on first access: only the CSV report reads them."""
        rank, (flat, off), nn, lf, lb = self.sweep
        kb = flat.tobytes()
        out = []
        for i in range(len(nn)):
            f, b, n = int(lf[i]), int(lb[i]), int(nn[i])
            out.append(
                ClassRatio(
                    cls=spell(key_letters(kb[off[i] : off[i + 1]]), rank),
                    norm=n,
                    fwd=f,
                    bwd=b,
                    ratio=max(f, b) / n,
                )
            )
        return out


def _require_inverse(phi: Automorphism):
    if phi.inverse_images is None:
        raise ValueError(
            f"automorphism {phi.label or '?'} has no verified inverse"
        )


def _step(batch: engine.WordBatch, table: engine.ImageTable) -> engine.WordBatch:
    return engine.batch_cyclic_reduce(
        engine.batch_reduce(engine.batch_apply(batch, table))
    )


# A batch step costs numpy passes over every letter of phi^M(w); the
# stack walk costs a fixed amount of Python per letter of w past the
# prefix w shares with the class before it, but never builds phi^M(w).
# Each direction of certificate_search leaves the batch once its next
# step could hold more letters per class than this.
# certificate_search at the CLI defaults (M = 20, L = 8), in process on
# 2 CPUs, two runs each: at 128, fib 0.12-0.20 s, plas 0.08-0.14 s, poly
# 0.03-0.05 s and broken.gm 3.7-5.6 s; 64 and 256 were within that
# spread; 32 and 1024 took broken.gm 5.1-6.8 s.
_STACK_AT = 128


class _Powers:
    """phi^M(x) for every letter x, as key-encoded bytes indexed by the
    letter key of x, advanced one exponent at a time on demand.

    phi^M(x) = phi(phi^(M-1)(x)) goes through the batch engine: the
    Python substitute loop took most of a run once powers reached 10^6
    letters."""

    def __init__(self, table: engine.ImageTable, rank: int):
        self._table = table
        self._gens = engine.batch_from_words([(x,) for x in range(1, rank + 1)])
        self.words: list[bytes] = []
        self.lens: list[int] = []
        self.letters = 0  # sum of |phi^M(x)| over the generators x

    def advance(self) -> None:
        self._gens = engine.batch_reduce(engine.batch_apply(self._gens, self._table))
        flat, off = self._gens
        kb = flat.tobytes()
        self.words = []
        for i in range(len(off) - 1):
            b = kb[off[i] : off[i + 1]]
            self.words += [b, inverse_keys(b)]
        self.lens = [len(b) for b in self.words]
        self.letters = int(off[-1])


def _resume_points(keys: list[bytes]) -> list[tuple[int, bytes]]:
    """Each class's letter keys as (c, suffix): c keys shared with the
    class before it in the list, and the keys after them."""
    out, prev = [], b""
    for k in keys:
        c = common_prefix(prev, k)
        out.append((c, k[c:]))
        prev = k
    return out


def _stack_lengths(
    classes: list[tuple[int, bytes]], words: list[bytes], lens: list[int]
) -> np.ndarray:
    """Conjugacy length of phi^M(w) for each class w, given as
    _resume_points, from the pieces words[k] = phi^M(x) without building
    phi^M(w).

    The reduced word is a stack of intervals (key, lo, hi) into the
    pieces.  The inverse of words[k][lo:hi] is words[k ^ 1][n-hi:n-lo]
    (n = lens[k]), so the letters a new piece cancels against the top of
    the stack are the common prefix of that inverse and the piece.  The
    stack and its letter count after each prefix are kept, so a class
    pushes only the keys after the prefix it shares with the class
    before it; the cyclic trim works on its own copy.
    """
    out = np.empty(len(classes), dtype=np.int64)
    snaps: list[tuple[list[tuple[int, int, int]], int]] = [([], 0)]
    for i, (shared, suffix) in enumerate(classes):
        del snaps[shared + 1 :]
        stack, total = snaps[shared]
        stack = stack.copy()
        for b in suffix:
            piece = words[b]
            blo, bhi = 0, lens[b]
            while stack:
                a, alo, ahi = stack[-1]
                inv, at = words[a ^ 1], lens[a] - ahi
                if inv[at] != piece[blo]:  # the common case: nothing cancels
                    break
                n = min(ahi - alo, bhi - blo)
                c = common_prefix(inv, piece, at, blo, n)
                total -= c
                blo += c
                if c < ahi - alo:
                    stack[-1] = (a, alo, ahi - c)
                else:
                    stack.pop()
                if c < n or blo == bhi:
                    break
            if blo < bhi:
                stack.append((b, blo, bhi))
                total += bhi - blo
            snaps.append((stack.copy(), total))
        # cyclic trim: the same query between the two ends of the stack
        first = 0
        while len(stack) - first >= 2:
            a, alo, ahi = stack[-1]
            b, blo, bhi = stack[first]
            inv, at = words[a ^ 1], lens[a] - ahi
            if inv[at] != words[b][blo]:  # the common case: nothing cancels
                break
            n = min(ahi - alo, bhi - blo)
            c = common_prefix(inv, words[b], at, blo, n)
            total -= 2 * c
            if c < ahi - alo:
                stack[-1] = (a, alo, ahi - c)
            else:
                stack.pop()
            if c < bhi - blo:
                stack[first] = (b, blo + c, bhi)
            else:
                first += 1
            if c < n:
                break
        if len(stack) - first == 1:
            # a reduced word cancels against its own inverse for less than half
            a, alo, ahi = stack[first]
            inv, at = words[a ^ 1], lens[a] - ahi
            total -= 2 * common_prefix(inv, words[a], at, alo, total // 2)
        if total <= 0:
            raise ArithmeticError("a nontrivial class reduced to the trivial class")
        out[i] = total
    return out


# Classes per block of the probe's sweep.  Each block goes through all P
# steps before the next starts, so memory follows the block's letters at
# step P rather than the whole sweep's.  Measured on inputs that
# _may_return does not thin, in a child process on 2 CPUs, four runs per
# block, wall and peak RSS.  probe -L 9 -P 6 of the rank 3 map a -> a,
# b -> b, c -> c a b a^-1 b^-1 (140,318 classes stepped, 3,686
# witnesses): 1,024: 1.0-1.5 s, 51 MB; 2,048: 1.3-1.6 s, 57 MB; 4,096:
# 1.6-1.9 s, 66 MB; 8,192: 1.6-2.1 s, 85 MB.  probe identity.aut -L 12
# -P 6 (34,998 classes, each a witness): 1.5-2.1 s and 101-102 MB at
# every size.
_PROBE_BLOCK = 1024


# A prime below 2^27: a sum of 128 products of two residues stays in int64.
_PRIME = 134_217_689
# Rows times rank per chunk of exponent-sum vectors.
_SUMS_CHUNK = 1 << 18


def _abelianization(phi: Automorphism) -> np.ndarray:
    """The integer matrix A of phi on Z^rank: A[i, j] is the exponent sum
    of x_(i+1) in phi(x_(j+1)), so v(phi(w)) = A v(w)."""
    a = np.zeros((phi.rank, phi.rank), dtype=np.int64)
    for j, img in enumerate(phi.images):
        x = np.array(img.letters)
        np.add.at(a[:, j], np.abs(x) - 1, np.sign(x))
    return a


def _mulmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y mod _PRIME for square matrices of residues, on float64
    products: y is split into 14-bit halves, so every partial sum is an
    integer below 2^53 and exact up to rank 2^12."""
    lo, hi = (y & 0x3FFF).astype(float), (y >> 14).astype(float)
    x = x.astype(float)
    high = (x @ hi).astype(np.int64) % _PRIME
    return (high * (1 << 14) + (x @ lo).astype(np.int64)) % _PRIME


def _invertible_mod(m: np.ndarray) -> bool:
    """Whether det m != 0 mod _PRIME, by Gaussian elimination."""
    m = m % _PRIME
    for j in range(len(m)):
        nz = np.flatnonzero(m[j:, j])
        if not len(nz):
            return False
        i = j + int(nz[0])
        m[[j, i]] = m[[i, j]]
        f = m[j + 1 :, j] * pow(int(m[j, j]), -1, _PRIME) % _PRIME
        m[j + 1 :, j:] = (m[j + 1 :, j:] - f[:, None] * m[j, j:]) % _PRIME
    return True


def _returns_only_zero(phi: Automorphism, P: int) -> bool:
    """Whether A^k - I is invertible for every k <= P, A the
    abelianization of phi, so that only v = 0 can come back within P
    steps.

    Decided by determinants mod _PRIME: one that is nonzero mod _PRIME is
    nonzero over the integers.  A zero one (A^k - I singular, or _PRIME
    dividing the determinant) answers False, which costs only the
    pruning.  The kernel of A^k - I lies in that of A^jk - I, so A - I is
    tested first, which settles every A with eigenvalue 1 at once, and
    then the product of the A^k - I over k in (P/2, P], which covers
    every k <= P."""
    a = _abelianization(phi) % _PRIME
    eye = np.eye(phi.rank, dtype=np.int64)
    if not _invertible_mod(a - eye):
        return False
    ak = prod = eye
    for k in range(1, P + 1):
        ak = _mulmod(ak, a)
        if 2 * k > P:
            prod = _mulmod(prod, (ak - eye) % _PRIME)
    return _invertible_mod(prod)


def _may_return(phi: Automorphism, classes: engine.WordBatch, P: int) -> np.ndarray:
    """Classes whose exponent-sum vector v can come back within P steps.

    A class that returns at step k has (A^k - I) v = 0, A the
    abelianization of phi.  Then u_k . v = 0 mod _PRIME for u_k = c (A^k
    - I) and any fixed row c, so a class with u_k . v != 0 mod _PRIME for
    every k <= P cannot return, and is dropped.  Only k > P/2 are tested:
    the kernel of A^k - I lies in that of A^jk - I.  If some A^k is the
    identity mod _PRIME, u_k = 0 and every class passes.  c comes from a
    seeded generator: a class with (A^k - I) v != 0 mod _PRIME passes u_k
    for about one c in _PRIME, which costs only its stepping."""
    r = phi.rank
    a = _abelianization(phi) % _PRIME
    rng = random.Random(0)  # numpy.random would cost its import, 15 ms
    c = np.array([rng.randrange(1, _PRIME) for _ in range(r)])
    y, tests = c, []
    for k in range(1, P + 1):
        y = y @ a % _PRIME  # c A^k
        u = (y - c) % _PRIME
        if not u.any():
            return np.ones(len(classes), dtype=bool)
        if 2 * k > P:
            tests.append(u)
    tests = np.array(tests).T
    flat, offsets = classes
    ok = np.zeros(len(classes), dtype=bool)
    for lo, hi, n in engine.length_runs(classes):
        words = flat[offsets[lo] : offsets[hi]].reshape(-1, n)
        size = max(1, _SUMS_CHUNK // (n * r))
        for s in range(0, hi - lo, size):
            v = engine.exponent_sums(words[s : s + size], r)
            ok[lo + s : lo + s + len(v)] = (v @ tests % _PRIME == 0).any(axis=1)
    return ok


def _rows(batch: engine.WordBatch, idx: np.ndarray, n: int) -> np.ndarray:
    """The words at idx, all of length n, as an (len(idx), n) array."""
    return batch.flat[batch.offsets[idx, None] + np.arange(n)]


def _probe_block(
    block: engine.WordBatch, table: engine.ImageTable, P: int
) -> list[Witness]:
    """The witnesses among the block's classes: each class's first return
    within P steps, and the first step before it that met the inverse
    class."""
    norms = engine.batch_lengths(block)
    base = len(table.lens)  # one image per key
    period = np.zeros(len(block), dtype=np.int64)
    inv_at = np.zeros(len(block), dtype=np.int64)
    cur = block
    for k in range(1, P + 1):
        cur = _step(cur, table)
        cand = np.flatnonzero((period == 0) & (engine.batch_lengths(cur) == norms))
        for n in np.unique(norms[cand]):
            idx = cand[norms[cand] == n]
            now = _rows(cur, idx, n)
            was = engine.row_codes(_rows(block, idx, n), base)
            back = engine.least_rotation_codes(now, base) == was
            period[idx[back]] = k
            # the inverse class counts only where there is no return yet
            look = ~back & (inv_at[idx] == 0)
            inverse = engine.inverse_rows(now[look])
            hit = engine.least_rotation_codes(inverse, base) == was[look]
            inv_at[idx[look][hit]] = k
    flat, off = block
    return [
        Witness(
            cls=CyclicWord(key_letters(flat[off[i] : off[i + 1]])),
            period=int(period[i]),
            inverted=bool(inv_at[i]),
            inversion_step=int(inv_at[i]),
        )
        for i in np.flatnonzero(period)
    ]


def atoroidality_probe(phi: Automorphism, L: int, P: int) -> AtoroidalityReport:
    """Sweep every conjugacy class with norm <= L and follow its class
    orbit for up to P steps, recording first returns.

    A class and its inverse are separate orbits; when an orbit lands on
    the inverse class halfway and then comes back, the witness carries
    the inversion flag (the two readings of "periodic class" differ
    exactly there).

    Only one class of each inverse pair is followed, in blocks of
    _PROBE_BLOCK classes.  phi^k(w^-1) is phi^k(w)^-1, so w^-1 returns,
    and meets the class of w, at the same steps as w returns and meets
    the class of w^-1: both are reported from the one orbit.  Classes
    whose exponent sums cannot return within P steps (_may_return) are
    not followed at all, and when only v = 0 can return
    (_returns_only_zero), only the classes with v = 0 are grown.
    """
    if L < 1 or P < 1:
        raise ValueError("L and P must be positive")
    _require_inverse(phi)
    # the enumeration checks the rank before the table encodes the images,
    # and a rank it refuses is not worth a decision
    zero_sum = phi.rank <= MAX_LETTER and _returns_only_zero(phi, P)
    (classes,) = engine.enumerate_classes(phi.rank, L, zero_sum=zero_sum)
    table = engine.image_table(phi.images)
    # the exponent-sum test is the cheaper one, so the inverse-pair test
    # sees only its survivors, taken apart so that the full set can go
    ok = _may_return(phi, classes, P)
    if not ok.all():
        classes = engine.batch_take(classes, np.flatnonzero(ok))
    kept = np.flatnonzero(engine.inverse_pair_mask(classes, phi.rank))
    witnesses: list[Witness] = []
    for lo in range(0, len(kept), _PROBE_BLOCK):
        block = engine.batch_take(classes, kept[lo : lo + _PROBE_BLOCK])
        for w in _probe_block(block, table, P):
            witnesses += [w, replace(w, cls=w.cls.inverse_class())]
    witnesses.sort(key=lambda w: (w.cls.norm, w.cls.letters))
    verdict = "not-atoroidal" if witnesses else "no-witness-within-bounds"
    return AtoroidalityReport(
        witnesses, (L, P), engine.class_count(phi.rank, L), verdict
    )


def certificate_search(
    phi: Automorphism,
    M_max: int,
    L: int,
    letter_budget: int = 10_000_000,
) -> HyperbolicityCertificate:
    """Find the least M for which every class with norm <= L grows under
    phi^M or phi^-M: r(M) = min over classes of max(fwd, bwd)/norm, and
    the certificate is the first M with r(M) > 1, with lambda = r(M).

    Ratios are exact (integer pairs); r(M) values for each M up to the
    decisive one land in the history, and the per-class table is taken
    at the decisive M (or at M_max when no certificate exists).

    Only conjugacy lengths are computed, and only for one class of each
    inverse pair.  While the batch's words are short they are pushed
    through phi in batch steps; after that the lengths come from the
    powers phi^M(x) through one _stack_lengths walk over the classes in
    enumeration order, so memory is bounded by the powers.  When the
    powers phi^M(x) and phi^-M(x) of the generators x would hold more
    than letter_budget letters in all, the search stops with verdict
    "budget-exceeded" and the history and table of the last M completed.
    """
    if M_max < 1 or L < 1:
        raise ValueError("M_max and L must be positive")
    _require_inverse(phi)
    # the enumeration checks the rank before the tables encode the images
    (classes,) = engine.enumerate_classes(phi.rank, L)
    tables = tuple(map(engine.image_table, (phi.images, phi.inverse_images)))
    powers = tuple(_Powers(t, phi.rank) for t in tables)
    # a batch step multiplies the batch's letters by at most the longest
    # image, which bounds the next batch without a per-letter temporary
    widest = tuple(int(t.lens.max()) for t in tables)
    flat, off = classes
    norms = engine.batch_lengths(classes)
    # only one class of each inverse pair is stepped: |phi^M(w^-1)| =
    # |phi^M(w)|, so half[i] indexes the kept class whose lengths are i's
    partner = engine.inverse_partners(classes, phi.rank)
    kept = np.flatnonzero(partner > np.arange(len(classes)))
    half = np.empty(len(classes), dtype=np.int64)
    half[kept] = half[partner[kept]] = np.arange(len(kept))
    # per direction: phi^+-M of every kept class while that direction is
    # on batch steps, None once it has moved to stacks
    batches = [engine.batch_take(classes, kept)] * 2
    lengths = [norms[kept]] * 2
    resume: list[tuple[int, bytes]] | None = None
    history: list[tuple[int, int, int, str]] = []
    verdict = "no-certificate-within-bounds"
    for M in range(1, M_max + 1):
        for pw in powers:
            pw.advance()
        if powers[0].letters + powers[1].letters > letter_budget:
            verdict = "budget-exceeded"
            break
        for d in (0, 1):
            batch = batches[d]
            if batch is not None:
                if len(batch.flat) * widest[d] <= _STACK_AT * len(batch):
                    batches[d] = batch = _step(batch, tables[d])
                    lengths[d] = engine.batch_lengths(batch)
                    continue
                batches[d] = None
            if resume is None:
                kb = flat.tobytes()
                resume = _resume_points([kb[off[i] : off[i + 1]] for i in kept])
            lengths[d] = _stack_lengths(resume, powers[d].words, powers[d].lens)
        mx = np.maximum(lengths[0], lengths[1])[half]
        i = int(np.argmin(mx / norms))
        num, den = int(mx[i]), int(norms[i])
        arg = spell(key_letters(flat[off[i] : off[i + 1]]), phi.rank)
        history.append((M, num, den, arg))
        if num > den:
            verdict = "empirical-certificate"
            break
    sweep = (phi.rank, classes, norms, lengths[0][half], lengths[1][half])
    lam = None
    if verdict == "empirical-certificate":
        lam = Fraction(history[-1][1], history[-1][2])
    return HyperbolicityCertificate(
        M=None if lam is None else history[-1][0],
        lam=None if lam is None else float(lam),
        lam_exact=None if lam is None else (lam.numerator, lam.denominator),
        L=L,
        history=history,
        verdict=verdict,
        table_size=len(classes),
        sweep=sweep,
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
    cyclically at every step; raises BudgetExceeded rather than grow any
    intermediate word past the letter budget.
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
                    raise BudgetExceeded(
                        f"letter budget {letter_budget} exceeded at exponent {k}"
                    )
                cur = nxt
            last = abs(k)
            out[k] = cur.norm
    if 0 in ks:
        out[0] = cls0.norm
    return [(k, out[k]) for k in ks]
