"""Empirical top-level verdicts: atoroidality probing and certificate
search for the growth inequality.

Both searches are bounded: they sweep every conjugacy class up to a
norm cap and report what happened inside the cap.  Neither verdict
claims the unbounded property; atoroidality and hyperbolicity quantify
over infinitely many classes, so the reports say "within bounds" and
leave the implication to the theorems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import engine
from .words import (
    MAX_LETTER,
    Automorphism,
    BudgetExceeded,
    Word,
    common_prefix,
    cyclic_core,
    inverse_keys,
    key_letters,
    spell,
)

__all__ = [
    "AtoroidalityReport",
    "HyperbolicityCertificate",
    "atoroidality_probe",
    "certificate_search",
    "growth_table",
]


@dataclass(frozen=True, eq=False)
class AtoroidalityReport:
    """The witness classes as one batch of canonical key words, sorted by
    norm and then by their letters as signed integers, beside each one's
    period and the first step at which its orbit met the inverse class (0
    for none)."""

    witnesses: engine.WordBatch
    period: np.ndarray
    inversion_step: np.ndarray
    exhausted: tuple[int, int]
    classes_enumerated: int
    verdict: str  # "not-atoroidal" | "no-witness-within-bounds"


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
    # (rank, classes, norms, kept, half, (fwd, bwd)) behind `table`: each
    # direction at the decisive M as the kept classes' lengths, or as the
    # powers (words, lens) to walk them from
    sweep: tuple = field(repr=False, compare=False)

    @cached_property
    def table(self) -> dict[str, list]:
        """Per-class lengths at the decisive M (or the last M reached) as
        the columns class, norm, fwd, bwd and ratio, walked and spelled on
        first access: only the CSV report reads them."""
        rank, classes, nn, kept, half, final = self.sweep
        if any(isinstance(f, tuple) for f in final):
            resume = _resume_points(_class_keys(classes, kept))
            final = [
                _stack_lengths(resume, *f) if isinstance(f, tuple) else f
                for f in final
            ]
        lf, lb = (f[half] for f in final)
        return {
            "class": engine.spell_batch(classes, rank),
            "norm": nn.tolist(),
            "fwd": lf.tolist(),
            "bwd": lb.tolist(),
            "ratio": (np.maximum(lf, lb) / nn).tolist(),
        }


def _require_inverse(phi: Automorphism):
    if phi.inverse_images is None:
        raise ValueError(
            f"automorphism {phi.label or '?'} has no verified inverse"
        )


def _step(batch: engine.WordBatch, table: engine.ImageTable) -> engine.WordBatch:
    return engine.batch_cyclic_reduce(
        engine.batch_reduce(engine.batch_apply(batch, table))
    )


# A batch step costs numpy passes over every letter of phi^M(w); a stack
# walk costs a fixed amount of Python per letter of w past the prefix w
# shares with the class before it, but never builds phi^M(w), and from
# the second M on stacks it walks only the classes the exponent-sum bound
# keeps.  Each direction of certificate_search leaves the batch once its
# next step could hold more letters per class than this.
# certificate_search in process on 2 CPUs, two runs each, at the CLI
# defaults (M = 20, L = 8) and at L = 12 on fib: at 64, fib 0.018 s, plas
# 0.08-0.09 s, poly 0.023-0.024 s, broken.gm 0.36-0.51 s, fib -L 12
# 0.45-0.65 s; at 128, 0.031-0.032, 0.10-0.12, 0.039-0.045, 0.66-0.70 and
# 0.69-0.94 s; at 256, 0.043-0.044, 0.12-0.13, 0.043-0.045, 1.02-1.10
# and 1.67-1.88 s.  32 took broken.gm 0.47-0.73 s, and 16 took plas -L 10
# 7.6-8.4 s against 3.6-4.5 s at 64.
_STACK_AT = 64


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


def _class_keys(classes: engine.WordBatch, idx: np.ndarray) -> list[bytes]:
    """The key bytes of the classes at idx."""
    kb, off = classes.flat.tobytes(), classes.offsets
    return [kb[off[i] : off[i + 1]] for i in idx]


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


def _sum_blocks(batch: engine.WordBatch, rank: int):
    """(lo, v) in batch order: v holds the exponent-sum vectors of the
    words lo, lo + 1, ... of the batch, at most _SUMS_CHUNK entries."""
    flat, offsets = batch
    for lo, hi, n in engine.length_runs(batch):
        words = flat[offsets[lo] : offsets[hi]].reshape(-1, n)
        size = max(1, _SUMS_CHUNK // (n * rank))
        for s in range(0, hi - lo, size):
            yield lo + s, engine.exponent_sums(words[s : s + size], rank)


def _abelianization(images: tuple[Word, ...]) -> np.ndarray:
    """The integer matrix A on Z^rank of the map with these images of the
    generators: A[i, j] is the exponent sum of x_(i+1) in the image of
    x_(j+1), so v(phi(w)) = A v(w).  The images are key-encoded, so the
    rank is at most MAX_LETTER."""
    batch = engine.batch_from_words([img.letters for img in images])
    return np.concatenate([v for _, v in _sum_blocks(batch, len(images))]).T


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

    Decided by one determinant mod _PRIME: one that is nonzero mod _PRIME
    is nonzero over the integers.  A zero one (A^k - I singular, or _PRIME
    dividing the determinant) answers False, which costs only the
    pruning.  The kernel of A^k - I lies in that of A^jk - I, so the
    product of the A^k - I over k in (P/2, P] covers every k <= P."""
    a = _abelianization(phi.images) % _PRIME
    eye = np.eye(phi.rank, dtype=np.int64)
    ak = prod = eye
    for k in range(1, P + 1):
        ak = ak @ a % _PRIME
        if 2 * k > P:
            prod = prod @ (ak - eye) % _PRIME
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
    a = _abelianization(phi.images) % _PRIME
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
    ok = np.zeros(len(classes), dtype=bool)
    for lo, v in _sum_blocks(classes, r):
        ok[lo : lo + len(v)] = (v @ tests % _PRIME == 0).any(axis=1)
    return ok


def _rows(batch: engine.WordBatch, idx: np.ndarray, n: int) -> np.ndarray:
    """The words at idx, all of length n, as an (len(idx), n) array."""
    return batch.flat[batch.offsets[idx, None] + np.arange(n)]


def _probe_block(
    block: engine.WordBatch, table: engine.ImageTable, P: int
) -> tuple[np.ndarray, np.ndarray]:
    """(period, inv_at) for the block's classes: each class's first
    return within P steps (0 for none), and the first step before it
    that met the inverse class (0 for none)."""
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
    return period, inv_at


def atoroidality_probe(phi: Automorphism, L: int, P: int) -> AtoroidalityReport:
    """Sweep every conjugacy class with norm <= L and follow its class
    orbit for up to P steps, recording first returns.

    A class and its inverse are separate orbits; when an orbit lands on
    the inverse class halfway and then comes back, the witness carries
    that step as its inversion step (the two readings of "periodic class"
    differ exactly there).

    Only one class of each inverse pair (engine.inverse_partners) is
    followed, in blocks of _PROBE_BLOCK classes.  phi^k(w^-1) is
    phi^k(w)^-1, so w^-1 returns, and meets the class of w, at the same
    steps as w returns and meets the class of w^-1: both are reported
    from the one orbit, each with its own enumerated row.  Classes whose
    exponent sums cannot return within P steps (_may_return) are not
    followed at all, and when only v = 0 can return (_returns_only_zero),
    only the classes with v = 0 are grown.
    """
    if L < 1 or P < 1:
        raise ValueError("L and P must be positive")
    _require_inverse(phi)
    # the enumeration checks the rank before the table encodes the images,
    # and a rank it refuses is not worth a decision
    zero_sum = phi.rank <= MAX_LETTER and _returns_only_zero(phi, P)
    (classes,) = engine.enumerate_classes(phi.rank, L, zero_sum=zero_sum)
    table = engine.image_table(phi.images)
    if not zero_sum:
        # every class grown with zero_sum has v = 0, which always passes;
        # otherwise the exponent-sum test is the cheaper one, so the
        # partner lookup sees only its survivors, taken apart so that the
        # full set can go.  v(w^-1) = -v(w), so they keep whole pairs.
        ok = _may_return(phi, classes, P)
        if not ok.all():
            classes = engine.batch_take(classes, np.flatnonzero(ok))
    partner = engine.inverse_partners(classes, phi.rank)
    kept = np.flatnonzero(partner > np.arange(len(classes)))
    # (row, period, inversion step) of each witness, a block at a time
    found = [np.zeros((3, 0), dtype=np.int64)]
    for lo in range(0, len(kept), _PROBE_BLOCK):
        idx = kept[lo : lo + _PROBE_BLOCK]
        period, inv_at = _probe_block(engine.batch_take(classes, idx), table, P)
        back = np.flatnonzero(period)
        for rows in (idx[back], partner[idx[back]]):
            found.append(np.stack([rows, period[back], inv_at[back]]))
    found = np.concatenate(found, axis=1)
    # by norm, then by letters as signed integers (x_r^-1 < ... < x_1^-1 <
    # x_1 < ... < x_r) as letter tuples compare: one code per witness, its
    # keys read as digits in the order of their letters
    digit = np.argsort(np.argsort(key_letters(bytes(range(2 * phi.rank)))))
    norms = engine.batch_lengths(classes)[found[0]]
    codes = np.zeros(len(norms), dtype=np.uint64)
    for n in np.unique(norms):
        at = np.flatnonzero(norms == n)
        words = digit[_rows(classes, found[0, at], n)]
        codes[at] = engine.row_codes(words, 2 * phi.rank)
    rows, period, inv_at = found[:, np.lexsort((codes, norms))]
    verdict = "not-atoroidal" if len(rows) else "no-witness-within-bounds"
    return AtoroidalityReport(
        engine.batch_take(classes, rows), period, inv_at, (L, P),
        engine.class_count(phi.rank, L), verdict,
    )


def _walk(
    lengths: list[np.ndarray],
    powers: tuple[_Powers, _Powers],
    stacked: list[int],
    keys: list[bytes],
    idx,
) -> None:
    """Replace the lower bounds in lengths[d], for each direction d in
    stacked, by the exact lengths of the kept classes at idx, walked from
    powers[d].  A length below its bound means broken arithmetic."""
    resume = _resume_points([keys[j] for j in idx])
    for d in stacked:
        exact = _stack_lengths(resume, powers[d].words, powers[d].lens)
        if (exact < lengths[d][idx]).any():
            raise ArithmeticError(
                "a conjugacy length fell below its exponent-sum bound"
            )
        lengths[d][idx] = exact


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
    powers phi^M(x) through _stack_lengths walks, so memory is bounded by
    the powers.  When the powers phi^M(x) and phi^-M(x) of the generators
    x would hold more than letter_budget letters in all, the search stops
    with verdict "budget-exceeded" and the history and table of the last
    M completed.

    A walk covers only the classes that can be the argmin at M.  A word
    is no shorter than the 1-norm of its exponent-sum vector, and cyclic
    reduction keeps that vector, so |phi^+-M(w)| >= |A^+-M v(w)|_1 for A
    the abelianization of phi (_abelianization).  The class of the last
    argmin is walked first, and its exact ratio U at M bounds r(M) from
    above; a class whose bound ratio is above U has a larger exact ratio
    and is not walked.  A direction still on batch steps gives its exact
    lengths in place of the bound.
    """
    if M_max < 1 or L < 1:
        raise ValueError("M_max and L must be positive")
    _require_inverse(phi)
    # the enumeration checks the rank before the tables encode the images
    (classes,) = engine.enumerate_classes(phi.rank, L)
    images = (phi.images, phi.inverse_images)
    tables = tuple(map(engine.image_table, images))
    powers = tuple(_Powers(t, phi.rank) for t in tables)
    # a batch step multiplies the batch's letters by at most the longest
    # image, which bounds the next batch without a per-letter temporary
    widest = tuple(int(t.lens.max()) for t in tables)
    norms = engine.batch_lengths(classes)
    # only one class of each inverse pair is stepped: |phi^M(w^-1)| =
    # |phi^M(w)|, so half[i] indexes the kept class whose lengths are i's
    partner = engine.inverse_partners(classes, phi.rank)
    kept = np.flatnonzero(partner > np.arange(len(classes)))
    half = np.empty(len(classes), dtype=np.int64)
    half[kept] = half[partner[kept]] = np.arange(len(kept))
    nk = norms[kept]
    # per direction: phi^+-M of every kept class while that direction is
    # on batch steps, None once it has moved to stacks
    batches = [engine.batch_take(classes, kept)] * 2
    lengths = [nk] * 2
    # per direction on stacks, the powers' (words, lens) at the last M
    # completed, which the table walks every kept class from
    pieces = [None, None]
    # A^M and A^-M.  Their entries are exponent sums of the words phi^+-M(x),
    # so they are bounded by the letters the powers hold, which the letter
    # budget caps (10^7 by default): |A^+-M v|_1 <= L 10^7 and its products
    # with a norm stay far inside int64.
    abel = [_abelianization(im) for im in images]
    apow = [np.eye(phi.rank, dtype=np.int64)] * 2
    keys: list[bytes] | None = None
    sums = None
    argmin = None
    history: list[tuple[int, int, int, str]] = []
    verdict = "no-certificate-within-bounds"
    for M in range(1, M_max + 1):
        for pw in powers:
            pw.advance()
        if powers[0].letters + powers[1].letters > letter_budget:
            verdict = "budget-exceeded"
            break
        apow = [p @ a for p, a in zip(apow, abel)]
        stacked = []
        for d in (0, 1):
            batch = batches[d]
            if batch is not None:
                if len(batch.flat) * widest[d] <= _STACK_AT * len(batch):
                    batches[d] = batch = _step(batch, tables[d])
                    lengths[d] = engine.batch_lengths(batch)
                    continue
                batches[d] = None
            stacked.append(d)
        walk = None
        if stacked:
            if keys is None:
                keys = _class_keys(classes, kept)
                blocks = _sum_blocks(engine.batch_take(classes, kept), phi.rank)
                sums = np.concatenate([v for _, v in blocks])
            for d in stacked:
                lengths[d] = np.abs(sums @ apow[d].T).sum(axis=1)
            bound = np.maximum(*lengths)
            walk = np.arange(len(kept))
            if argmin is not None:
                k = half[argmin]
                _walk(lengths, powers, stacked, keys, [k])
                u = max(lengths[0][k], lengths[1][k])
                walk = np.flatnonzero(bound * nk[k] <= u * nk)
            _walk(lengths, powers, stacked, keys, walk)
        for d in stacked:
            pieces[d] = (powers[d].words, powers[d].lens)
        ratio = np.maximum(*lengths) / nk
        if walk is not None:
            # a class left unwalked has an exact ratio above U >= r(M), so
            # it is neither the argmin nor tied with it (distinct ratios of
            # norms <= 64 differ by far more than their floats' rounding)
            walked = np.full(len(kept), np.inf)
            walked[walk] = ratio[walk]
            ratio = walked
        argmin = int(np.argmin(ratio[half]))
        k = half[argmin]
        num, den = int(max(lengths[0][k], lengths[1][k])), int(nk[k])
        lo, hi = classes.offsets[argmin : argmin + 2]
        arg = spell(key_letters(classes.flat[lo:hi]), phi.rank)
        history.append((M, num, den, arg))
        if num > den:
            verdict = "empirical-certificate"
            break
    final = [p or n for p, n in zip(pieces, lengths)]
    sweep = (phi.rank, classes, norms, kept, half, final)
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


def growth_table(
    phi: Automorphism,
    g: Word,
    n_range,
    letter_budget: int = 10_000_000,
):
    """Exact conjugacy lengths of phi^k(g) over the given exponents.

    Walks outward from k = 0 applying phi (or its inverse), reducing
    cyclically at every step; raises BudgetExceeded at the first step
    whose reduced image holds more letters than the budget.
    """
    ks = sorted(set(int(k) for k in n_range))
    if not ks:
        return []
    core = cyclic_core(g.letters)
    if not core:
        raise ValueError("trivial class has no growth")
    inv = None
    if min(ks) < 0:
        _require_inverse(phi)
        inv = phi.inverse()
    out: dict[int, int] = {0: len(core)}
    for step, sign in ((phi, 1), (inv, -1)):
        cur = core
        last = 0
        for k in sorted((j for j in ks if j * sign > 0), key=abs):
            for _ in range(abs(k) - last):
                cur = cyclic_core(step.apply_letters(cur))
                if len(cur) > letter_budget:
                    raise BudgetExceeded(
                        f"letter budget {letter_budget} exceeded at exponent {k}"
                    )
            last = abs(k)
            out[k] = len(cur)
    return [(k, out[k]) for k in ks]
