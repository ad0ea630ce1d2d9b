"""Batch word arithmetic on flat numpy arrays.

Words are stored CSR-style: one uint8 array of letter keys (see
words.key_word) and an int64 offset array, word i occupying
flat[offsets[i]:offsets[i+1]].  Keys index the image table directly, and
a key and its inverse's key differ in the low bit, so apply and reduce
never convert back to letters.  All operations are vectorized passes;
nothing here allocates per word.
Used by the class enumeration and the orbit/certificate searches, where
millions of conjugacy classes are pushed through an automorphism at
once.  The classes themselves are grown as prenecklaces, one letter per
pass, so only least rotations and their prefixes are ever built.  A
sweep that wants only the classes with exponent-sum vector 0 (the probe,
when no other vector can come back) grows only the prefixes that can
still reach 0 within the norm limit.

Rotation order is decided only by comparing codes: row_codes reads a
key row as one uint64 base-2r number (r the rank), and
least_rotation_codes takes the least over its rotations.  Codes are
exact while (2r)^n <= 2^64, so enumerate_classes refuses longer classes.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .words import MAX_LETTER, inverse_keys, key_letters, key_word, spell

__all__ = [
    "WordBatch",
    "ImageTable",
    "batch_from_words",
    "batch_lengths",
    "length_runs",
    "image_table",
    "batch_apply",
    "batch_reduce",
    "batch_cyclic_reduce",
    "batch_take",
    "spell_batch",
    "inverse_rows",
    "row_codes",
    "least_rotation_codes",
    "exponent_sums",
    "inverse_partners",
    "enumerate_classes",
    "class_count",
]


class WordBatch(NamedTuple):
    flat: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1


class ImageTable(NamedTuple):
    flat: np.ndarray
    off: np.ndarray
    lens: np.ndarray


def _packed(chunks: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Key words laid end to end, and the offsets between them."""
    offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in chunks], out=offsets[1:])
    return np.frombuffer(b"".join(chunks), dtype=np.uint8), offsets


def batch_from_words(words: Sequence[Sequence[int]]) -> WordBatch:
    return WordBatch(*_packed([key_word(w) for w in words]))


def batch_lengths(batch: WordBatch) -> np.ndarray:
    return np.diff(batch.offsets)


def length_runs(batch: WordBatch) -> list[tuple[int, int, int]]:
    """(lo, hi, n) for each maximal run batch[lo:hi] of words of length n."""
    lens = batch_lengths(batch)
    cut = [0, *(np.flatnonzero(lens[1:] != lens[:-1]) + 1).tolist(), len(lens)]
    return [(lo, hi, int(lens[lo])) for lo, hi in zip(cut, cut[1:]) if lo < hi]


def image_table(images: Sequence[Sequence[int]]) -> ImageTable:
    """Pack the images of the generators x_1, x_2, ... and of their
    inverses into flat arrays indexed by letter key."""
    chunks = []
    for w in images:
        fwd = key_word(w)
        chunks += [fwd, inverse_keys(fwd)]
    flat, off = _packed(chunks)
    return ImageTable(flat, off, np.diff(off))


def _gather(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> WordBatch:
    """The slices flat[starts[i] : starts[i] + lens[i]] laid end to end."""
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    src = np.repeat(starts - offsets[:-1], lens) + np.arange(
        offsets[-1], dtype=np.int64
    )
    return WordBatch(flat[src], offsets)


def batch_take(batch: WordBatch, idx: np.ndarray) -> WordBatch:
    """The words at the given indices, in that order."""
    return _gather(batch.flat, batch.offsets[idx], batch_lengths(batch)[idx])


def spell_batch(batch: WordBatch, rank: int) -> list[str]:
    """words.spell of each word, by one name lookup per run of equal
    lengths."""
    names = np.array(
        [spell((x,), rank) for x in key_letters(bytes(range(2 * rank)))],
        dtype=object,
    )
    out: list[str] = []
    for lo, hi, n in length_runs(batch):
        rows = batch.flat[batch.offsets[lo] : batch.offsets[hi]].reshape(hi - lo, n)
        out += map(" ".join, names[rows].tolist()) if n else ["1"] * (hi - lo)
    return out


def batch_apply(batch: WordBatch, table: ImageTable) -> WordBatch:
    """Substitute each letter by its image, without reduction."""
    flat, offsets = batch
    if len(batch) and (np.diff(offsets) == 0).any():
        raise ValueError("empty word in batch")
    # one image per letter; a word ends where the images of its letters do
    images = _gather(table.flat, table.off[flat], table.lens[flat])
    return WordBatch(images.flat, images.offsets[offsets])


def batch_reduce(batch: WordBatch) -> WordBatch:
    """Free reduction of every word.  Each pass deletes a maximal
    non-overlapping set of cancelling neighbor pairs (even positions
    inside each run of cancellable pairs); nesting resolves over
    successive passes."""
    flat, offsets = batch
    nw = len(batch)
    lens = np.diff(offsets)
    word_id = np.repeat(np.arange(nw, dtype=np.int64), lens)
    while True:
        if len(flat) < 2:
            break
        flag = (flat[:-1] == flat[1:] ^ 1) & (word_id[:-1] == word_id[1:])
        idx = np.flatnonzero(flag)
        if not len(idx):
            break
        run_start = np.ones(len(idx), dtype=bool)
        run_start[1:] = np.diff(idx) != 1
        run_origin = idx[run_start][np.cumsum(run_start) - 1]
        sel = idx[((idx - run_origin) & 1) == 0]
        keep = np.ones(len(flat), dtype=bool)
        keep[sel] = False
        keep[sel + 1] = False
        lens = lens - 2 * np.bincount(word_id[sel], minlength=nw)
        flat = flat[keep]
        word_id = word_id[keep]
    offsets = np.zeros(nw + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return WordBatch(flat, offsets)


def batch_cyclic_reduce(batch: WordBatch) -> WordBatch:
    """Trim inverse first/last pairs from every (already reduced) word."""
    flat, offsets = batch
    if not len(flat):
        return batch
    starts = offsets[:-1].copy()
    ends = offsets[1:].copy()
    while True:
        long_enough = ends - starts >= 2
        s = np.where(long_enough, starts, 0)
        e = np.where(long_enough, ends - 1, 0)
        act = long_enough & (flat[s] == flat[e] ^ 1)
        if not act.any():
            break
        starts[act] += 1
        ends[act] -= 1
    return _gather(flat, starts, ends - starts)


def inverse_rows(words: np.ndarray) -> np.ndarray:
    """The inverse of each row of an (N, n) array of key words."""
    return words[:, ::-1] ^ 1


def row_codes(words: np.ndarray, base: int) -> np.ndarray:
    """Each row of an (N, n) array of keys below base as one base-`base`
    number, first key most significant, so rows of one length sort as
    their codes do.  Exact while base**n <= 2**64."""
    b = np.uint64(base)
    code = np.zeros(len(words), dtype=np.uint64)
    for j in range(words.shape[1]):
        code = code * b + words[:, j].astype(np.uint64)
    return code


def least_rotation_codes(words: np.ndarray, base: int) -> np.ndarray:
    """The code of each row's least rotation in key order: the least of
    its n rotations' codes, each reached from the one before by moving
    the leading key d to the end."""
    n = words.shape[1]
    b, top = np.uint64(base), np.uint64(base ** (n - 1))
    code = row_codes(words, base)
    least = code.copy()
    for s in range(n - 1):
        d = words[:, s].astype(np.uint64)
        code = (code - d * top) * b + d
        np.minimum(least, code, out=least)
    return least


# --- conjugacy class enumeration -------------------------------------

def exponent_sums(words: np.ndarray, rank: int) -> np.ndarray:
    """v(w) for each row w of an (N, n) array of key words: key 2i is
    x_(i+1) and 2i + 1 its inverse, so count both and subtract."""
    at = np.arange(len(words))[:, None] * (2 * rank) + words
    counts = np.bincount(at.ravel(), minlength=len(words) * 2 * rank)
    counts = counts.reshape(-1, rank, 2)
    return counts[..., 0] - counts[..., 1]


def enumerate_classes(
    rank: int, max_norm: int, zero_sum: bool = False
) -> Iterator[WordBatch]:
    """Canonical conjugacy classes with norm <= max_norm, yielded as one
    batch; with zero_sum, only those whose exponent-sum vector is 0.

    A class is a cyclically reduced word taken at its lexicographically
    least rotation in letter-key order; a class and its inverse are both
    produced.  Letter keys are enumerated as uint8, so rank is at most
    words.MAX_LETTER, and max_norm is at most the largest L with
    (2 rank)^L <= 2^64: 64 at rank 1, 32 at rank 2, 24 at rank 3.

    Words grow one letter per length as linearly reduced prenecklaces
    (prefixes of least rotations), each with p, the length of its
    longest Lyndon prefix.  A word w of length t takes each key
    k >= w[t-p] that does not cancel its last key; p stays if
    k == w[t-p] and becomes t+1 otherwise.  A word of length n is a
    class iff p divides n and its last key does not cancel its first
    (Cattell, Ruskey, Sawada, Serra & Miers, J. Algorithms 2000; Ruskey
    & Sawada, COCOON 2000).  No word is compared with its rotations.

    With zero_sum, each word also carries its exponent sums s.  Every
    class through a word of length t has v = s + u with |u|_1 <= max_norm
    - t, so the words with |s|_1 > max_norm - t are not grown, and a
    class is kept only if s = 0 (Sawada, TCS 2003, prunes necklaces by
    content the same way).  The kept classes keep their order.
    """
    if rank < 1 or max_norm < 1:
        raise ValueError("rank and max_norm must be positive")
    if rank > MAX_LETTER:
        raise ValueError(
            f"rank {rank} is above the class sweep's limit of {MAX_LETTER}"
        )
    nkeys = 2 * rank
    limit = max(n for n in range(1, 65) if nkeys**n <= 2**64)
    if max_norm > limit:
        raise ValueError(
            f"norm {max_norm} is above the class sweep's limit of {limit} "
            f"at rank {rank}"
        )
    # sized by the closed form up front, so blocks are written in place:
    # no second copy of the letters, and no large late allocation.  With
    # zero_sum the kept blocks fill only its start, and the pages past it
    # are never touched; the allocation still refuses a sweep whose
    # unpruned frontier (nothing is pruned up to length max_norm / 2)
    # could not fit
    flat = np.empty(
        sum(n * _classes_of_norm(rank, n) for n in range(1, max_norm + 1)),
        dtype=np.uint8,
    )
    pos = 0
    blocks: list[tuple[int, int]] = []  # (classes, norm) per block
    # the exponent sums of each one-letter word, by key
    unit = exponent_sums(np.arange(nkeys, dtype=np.uint8)[:, None], rank)
    unit = unit.astype(np.int8)  # |s_i| <= max_norm <= 64
    # a canonical word starts with its smallest key, so the outer loop
    # over first keys meets every class once, and a word that uses a key
    # below its first is never grown
    for first in range(nkeys):
        keys = np.arange(first, nkeys, dtype=np.uint8)
        # the prenecklaces of length n in lexicographic order: children
        # are laid out in key order under their parent row
        rows = np.full((1, 1), first, dtype=np.uint8)
        lyndon = np.ones(1, dtype=np.min_scalar_type(max_norm))
        sums = unit[first : first + 1]
        for n in range(1, max_norm + 1):
            if n > 1:
                ref = rows[np.arange(len(rows)), n - 1 - lyndon]  # w[t-p]
                ok = (keys >= ref[:, None]) & (keys != rows[:, -1:] ^ 1)
                counts = ok.sum(axis=1)
                nxt = np.broadcast_to(keys, ok.shape)[ok]
                lyndon = np.where(
                    nxt == np.repeat(ref, counts), np.repeat(lyndon, counts), n
                )
                rows = np.concatenate(
                    [np.repeat(rows, counts, axis=0), nxt[:, None]], axis=1
                )
                if zero_sum:
                    sums = np.repeat(sums, counts, axis=0) + unit[nxt]
                    near = np.abs(sums).sum(axis=1) <= max_norm - n
                    rows, lyndon, sums = rows[near], lyndon[near], sums[near]
            last = (n % lyndon == 0) & (rows[:, -1] != first ^ 1)
            if zero_sum:
                last &= ~sums.any(axis=1)
            words = rows[last]
            c = len(words)
            flat[pos : pos + c * n] = words.reshape(-1)
            blocks.append((c, n))
            pos += c * n
    # class lengths filled in place and summed in place: no per-class
    # temporary beside the offsets themselves
    offsets = np.zeros(sum(c for c, _ in blocks) + 1, dtype=np.int64)
    pos = 1
    for c, n in blocks:
        offsets[pos : pos + c] = n
        pos += c
    np.cumsum(offsets, out=offsets)
    yield WordBatch(flat[: offsets[-1]], offsets)


def inverse_partners(classes: WordBatch, rank: int) -> np.ndarray:
    """The index of each canonical class's inverse class.

    The inverse class is the least rotation of the inverse word.  The
    classes of one length, taken block by block in first-key order, are
    already in code order, so each inverse's least-rotation code is looked
    up among them.  No nontrivial class is its own inverse, so partner[i]
    > i keeps exactly one class of each {w, w^-1} pair.  The batch must
    be closed under inversion, as the enumeration and any filter on
    exponent sums (v(w^-1) = -v(w)) are; a missing inverse class raises
    ArithmeticError."""
    flat, offsets = classes
    partner = np.empty(len(classes), dtype=np.int64)
    runs = length_runs(classes)
    for n in sorted({n for _, _, n in runs}):
        same = [(lo, hi) for lo, hi, m in runs if m == n]
        idx = np.concatenate([np.arange(lo, hi) for lo, hi in same])
        rows = np.concatenate(
            [flat[offsets[lo] : offsets[hi]].reshape(-1, n) for lo, hi in same]
        )
        codes = row_codes(rows, 2 * rank)
        inverse = least_rotation_codes(inverse_rows(rows), 2 * rank)
        at = np.minimum(np.searchsorted(codes, inverse), len(codes) - 1)
        if (codes[at] != inverse).any():
            raise ArithmeticError("an inverse class is missing from the batch")
        partner[idx] = idx[at]
    return partner


def class_count(rank: int, max_norm: int) -> int:
    """Number of conjugacy classes with norm <= max_norm (necklace count
    of cyclically reduced words), by Burnside over rotations."""
    return sum(_classes_of_norm(rank, n) for n in range(1, max_norm + 1))


def _classes_of_norm(rank: int, n: int) -> int:
    """Number of conjugacy classes of norm exactly n.

    Cyclically reduced words of length n are the closed walks of length n
    in the non-cancellation graph, whose 2r x 2r matrix J - P (P swaps
    each letter with its inverse) has eigenvalues 2r-1 once, +1 r times
    and -1 r-1 times.  Python ints keep the count exact at any norm.
    """

    def reduced_cyclic(d: int) -> int:
        return (2 * rank - 1) ** d + rank + (rank - 1) * (-1) ** d

    return sum(reduced_cyclic(gcd(n, s)) for s in range(n)) // n
