import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack import hyperbolicity
from traintrack.engine import (
    batch_apply,
    batch_cyclic_reduce,
    batch_from_words,
    batch_lengths,
    batch_reduce,
    batch_take,
    class_count,
    enumerate_classes,
    image_table,
    inverse_partners,
    inverse_rows,
    least_rotation_codes,
    row_codes,
    spell_batch,
)
from traintrack.words import (
    CyclicWord,
    Word,
    key_letters,
    key_word,
    least_rotation,
    spell,
)

from conftest import (
    batch_to_words,
    image_dict,
    naive_apply,
    naive_classes,
    naive_cyclic_reduce,
    naive_reduce,
)


def test_round_trip_words():
    words = [(1, -2), (), (3, 3, -1), (2,)]
    batch = batch_from_words(words)
    assert batch_to_words(batch) == [tuple(w) for w in words]
    assert list(batch_lengths(batch)) == [2, 0, 3, 1]


@given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=25), max_size=15))
def test_batch_reduce_matches_naive(words):
    batch = batch_from_words(words)
    out = batch_to_words(batch_reduce(batch))
    assert out == [naive_reduce(w) for w in words]


@given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=25), max_size=15))
def test_batch_cyclic_reduce_matches_naive(words):
    batch = batch_from_words(words)
    out = batch_to_words(batch_cyclic_reduce(batch_reduce(batch)))
    assert out == [naive_cyclic_reduce(w) for w in words]


def test_batch_apply_matches_naive(fib, plas, rng):
    for phi in (fib, plas):
        table = image_table(phi.images)
        imgs = image_dict(phi)
        words = [
            tuple(
                rng.choice([s * i for i in range(1, phi.rank + 1) for s in (1, -1)])
                for _ in range(rng.randint(1, 30))
            )
            for _ in range(200)
        ]
        batch = batch_from_words(words)
        out = batch_to_words(batch_reduce(batch_apply(batch, table)))
        assert out == [naive_apply(imgs, w) for w in words]


def test_batch_apply_rejects_empty_words(fib):
    table = image_table([(1, 2), (1,)])
    with pytest.raises(ValueError):
        batch_apply(batch_from_words([()]), table)


def test_batch_kernels_at_the_key_limit(rng):
    # letters +-127 and +-128 have keys 252..255, the top of a uint8
    images = [(x,) for x in range(1, 129)]
    images[126] = (127, 128)
    images[127] = (-1, 128, 127)
    top = [1, -1, 127, -127, 128, -128]
    words = [
        tuple(rng.choice(top) for _ in range(rng.randint(1, 20)))
        for _ in range(300)
    ]
    batch = batch_from_words(words)
    assert batch.flat.dtype == np.uint8
    assert {252, 253, 254, 255} <= set(batch.flat.tolist())
    assert batch_to_words(batch) == words
    reduced = batch_reduce(batch)
    assert batch_to_words(reduced) == [naive_reduce(w) for w in words]
    assert batch_to_words(batch_cyclic_reduce(reduced)) == [
        naive_cyclic_reduce(w) for w in words
    ]
    imgs = {x: list(w) for x, w in enumerate(images, start=1)}
    out = batch_to_words(batch_reduce(batch_apply(batch, image_table(images))))
    assert out == [naive_apply(imgs, w) for w in words]


def test_key_bytes_cyclic_equality():
    def rows(*words):
        return np.array([list(key_word(w)) for w in words], dtype=np.uint8)

    def same_class(a, b):
        # keys of letters up to +-2 are below 4
        return least_rotation_codes(a, 4) == least_rotation_codes(b, 4)

    a = rows((1, 2, -1), (1, 2, -1))
    assert same_class(a, rows((2, -1, 1), (1, -2, 1))).tolist() == [True, False]
    # (-1, 1, -2) is the inverse of (2, -1, 1)
    inv = inverse_rows(rows((-1, 1, -2), (2, -1, 1)))
    assert same_class(a, inv).tolist() == [True, False]


@st.composite
def _cyclic_row(draw, rank, n, letters=None):
    """A cyclically reduced word of length n over the given letters (all
    of rank `rank` by default)."""
    pool = letters or [x for g in range(1, rank + 1) for x in (g, -g)]
    w = [draw(st.sampled_from(pool))]
    while len(w) < n - 1:
        w.append(draw(st.sampled_from([x for x in pool if x != -w[-1]])))
    if n > 1:
        last = [x for x in pool if x not in (-w[-1], -w[0])]
        w.append(draw(st.sampled_from(last)))
    return tuple(w)


@st.composite
def _code_rows(draw):
    """(rank, rows): rows of one length, plain, periodic w^k, or at the
    2^64 edge of the codes, where (2 rank)^n = 2^64 or just below."""
    kind = draw(st.sampled_from(["plain", "periodic", "edge"]))
    if kind == "edge":
        rank, n = draw(st.sampled_from([(1, 64), (2, 32), (3, 24), (128, 8)]))
        # the top keys, 2 rank - 2 and 2 rank - 1, and their neighbours
        top = [rank, -rank, max(1, rank - 1), -max(1, rank - 1)]
        letters = draw(st.sampled_from([top, top[:2], None]))
        row = _cyclic_row(rank, n, letters)
    elif kind == "periodic":
        rank = draw(st.integers(1, 4))
        m = draw(st.integers(1, 6))
        k = draw(st.integers(2, 12 // m))
        row = _cyclic_row(rank, m).map(lambda w: w * k)
    else:
        rank = draw(st.integers(1, 4))
        row = _cyclic_row(rank, draw(st.integers(1, 12)))
    return rank, draw(st.lists(row, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_code_rows())
def test_least_rotation_codes_match_booth(case):
    # Booth's algorithm (words.least_rotation) on Python ints is the
    # reference; codes are compared as exact base-2r numbers
    rank, words = case
    base = 2 * rank
    rows = np.array([list(key_word(w)) for w in words], dtype=np.uint8)

    def code(w):
        x = 0
        for k in key_word(w):
            x = x * base + k
        return x

    codes = row_codes(rows, base)
    assert codes.dtype == np.uint64
    assert codes.tolist() == [code(w) for w in words]
    # rows of one length sort as their codes do
    by_code = [words[i] for i in np.argsort(codes, kind="stable")]
    assert by_code == sorted(words, key=key_word)
    least = [w[r:] + w[:r] for w in words for r in [least_rotation(w)]]
    assert least_rotation_codes(rows, base).tolist() == [code(w) for w in least]


def _burnside(rank: int, n: int) -> int:
    # cyclically reduced words of length exactly n, rank r free group:
    # (2r-1)^n + 1 + (r-1)*(1+(-1)^n), counted as necklaces via Burnside
    total = 0
    m = 2 * rank - 1
    for s in range(n):
        d = math.gcd(n, s)
        total += m ** d + 1 + (rank - 1) * (1 + (-1) ** d)
    return total // n


def test_class_count_matches_burnside_formula():
    # long norms overflow a fixed-width count: rank 3 from 28, rank 4 from 23
    for rank in (2, 3, 4):
        for max_norm in range(1, 40):
            expect = sum(_burnside(rank, n) for n in range(1, max_norm + 1))
            assert class_count(rank, max_norm) == expect


@pytest.mark.parametrize(("rank", "max_norm"), [(1, 8), (2, 6), (3, 4), (4, 3)])
def test_enumerate_classes_exhaustive_and_canonical(rank, max_norm):
    (batch,) = enumerate_classes(rank, max_norm)
    assert batch.flat.dtype == np.uint8
    words = batch_to_words(batch)
    # the oracle's classes in the oracle's order, so also each class and
    # its inverse class (the commutator's, say) exactly once
    assert [key_word(w) for w in words] == naive_classes(rank, max_norm)
    assert len(words) == class_count(rank, max_norm)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_enumerate_classes_order(rank):
    # sorted by first key, then length, then key bytes
    (batch,) = enumerate_classes(rank, 6)
    keys = [key_word(w) for w in batch_to_words(batch)]
    assert keys == sorted(keys, key=lambda b: (b[0], len(b), b))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_partner_order_keeps_one_of_each_pair(rank):
    (batch,) = enumerate_classes(rank, 6)
    classes = [CyclicWord(w) for w in batch_to_words(batch)]
    first = inverse_partners(batch, rank) > np.arange(len(classes))
    kept = {c for c, k in zip(classes, first) if k}
    for c in classes:
        assert (c in kept) != (c.inverse_class() in kept)


def _check_partners(batch, rank):
    classes = [CyclicWord(w) for w in batch_to_words(batch)]
    partner = inverse_partners(batch, rank)
    for i, c in enumerate(classes):
        assert classes[partner[i]] == c.inverse_class()
    every = np.arange(len(classes))
    assert np.array_equal(partner[partner], every)


@pytest.mark.parametrize(
    ("rank", "max_norm"), [(1, 20), (2, 8), (3, 6), (4, 4), (2, 12), (1, 64)]
)
def test_inverse_partners(rank, max_norm):
    # (1, 64): a^-64 has the largest code, 2^64 - 1.  The zero-sum
    # enumeration is closed under inversion too (v(w^-1) = -v(w)); at
    # rank 1 it is empty
    for zero_sum in (False, True):
        (batch,) = enumerate_classes(rank, max_norm, zero_sum=zero_sum)
        _check_partners(batch, rank)


def test_inverse_partners_of_may_return_survivors(poly):
    """The classes the probe's exponent-sum test keeps on poly (A - I
    singular, so every class is grown) are a batch with gaps inside each
    length, closed under inversion."""
    (classes,) = enumerate_classes(poly.rank, 9)
    ok = hyperbolicity._may_return(poly, classes, 6)
    assert 0 < ok.sum() < len(classes)
    _check_partners(batch_take(classes, np.flatnonzero(ok)), poly.rank)


def test_inverse_partners_refuses_a_missing_inverse():
    (batch,) = enumerate_classes(2, 6)
    partner = inverse_partners(batch, 2)
    # drop either class of two pairs; with the last class (b^-6, the
    # largest code of its length) gone, searchsorted would place its
    # partner's inverse past the end
    last = len(batch) - 1
    for drop in (0, int(partner[0]), last, int(partner[last])):
        keep = np.flatnonzero(np.arange(len(batch)) != drop)
        with pytest.raises(ArithmeticError, match="inverse class is missing"):
            inverse_partners(batch_take(batch, keep), 2)


@pytest.mark.parametrize(("rank", "max_norm"), [(1, 5), (2, 8), (3, 6), (4, 4)])
def test_enumerate_classes_offsets(rank, max_norm):
    (batch,) = enumerate_classes(rank, max_norm)
    lens = [len(w) for w in batch_to_words(batch)]
    assert batch.offsets.dtype == np.int64
    assert batch.offsets[0] == 0
    assert np.array_equal(batch.offsets[1:], np.cumsum(lens))
    assert batch.offsets[-1] == len(batch.flat)


@pytest.mark.parametrize(("rank", "max_norm"), [(1, 8), (2, 12), (3, 8), (4, 5)])
def test_zero_sum_classes_are_the_filtered_enumeration(rank, max_norm):
    """zero_sum grows exactly the classes of the full enumeration whose
    exponent sums are all 0, in its order: flat and offsets, dtypes and
    bytes.  Rank 1 has none."""
    (full,) = enumerate_classes(rank, max_norm)
    zero = []
    for i, w in enumerate(batch_to_words(full)):
        v = [0] * rank
        for x in w:
            v[abs(x) - 1] += 1 if x > 0 else -1
        if not any(v):
            zero.append(i)
    want = batch_take(full, np.array(zero, dtype=np.int64))
    (got,) = enumerate_classes(rank, max_norm, zero_sum=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert (len(got) > 0) == (rank > 1)


@pytest.mark.parametrize(
    ("rank", "max_norm", "zero_sum"),
    [(2, 8, False), (3, 5, False), (3, 7, True), (27, 2, False)],
)
def test_spell_batch_matches_spell(rank, max_norm, zero_sum):
    """Each class spelled as words.spell spells it, at a rank past 26
    too, where the names are x1, x2, ..."""
    (batch,) = enumerate_classes(rank, max_norm, zero_sum=zero_sum)
    kb, off = batch.flat.tobytes(), batch.offsets
    want = [spell(key_letters(kb[off[i] : off[i + 1]]), rank) for i in range(len(batch))]
    assert spell_batch(batch, rank) == want
    assert want[0].startswith("x1" if rank > 26 else "a")


def test_spell_batch_of_mixed_lengths():
    batch = batch_from_words([(1, -2), (), (3,), (-1, 2)])
    assert spell_batch(batch, 3) == ["a b^-1", "1", "c", "a^-1 b"]
    assert spell_batch(batch_from_words([]), 2) == []


def test_enumerate_matches_probe_oracle_count():
    # brute-force oracle (stdlib FKM implementation) counted 1,257,526
    # cyclically reduced classes of norm <= 10 at rank 3
    assert class_count(3, 10) == 1257526
    (batch,) = enumerate_classes(3, 10)
    assert len(batch) == 1257526


def test_image_table_handles_inverses():
    table = image_table([(1, 2), (1,)])
    batch = batch_from_words([(-1,), (-2,)])
    out = batch_to_words(batch_reduce(batch_apply(batch, table)))
    assert out == [(-2, -1), (-1,)]
