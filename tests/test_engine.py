import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack.engine import (
    batch_apply,
    batch_cyclic_reduce,
    batch_from_words,
    batch_lengths,
    batch_reduce,
    batch_to_words,
    class_count,
    enumerate_classes,
    image_table,
    inverse_pair_mask,
    inverse_partners,
    inverse_rows,
    is_rotation,
)
from traintrack.words import CyclicWord, Word, key_word

from conftest import (
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

    a = rows((1, 2, -1), (1, 2, -1))
    assert is_rotation(a, rows((2, -1, 1), (1, -2, 1))).tolist() == [True, False]
    # (-1, 1, -2) is the inverse of (2, -1, 1)
    inv = inverse_rows(rows((-1, 1, -2), (2, -1, 1)))
    assert is_rotation(a, inv).tolist() == [True, False]
    with pytest.raises(ValueError):
        is_rotation(a[:1], rows((1, 2)))


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
def test_inverse_pair_mask_keeps_one_of_each_pair(rank):
    (batch,) = enumerate_classes(rank, 6)
    classes = [CyclicWord(w) for w in batch_to_words(batch)]
    kept = {c for c, k in zip(classes, inverse_pair_mask(batch)) if k}
    for c in classes:
        assert (c in kept) != (c.inverse_class() in kept)


@pytest.mark.parametrize(
    ("rank", "max_norm"), [(1, 20), (2, 8), (3, 6), (4, 4), (2, 12)]
)
def test_inverse_partners(rank, max_norm):
    # rows longer than 8 keys take more than one packed word
    (batch,) = enumerate_classes(rank, max_norm)
    classes = [CyclicWord(w) for w in batch_to_words(batch)]
    partner = inverse_partners(batch)
    for i, c in enumerate(classes):
        assert classes[partner[i]] == c.inverse_class()
    every = np.arange(len(classes))
    assert np.array_equal(partner[partner], every)
    assert np.array_equal(partner > every, inverse_pair_mask(batch))


@pytest.mark.parametrize(("rank", "max_norm"), [(1, 5), (2, 8), (3, 6), (4, 4)])
def test_enumerate_classes_offsets(rank, max_norm):
    (batch,) = enumerate_classes(rank, max_norm)
    lens = [len(w) for w in batch_to_words(batch)]
    assert batch.offsets.dtype == np.int64
    assert batch.offsets[0] == 0
    assert np.array_equal(batch.offsets[1:], np.cumsum(lens))
    assert batch.offsets[-1] == len(batch.flat)


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
