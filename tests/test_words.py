import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack.words import (
    Automorphism,
    CyclicWord,
    Word,
    common_prefix,
    compose,
    conjugacy_length,
    conjugate_automorphism,
    cyclic_core,
    cyclic_reduce,
    identity_automorphism,
    inner_conjugator,
    invert_verify,
    inverse_keys,
    iterate,
    key_letters,
    key_word,
    letter_key,
    least_rotation,
    nielsen_inverse_search,
    outer_equal,
    spell,
)

from traintrack.graphs import rose_of

from conftest import image_dict, naive_apply, naive_cyclic_reduce, naive_reduce

letters_st = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=40
)


@given(letters_st)
def test_reduction_matches_naive(raw):
    assert Word(raw, 3).letters == naive_reduce(raw)


@given(letters_st)
def test_reduction_idempotent(raw):
    w = Word(raw, 3)
    assert Word(w.letters, 3).letters == w.letters


@given(letters_st)
def test_reduced_never_longer(raw):
    assert len(Word(raw, 3)) <= len(raw)


@given(letters_st)
def test_word_times_inverse_is_identity(raw):
    w = Word(raw, 3)
    assert (w * w.inverse()).letters == ()


@given(letters_st)
def test_cyclic_word_matches_naive_up_to_rotation(raw):
    c = CyclicWord(raw)
    n = naive_cyclic_reduce(raw)
    assert len(c.letters) == len(n)
    if n:
        assert c.letters in {n[i:] + n[:i] for i in range(len(n))}
    assert conjugacy_length(raw) == len(n)
    assert cyclic_core(naive_reduce(raw)) == n
    w = Word(raw, 3)
    core, conj = cyclic_reduce(w)
    assert core == c
    assert conj * core.word() * conj.inverse() == w


@given(letters_st)
def test_kernel_matches_naive_on_unreduced_input(fib, plas, rel, raw):
    # one substitute-and-reduce loop serves automorphisms, graph maps and
    # markings; letters beyond an automorphism's rank are dropped
    for phi in (fib, plas, rel):
        letters = [x for x in raw if abs(x) <= phi.rank]
        expect = naive_apply(image_dict(phi), letters)
        rose = rose_of(phi)
        assert phi.apply_letters(letters) == expect
        assert rose.map_letters(letters) == expect
        assert rose.graph.path_marking(letters).letters == naive_reduce(letters)


@given(letters_st, st.integers(min_value=0, max_value=10))
def test_norm_invariant_under_rotation(raw, k):
    w = naive_reduce(raw)
    rotated = w[k % max(1, len(w)):] + w[: k % max(1, len(w))] if w else w
    assert CyclicWord(rotated).norm == CyclicWord(w).norm or naive_cyclic_reduce(
        rotated
    ) != naive_cyclic_reduce(w)


@given(letters_st, letters_st)
def test_norm_invariant_under_conjugation(raw, conj):
    g = Word(raw, 3)
    u = Word(conj, 3)
    assert conjugacy_length((u * g * u.inverse()).letters) == conjugacy_length(
        g.letters
    )


def test_least_rotation_is_minimal():
    w = (2, 1, -2, 1)
    i = least_rotation(w)
    rots = [w[k:] + w[:k] for k in range(len(w))]
    key = lambda t: [letter_key(x) for x in t]
    assert min(rots, key=key) == w[i:] + w[:i]


def test_letter_key_total_order():
    # a < a^-1 < b < b^-1 < c < c^-1
    assert sorted([1, -1, 2, -2, 3, -3], key=letter_key) == [1, -1, 2, -2, 3, -3]


@given(letters_st, letters_st, st.integers(0, 40), st.integers(0, 4), st.integers(0, 40))
def test_common_prefix_matches_naive(u, tail, k, i, n):
    # q shares a prefix of up to k letters with p, so long matches occur
    p, q = tuple(u), tuple(u[:k] + tail)

    def naive(a, b):
        m = 0
        while m < min(len(a), len(b)) and a[m] == b[m]:
            m += 1
        return m

    for a, b in ((p, q), (key_word(p), key_word(q))):
        assert common_prefix(a, b) == naive(a, b)
        m = max(0, min(n, len(a) - i, len(b) - i))
        assert common_prefix(a, b, i, i, m) == naive(a[i : i + m], b[i : i + m])


@given(st.lists(st.integers(-128, 128).filter(bool), max_size=40))
def test_key_word_round_trip(letters):
    keys = key_word(letters)
    assert list(keys) == [letter_key(x) for x in letters]
    assert key_letters(keys) == tuple(letters)
    assert key_letters(inverse_keys(keys)) == tuple(-x for x in reversed(letters))
    assert inverse_keys(inverse_keys(keys)) == keys


def test_key_word_limit():
    assert key_word((127, -127, 128, -128)) == bytes([252, 253, 254, 255])
    for bad in (129, -129, 0):
        with pytest.raises(ValueError, match=f"letter {bad} is outside the limit of 128"):
            key_word((1, bad))


def test_spell_round_names():
    assert spell((1, -2, 3)) == "a b^-1 c"
    assert spell(()) == "1"


class TestAutomorphism:
    def test_fib_images(self, fib):
        assert fib(Word((1,))).letters == (1, 2)
        assert fib(Word((2,))).letters == (1,)

    def test_homomorphism_property(self, fib, rng):
        for _ in range(50):
            u = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))], 2)
            v = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))], 2)
            assert fib(u * v).letters == (fib(u) * fib(v)).letters

    def test_inverse_round_trip(self, fib, plas, poly, rng):
        for phi in (fib, plas, poly):
            inv = phi.inverse()
            for _ in range(30):
                raw = [
                    rng.choice([s * i for i in range(1, phi.rank + 1) for s in (1, -1)])
                    for _ in range(rng.randint(0, 15))
                ]
                w = Word(raw, phi.rank)
                assert inv(phi(w)).letters == w.letters
                assert phi(inv(w)).letters == w.letters

    def test_invert_verify_rejects_wrong_candidate(self, fib):
        assert invert_verify(fib, fib.inverse())
        assert not invert_verify(fib, [Word((1,), 2), Word((2,), 2)])

    def test_compose_against_pointwise(self, fib, rng):
        phi2 = compose(fib, fib)
        for _ in range(20):
            w = Word([rng.choice([1, -1, 2, -2]) for _ in range(8)], 2)
            assert phi2(w).letters == fib(fib(w)).letters

    def test_iterate_matches_repeated_compose(self, fib):
        a = Word((1,))
        assert iterate(fib, a, 3).letters == fib(fib(fib(a))).letters
        assert iterate(fib, Word((1, 2)), 0).letters == (1, 2)

    def test_iterate_negative_uses_inverse(self, fib):
        a = Word((1,))
        assert iterate(fib, a, -1).letters == fib.inverse()(a).letters

    def test_apply_class_is_conjugation_invariant(self, fib, rng):
        for _ in range(30):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 10))]
            g = Word(raw, 2)
            u = Word([rng.choice([1, -1, 2, -2]) for _ in range(4)], 2)
            lhs = fib.apply_class(CyclicWord((u * g * u.inverse()).letters))
            rhs = fib.apply_class(CyclicWord(g.letters))
            assert lhs == rhs

    def test_identity_automorphism(self):
        e = identity_automorphism(3)
        assert e(Word((1, -2, 3))).letters == (1, -2, 3)

    def test_conjugate_automorphism_is_outer_equal(self, fib):
        psi = conjugate_automorphism(fib, Word((1, 2), 2))
        assert outer_equal(psi, fib)
        assert psi.images != fib.images  # genuinely different representative

    def test_inner_conjugator_recovers_witness(self, fib):
        u = Word((2, 1), 2)
        psi = conjugate_automorphism(fib, u)
        # psi o fib^-1 is conjugation by u
        w = inner_conjugator(compose(psi, fib.inverse()))
        assert w is not None and w.letters == u.letters
        assert inner_conjugator(fib) is None

    def test_nielsen_inverse_search_finds_fib(self, fib):
        bare = Automorphism(2, fib.images)  # drop the stored inverse
        found = nielsen_inverse_search(bare, depth=3)
        assert found is not None
        assert invert_verify(bare, found.inverse_images)

    def test_nielsen_inverse_search_gives_up(self):
        # depth 0 cannot invert anything but the identity
        bare = Automorphism(2, (Word((1, 2), 2), Word((1,), 2)))
        assert nielsen_inverse_search(bare, depth=0) is None


@settings(max_examples=60)
@given(letters_st, st.integers(min_value=0, max_value=4))
def test_conjugacy_length_monotone_under_iterate(raw, k):
    # the class norm of phi^k(g) is the length of the cyclically reduced word
    w = naive_cyclic_reduce(raw)
    assert conjugacy_length(raw) == len(w)


def test_word_validates_rank():
    with pytest.raises(ValueError):
        Word((1, 4), 3)
    with pytest.raises(ValueError):
        Word((0,), 2)


def test_automorphism_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Automorphism(2, (Word((1,), 2),))
    with pytest.raises(ValueError):
        Automorphism(0, ())
