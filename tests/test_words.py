import pytest
from hypothesis import given
from hypothesis import strategies as st

from traintrack.words import (
    Automorphism,
    CyclicWord,
    Word,
    common_prefix,
    compose,
    conjugate_automorphism,
    cyclic_core,
    identity_automorphism,
    invert_verify,
    inverse_keys,
    inverse_word,
    iterate,
    key_letters,
    key_word,
    letter_key,
    least_rotation,
    nielsen_inverse_search,
    reduce_letters,
    spell,
)

from traintrack.graphs import rose_of

from conftest import (
    image_dict,
    inner_conjugator,
    naive_apply,
    naive_cyclic_reduce,
    naive_reduce,
    outer_equal,
)

letters_st = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=40
)


@given(letters_st)
def test_reduction_matches_naive(raw):
    assert reduce_letters(raw, 3) == naive_reduce(raw)


@given(letters_st)
def test_reduction_idempotent(raw):
    w = reduce_letters(raw, 3)
    assert reduce_letters(w, 3) == w


@given(letters_st)
def test_reduced_never_longer(raw):
    assert len(reduce_letters(raw, 3)) <= len(raw)


@given(letters_st)
def test_word_times_inverse_is_identity(raw):
    w = reduce_letters(raw, 3)
    assert reduce_letters(w + inverse_word(w)) == ()


@given(letters_st)
def test_cyclic_word_matches_naive_up_to_rotation(raw):
    c = CyclicWord(raw)
    n = naive_cyclic_reduce(raw)
    assert len(c.letters) == len(n)
    if n:
        assert c.letters in {n[i:] + n[:i] for i in range(len(n))}
    w = naive_reduce(raw)
    assert cyclic_core(w) == n
    # w is conj * core * conj^-1 with conj the stripped front
    conj = w[: (len(w) - len(n)) // 2]
    assert conj + n + inverse_word(conj) == w


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
        assert rose.graph.path_marking(letters) == naive_reduce(letters)


@given(letters_st, st.integers(min_value=0, max_value=10))
def test_norm_invariant_under_rotation(raw, k):
    w = naive_reduce(raw)
    rotated = w[k % max(1, len(w)):] + w[: k % max(1, len(w))] if w else w
    assert CyclicWord(rotated).norm == CyclicWord(w).norm or naive_cyclic_reduce(
        rotated
    ) != naive_cyclic_reduce(w)


@given(letters_st, letters_st)
def test_norm_invariant_under_conjugation(raw, conj):
    g = reduce_letters(raw, 3)
    u = reduce_letters(conj, 3)
    assert len(cyclic_core(reduce_letters(u + g + inverse_word(u)))) == len(
        cyclic_core(g)
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
        assert fib((1,)) == (1, 2)
        assert fib((2,)) == (1,)

    def test_homomorphism_property(self, fib, rng):
        for _ in range(50):
            u, v = (
                reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))])
                for _ in range(2)
            )
            assert fib(reduce_letters(u + v)) == reduce_letters(fib(u) + fib(v))

    def test_inverse_round_trip(self, fib, plas, poly, rng):
        for phi in (fib, plas, poly):
            inv = phi.inverse()
            for _ in range(30):
                raw = [
                    rng.choice([s * i for i in range(1, phi.rank + 1) for s in (1, -1)])
                    for _ in range(rng.randint(0, 15))
                ]
                w = reduce_letters(raw, phi.rank)
                assert inv(phi(w)) == w
                assert phi(inv(w)) == w

    def test_invert_verify_rejects_wrong_candidate(self, fib):
        assert invert_verify(fib, fib.inverse())
        assert not invert_verify(fib, [(1,), (2,)])

    def test_compose_against_pointwise(self, fib, rng):
        phi2 = compose(fib, fib)
        for _ in range(20):
            w = reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(8)], 2)
            assert phi2(w) == fib(fib(w))

    def test_iterate_matches_repeated_compose(self, fib):
        a = Word((1,))
        assert iterate(fib, a, 3).letters == fib(fib(fib((1,))))
        assert iterate(fib, Word((1, 2)), 0).letters == (1, 2)

    def test_iterate_negative_uses_inverse(self, fib):
        a = Word((1,))
        assert iterate(fib, a, -1).letters == fib.inverse()((1,))

    def test_apply_class_is_conjugation_invariant(self, fib, rng):
        for _ in range(30):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 10))]
            g = reduce_letters(raw, 2)
            u = reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(4)], 2)
            lhs = fib.apply_class(CyclicWord(u + g + inverse_word(u)))
            rhs = fib.apply_class(CyclicWord(g))
            assert lhs == rhs

    def test_identity_automorphism(self):
        e = identity_automorphism(3)
        assert e((1, -2, 3)) == (1, -2, 3)

    def test_conjugate_automorphism_is_outer_equal(self, fib):
        psi = conjugate_automorphism(fib, (1, 2))
        assert outer_equal(psi, fib)
        assert psi.images != fib.images  # genuinely different representative

    def test_inner_conjugator_recovers_witness(self, fib):
        u = (2, 1)
        psi = conjugate_automorphism(fib, u)
        # psi o fib^-1 is conjugation by u
        w = inner_conjugator(compose(psi, fib.inverse()))
        assert w == u
        assert inner_conjugator(fib) is None

    def test_nielsen_inverse_search_finds_fib(self, fib):
        bare = Automorphism(2, fib.images)  # drop the stored inverse
        found = nielsen_inverse_search(bare, depth=3)
        assert found is not None
        assert invert_verify(bare, found.inverse_images)

    def test_nielsen_inverse_search_gives_up(self):
        # depth 0 cannot invert anything but the identity
        bare = Automorphism(2, ((1, 2), (1,)))
        assert nielsen_inverse_search(bare, depth=0) is None


def test_word_validates_rank():
    with pytest.raises(ValueError):
        reduce_letters((1, 4), 3)
    with pytest.raises(ValueError):
        reduce_letters((0,), 2)


def test_automorphism_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Automorphism(2, ((1,),))
    with pytest.raises(ValueError):
        Automorphism(0, ())
