import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traintrack import engine, hyperbolicity, load_fixture
from traintrack.engine import class_count
from traintrack.graphs import induced_automorphism
from traintrack.growth import growth_table
from traintrack.hyperbolicity import atoroidality_probe, certificate_search
from traintrack.words import (
    Automorphism,
    BudgetExceeded,
    CyclicWord,
    Word,
    compose,
    conjugate_automorphism,
    identity_automorphism,
    invert_verify,
    iterate,
    key_word,
    nielsen_inverse_search,
    spell,
)

from conftest import (
    batch_to_words,
    image_dict,
    int_det,
    make_rel,
    naive_apply,
    naive_cyclic_reduce,
    only_zero_returns,
    random_maps,
    random_reduced_word,
    stack_length,
    unfiltered_probe,
    witness_rows,
)

# fib, plas, poly and 20 seeded random maps, each with the (L, P) of
# its sweeps; certify runs them to M = 8
RANDOM_MAPS = random_maps()
on_random_maps = pytest.mark.parametrize(
    ("phi", "L", "P"), RANDOM_MAPS, ids=[phi.label for phi, _, _ in RANDOM_MAPS]
)
FIB_SERIES = [(0, 1), (1, 2), (2, 3), (3, 5), (4, 8), (5, 13), (6, 21)]


class TestProbe:
    def test_fib_finds_commutator_orbit(self, fib):
        rep = atoroidality_probe(fib, L=4, P=2)
        assert rep.verdict == "not-atoroidal"
        assert rep.classes_enumerated == 50
        assert rep.exhausted == (4, 2)
        assert witness_rows(rep) == [
            (CyclicWord((1, -2, -1, 2)).letters, 2, True, 1),
            (CyclicWord((1, 2, -1, -2)).letters, 2, True, 1),
        ]

    def test_plas_is_clean_at_small_bounds(self, plas):
        rep = atoroidality_probe(plas, L=7, P=4)
        assert rep.verdict == "no-witness-within-bounds"
        assert witness_rows(rep) == []
        assert rep.classes_enumerated == class_count(3, 7)

    def test_identity_fixes_everything(self, ident):
        rep = atoroidality_probe(ident, L=2, P=1)
        assert rep.verdict == "not-atoroidal"
        rows = witness_rows(rep)
        assert len(rows) == rep.classes_enumerated == class_count(2, 2)
        assert all(row[1:] == (1, False, 0) for row in rows)

    def test_validation(self, fib):
        with pytest.raises(ValueError):
            atoroidality_probe(fib, L=0, P=2)
        bare = Automorphism.from_letter_lists([(1, 2), (1,)])
        with pytest.raises(ValueError):
            atoroidality_probe(bare, L=2, P=1)


class TestCertificate:
    def test_fib_has_no_certificate(self, fib):
        cert = certificate_search(fib, M_max=20, L=8)
        assert cert.verdict == "no-certificate-within-bounds"
        assert cert.M is None and cert.lam is None
        assert len(cert.history) == 20
        # the commutator orbit pins r(M) to exactly 1 at every exponent
        for M, num, den, arg in cert.history:
            assert Fraction(num, den) == 1
        assert len(cert.table["class"]) == class_count(2, 8)

    def test_plas_certifies(self, plas):
        cert = certificate_search(plas, M_max=20, L=8)
        assert cert.verdict == "empirical-certificate"
        assert cert.M == 3
        assert Fraction(*cert.lam_exact) == Fraction(6, 5)
        assert cert.lam == pytest.approx(1.2)
        hist = [(M, Fraction(n, d), arg) for M, n, d, arg in cert.history]
        assert hist == [
            (1, Fraction(5, 6), "a b a b a c^-1"),
            (2, Fraction(1), "a b a c^-1 b^-1"),
            (3, Fraction(6, 5), "a b a c^-1 b^-1"),
        ]

    def test_plas_table_all_grow(self, plas):
        cert = certificate_search(plas, M_max=20, L=8)
        t = cert.table
        assert list(t) == ["class", "norm", "fwd", "bwd", "ratio"]
        assert len(t["class"]) == class_count(3, 8)
        rows = list(zip(t["fwd"], t["bwd"], t["norm"], t["ratio"]))
        worst = min(Fraction(max(f, b), n) for f, b, n, _ in rows)
        assert worst == Fraction(6, 5)
        for f, b, n, ratio in rows:
            assert ratio == max(f, b) / n

    def test_witness_period_caps_ratio(self):
        # a witness of period p has |phi^M w| = |w| = |phi^-M w| whenever p
        # divides M, so r(M) <= 1 there, and no certificate comes at such M
        for phi, L, P in RANDOM_MAPS:
            periods = set(atoroidality_probe(phi, L, P).period.tolist())
            cert = certificate_search(phi, M_max=8, L=L, letter_budget=10**6)
            for M, num, den, arg in cert.history:
                if any(M % p == 0 for p in periods):
                    assert num <= den, (phi.label, M)
            if cert.M is not None:
                assert all(cert.M % p for p in periods), phi.label

    def test_letter_budget(self, fib):
        # sum of |phi^M(x)| + |phi^-M(x)| over the generators: 6 at M = 1
        cert = certificate_search(fib, M_max=20, L=6, letter_budget=100)
        assert cert.verdict == "budget-exceeded"
        assert cert.M is None and cert.lam is None and cert.lam_exact is None
        reached = len(cert.history)
        assert 1 <= reached < 20
        # history and table are those of the last M completed
        ref = certificate_search(fib, M_max=reached, L=6)
        assert ref.verdict == "no-certificate-within-bounds"
        assert cert.history == ref.history
        assert cert.table == ref.table
        assert cert.table_size == len(cert.table["class"]) == class_count(2, 6)

    def test_letter_budget_before_first_step(self, fib):
        cert = certificate_search(fib, M_max=5, L=3, letter_budget=5)
        assert cert.verdict == "budget-exceeded"
        assert cert.history == []
        assert cert.table["fwd"] == cert.table["bwd"] == cert.table["norm"]

    def test_validation(self, fib):
        with pytest.raises(ValueError):
            certificate_search(fib, M_max=0, L=4)
        with pytest.raises(ValueError):
            certificate_search(fib, M_max=4, L=0)


class TestRefusesUnverifiedInverse:
    # each sweep needs phi^-1, and refuses a map that carries none
    def test_probe(self, fib):
        with pytest.raises(ValueError, match="has no verified inverse"):
            atoroidality_probe(Automorphism(2, fib.images), L=4, P=2)

    def test_certify(self, fib):
        with pytest.raises(ValueError, match="has no verified inverse"):
            certificate_search(Automorphism(2, fib.images), M_max=4, L=4)

    def test_growth_table_backwards(self, fib):
        with pytest.raises(ValueError, match="has no verified inverse"):
            growth_table(Automorphism(2, fib.images), fib.images[0], range(-2, 3))


class TestGrowthTable:
    def test_fibonacci_series(self, fib):
        assert growth_table(fib, (1,), range(0, 7)) == FIB_SERIES

    def test_negative_exponents(self, fib):
        assert growth_table(fib, (1,), range(-3, 1)) == [
            (-3, 3), (-2, 2), (-1, 1), (0, 1),
        ]

    def test_inverse_swaps_direction(self, fib, fib_inverse):
        ks = range(-4, 5)
        fwd = dict(growth_table(fib, (1, 2), ks))
        bwd = dict(growth_table(fib_inverse, (1, 2), ks))
        assert all(bwd[k] == fwd[-k] for k in ks)

    def test_commutator_never_grows(self, fib):
        tbl = growth_table(fib, (1, 2, -1, -2), range(-6, 7))
        assert all(norm == 4 for _, norm in tbl)

    def test_trivial_class_rejected(self, fib):
        with pytest.raises(ValueError):
            growth_table(fib, (), range(3))

    def test_reduces_its_input(self, fib):
        # g is any letter sequence: it is freely reduced against phi's rank
        assert growth_table(fib, (1, 2, -2), range(7)) == FIB_SERIES
        for g in ((3,), (), (1, -1)):
            with pytest.raises(ValueError):
                growth_table(fib, g, range(7))

    def test_letter_budget(self, fib):
        with pytest.raises(
            BudgetExceeded, match="letter budget 500 exceeded at exponent 60"
        ):
            growth_table(fib, (1,), [60], letter_budget=500)
        # a word of exactly the budget still fits: |phi^12(a)| = 377
        assert growth_table(fib, (1,), [12], letter_budget=377) == [(12, 377)]
        with pytest.raises(BudgetExceeded):
            growth_table(fib, (1,), [12], letter_budget=376)

    @on_random_maps
    def test_matches_naive_orbit(self, phi, L, P):
        # each step of the naive orbit applies the images letter by letter
        # and strips inverse pairs from the ends; growth_table's norms must
        # be those lengths in both directions, on 23 maps and three seeded
        # words of norm 1 to 5 each, to |k| = 20 or past 2,000 letters
        # (2,367 exponents in all)
        rng = random.Random(f"growth {phi.label}")
        tables = {1: image_dict(phi), -1: image_dict(phi.inverse())}
        for _ in range(3):
            g = random_reduced_word(phi.rank, rng.randint(1, 5), rng)
            if not naive_cyclic_reduce(g):
                continue
            want = {0: len(naive_cyclic_reduce(g))}
            for sign, images in tables.items():
                cur = naive_cyclic_reduce(g)
                for k in range(1, 21):
                    cur = naive_cyclic_reduce(naive_apply(images, cur))
                    want[sign * k] = len(cur)
                    if len(cur) > 2000:
                        break
            ks = sorted(want)
            assert growth_table(phi, g, ks) == [(k, want[k]) for k in ks]


def _probe_view(rep):
    """Everything an AtoroidalityReport says, as comparable values."""
    return rep.verdict, rep.exhausted, rep.classes_enumerated, witness_rows(rep)


class TestOuterInvariance:
    def _conjugators(self, rng, rank, count=10):
        return [random_reduced_word(rank, rng.randint(1, 4), rng) for _ in range(count)]

    def test_fib_probe_and_certificate(self, fib, rng):
        base_probe = atoroidality_probe(fib, L=4, P=2)
        base_cert = certificate_search(fib, M_max=6, L=4)
        for g in self._conjugators(rng, fib.rank):
            psi = conjugate_automorphism(fib, g)
            rep = atoroidality_probe(psi, L=4, P=2)
            assert _probe_view(rep) == _probe_view(base_probe)
            cert = certificate_search(psi, M_max=6, L=4)
            assert cert.verdict == base_cert.verdict
            assert cert.history == base_cert.history

    def test_plas_probe_and_certificate(self, plas, rng):
        base_probe = atoroidality_probe(plas, L=6, P=3)
        base_cert = certificate_search(plas, M_max=10, L=6)
        assert base_cert.verdict == "empirical-certificate"
        for g in self._conjugators(rng, plas.rank):
            psi = conjugate_automorphism(plas, g)
            rep = atoroidality_probe(psi, L=6, P=3)
            assert _probe_view(rep) == _probe_view(base_probe)
            cert = certificate_search(psi, M_max=10, L=6)
            assert (cert.M, cert.lam_exact) == (base_cert.M, base_cert.lam_exact)
            assert cert.history == base_cert.history

    @on_random_maps
    def test_random_map_probe_and_certificate(self, phi, L, P):
        (g,) = self._conjugators(random.Random(phi.label), phi.rank, count=1)
        psi = conjugate_automorphism(phi, g)
        assert psi.images != phi.images
        assert _probe_view(atoroidality_probe(psi, L, P)) == _probe_view(
            atoroidality_probe(phi, L, P)
        )
        cert, conj = (
            certificate_search(f, M_max=8, L=L, letter_budget=10**6)
            for f in (phi, psi)
        )
        assert (conj.verdict, conj.M, conj.lam_exact, conj.history) == (
            cert.verdict, cert.M, cert.lam_exact, cert.history
        )
        assert conj.table == cert.table


@on_random_maps
def test_inverse_map_has_the_same_witnesses(phi, L, P):
    """phi^k(w) ~ w iff phi^-k(w) ~ w, and phi^k(w) ~ w^-1 iff phi^-k(w)
    ~ w^-1, so the probe reports the same witness rows for phi and
    phi^-1: the same classes, periods and inversion steps."""
    assert _probe_view(atoroidality_probe(phi, L, P)) == _probe_view(
        atoroidality_probe(phi.inverse(), L, P)
    )


@on_random_maps
def test_inverse_map_has_the_same_certificate(phi, L, P):
    """certify's ratio takes max(fwd, bwd), so phi^-1 gets the same
    verdict and history as phi, and its table swaps fwd and bwd."""
    cert, inv = (
        certificate_search(f, M_max=8, L=L, letter_budget=10**6)
        for f in (phi, phi.inverse())
    )
    assert (inv.verdict, inv.M, inv.lam_exact, inv.history) == (
        cert.verdict, cert.M, cert.lam_exact, cert.history
    )
    assert inv.table == dict(cert.table, fwd=cert.table["bwd"], bwd=cert.table["fwd"])


def _moves(rank):
    """Elementary Nielsen moves with exact inverses, as (images, inverse
    images): inversions x_i -> x_i^-1 and transvections x_i -> x_i x_j^s,
    x_j^s x_i."""
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
                for fwd, bwd in (((i, s * j), (i, -s * j)),
                                 ((s * j, i), (-s * j, i))):
                    f, b = list(basis), list(basis)
                    f[i - 1], b[i - 1] = fwd, bwd
                    moves.append((f, b))
    return moves


def _conjugate(phi, picks):
    """psi phi psi^-1 for psi the product of the picked moves."""
    moves = _moves(phi.rank)
    psi = None
    for p in picks:
        images, inverse = moves[p % len(moves)]
        move = Automorphism.from_letter_lists(images, inverse, rank=phi.rank)
        psi = move if psi is None else compose(move, psi)
    if psi is None:
        return phi
    conj = compose(compose(psi, phi), psi.inverse())
    assert invert_verify(conj, conj.inverse())
    return conj


def _engine_lengths(phi, L, M_max):
    """Per-class (fwd, bwd) conjugacy lengths at M = 1..M_max from the
    batch engine, in enumeration order."""
    (classes,) = engine.enumerate_classes(phi.rank, L)
    tf = engine.image_table(phi.images)
    tb = engine.image_table(phi.inverse_images)
    fwd = bwd = classes
    out = []
    for _ in range(M_max):
        fwd = hyperbolicity._step(fwd, tf)
        bwd = hyperbolicity._step(bwd, tb)
        out.append(list(zip(engine.batch_lengths(fwd).tolist(),
                            engine.batch_lengths(bwd).tolist())))
    return classes, out


_FIXTURES = {"fib": 5, "plas": 4, "poly": 5, "broken": 4}  # name -> L


def _engine_history(phi, classes, ref):
    """(M, num, den, argmin) at each M from the unpruned lengths: the
    least max(fwd, bwd)/norm over every class, the first in enumeration
    order among equals."""
    words = batch_to_words(classes)
    out = []
    for M, row in enumerate(ref, 1):
        i = min(range(len(row)), key=lambda i: Fraction(max(row[i]), len(words[i])))
        out.append((M, max(row[i]), len(words[i]), spell(words[i], phi.rank)))
    return out


@pytest.mark.parametrize("stack_at", [hyperbolicity._STACK_AT, 0],
                         ids=["default", "stacks-from-M1"])
@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(sorted(_FIXTURES)),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=2),
)
@example(name="broken", picks=[])
@example(name="fib", picks=[3, 7])
def test_certify_lengths_match_engine(stack_at, name, picks):
    """certificate_search's history and table equal those of the _step
    engine's lengths of every class at every M <= 8, whether it stays on
    batch steps or moves to interval stacks, where it walks only the
    classes its exponent-sum bound cannot rule out; the table agrees with
    iterate on a few classes."""
    phi = _conjugate(_with_inverse(name), picks)
    L = _FIXTURES[name]
    classes, ref = _engine_lengths(phi, L, 8)
    history = _engine_history(phi, classes, ref)
    words = batch_to_words(classes)
    # the stack walk resumes classes from shared prefixes of 3 keys or more
    resume = hyperbolicity._resume_points(_kept_keys(phi.rank, L))
    assert max(c for c, _ in resume) >= 3
    with mock.patch.object(hyperbolicity, "_STACK_AT", stack_at):
        for M in range(1, 9):
            cert = certificate_search(phi, M_max=M, L=L)
            reached = len(cert.history)  # less than M after a certificate
            assert cert.history == history[:reached]
            certified = [m for m, num, den, _ in history if num > den]
            assert reached == min([M, *certified])
            got = list(zip(cert.table["fwd"], cert.table["bwd"]))
            assert got == ref[reached - 1]
    for i in (0, len(words) // 2, len(words) - 1):
        w = Word(words[i])
        assert got[i] == (
            CyclicWord(iterate(phi, w, reached).letters).norm,
            CyclicWord(iterate(phi, w, -reached).letters).norm,
        )


@pytest.mark.parametrize("stack_at", [hyperbolicity._STACK_AT, 0],
                         ids=["default", "stacks-from-M1"])
def test_certify_walks_only_what_the_bound_keeps(stack_at):
    """On fib at M = 20, L = 8, every stack walk from M = 6 on covers at
    most 17 of the 693 kept classes: the argmin's class, then those whose
    exponent-sum bound does not exceed its ratio.  Stacks are reached
    by M = 7 at the default switch, and from M = 1 every class is walked
    once."""
    fib = load_fixture("fib")
    advance, stack_lengths = hyperbolicity._Powers.advance, hyperbolicity._stack_lengths
    advances, walks = [], []

    def counted_advance(self):
        advances.append(1)
        advance(self)

    def counted_walk(classes, words, lens):
        walks.append((len(advances) // 2, len(classes)))  # two powers per M
        return stack_lengths(classes, words, lens)

    with mock.patch.object(hyperbolicity, "_STACK_AT", stack_at), \
            mock.patch.object(hyperbolicity._Powers, "advance", counted_advance), \
            mock.patch.object(hyperbolicity, "_stack_lengths", counted_walk):
        cert = certificate_search(fib, M_max=20, L=8)
    assert len(cert.history) == 20
    assert {M for M, _ in walks} >= set(range(7, 21))
    assert all(rows <= 17 for M, rows in walks if M > 5)
    if stack_at == 0:
        assert (1, 693) in walks


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_FIXTURES)),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=2),
    word=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from((1, -1))),
        min_size=1,
        max_size=8,
    ),
    M=st.integers(min_value=1, max_value=8),
)
def test_conjugacy_length_is_at_least_the_abelianization_bound(name, picks, word, M):
    """|phi^M(w)| >= |A^M v(w)|_1 and |phi^-M(w)| >= |B^M v(w)|_1, A and
    B the abelianizations of phi and phi^-1: the bound certificate_search
    prunes its stack walks with."""
    phi = _conjugate(_with_inverse(name), picks)
    letters = [s * (1 + (i - 1) % phi.rank) for i, s in word]
    v = np.array(_signed_sums(letters, phi.rank))
    for images, k in ((phi.images, M), (phi.inverse_images, -M)):
        a = np.linalg.matrix_power(hyperbolicity._abelianization(images), M)
        norm = CyclicWord(iterate(phi, Word(letters), k).letters).norm
        assert norm >= np.abs(a @ v).sum()


def _kept_keys(rank, L):
    """Key bytes of one class of each inverse pair, in enumeration order:
    the classes that certificate_search walks."""
    (classes,) = engine.enumerate_classes(rank, L)
    kept = np.flatnonzero(engine.inverse_partners(classes, rank) > np.arange(len(classes)))
    kb, off = classes.flat.tobytes(), classes.offsets
    return [kb[off[i] : off[i + 1]] for i in kept]


def _with_inverse(name):
    phi = load_fixture(name)
    if isinstance(phi, Automorphism):
        return phi
    return nielsen_inverse_search(induced_automorphism(phi))


@pytest.mark.parametrize(
    ("name", "Ms"),
    [("fib", (1, 5, 20)), ("plas", (1, 3, 6)), ("broken", (2, 6))],
)
def test_stack_walk_matches_per_class_stacks(name, Ms):
    """The stack walk, which resumes each class from the prefix it shares
    with the class before it, gives every class the length of its own
    stack, in enumeration order and in a seeded shuffle: the order
    changes only what is shared."""
    phi = _with_inverse(name)
    keys = _kept_keys(phi.rank, 8)
    order = list(range(len(keys)))
    random.Random(13).shuffle(order)
    shuffled = [keys[i] for i in order]
    for images in (phi.images, phi.inverse_images):
        pw = hyperbolicity._Powers(engine.image_table(images), phi.rank)
        for M in range(1, max(Ms) + 1):
            pw.advance()
            if M not in Ms:
                continue
            want = [stack_length(k, pw.words, pw.lens) for k in keys]
            for ks, ref in ((keys, want), (shuffled, [want[i] for i in order])):
                resume = hyperbolicity._resume_points(ks)
                got = hyperbolicity._stack_lengths(resume, pw.words, pw.lens)
                assert got.tolist() == ref


def _all_classes(rank, L):
    """Every nontrivial class of norm <= L, from all words by brute force."""
    gens = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    classes = {}
    for n in range(1, L + 1):
        for w in itertools.product(gens, repeat=n):
            c = CyclicWord(w)
            if c.letters:
                classes[c.letters] = c
    return list(classes.values())


def _orbit_witnesses(phi, L, P):
    """Witnesses from each class's own orbit under apply_class: the first
    return within P steps, and the first step before it at the inverse."""
    out = []
    for c in _all_classes(phi.rank, L):
        inv = c.inverse_class()
        cur, inv_step = c, 0
        for k in range(1, P + 1):
            cur = phi.apply_class(cur)
            if cur == c:
                out.append((c.letters, k, inv_step > 0, inv_step))
                break
            if cur == inv and not inv_step:
                inv_step = k
    return sorted(out, key=lambda w: (len(w[0]), w[0]))


# a finite-order map: A^3 = I, so from P = 3 on every class may return
CYCLE = Automorphism.from_letter_lists(
    [(2,), (3,), (1,)], inverse_images=[(3,), (1,), (2,)], label="cycle"
)
# a swap beside a fib block: A - I is singular, A^2 - I more so
MIXED = Automorphism.from_letter_lists(
    [(2,), (1,), (3, 4), (3,)],
    inverse_images=[(2,), (1,), (4,), (-4, 3)],
    label="mixed",
)


# a quarter turn: A has order 4, so A^k - I is invertible for k <= 3 only
QUARTER = Automorphism.from_letter_lists(
    [(2,), (-1,)], inverse_images=[(-2,), (1,)], label="quarter"
)


def _signed_sums(letters, rank):
    v = [0] * rank
    for x in letters:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def _probe_map(name):
    built = {"rel": make_rel(), "cycle": CYCLE, "mixed": MIXED, "quarter": QUARTER,
             "id27": identity_automorphism(27)}
    return built[name] if name in built else load_fixture(name)


_PROBE_L = {  # name -> max L
    "fib": 5, "plas": 4, "poly": 5, "identity": 5, "rel": 4, "cycle": 4, "mixed": 3,
    "quarter": 5,
}


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(_PROBE_L)),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=2),
    L=st.integers(min_value=1, max_value=5),
    P=st.integers(min_value=1, max_value=4),
)
# 25 kept classes at rank 2, L = 4: the last block of three holds one
@example(name="identity", picks=[], L=4, P=1)
def test_probe_matches_orbit_oracle(name, picks, L, P):
    """atoroidality_probe, with blocks of three classes so that classes of
    one length straddle blocks, reports exactly the witnesses that
    following every class's own orbit finds."""
    phi = _conjugate(_probe_map(name), picks)
    L = min(L, _PROBE_L[name])
    with mock.patch.object(hyperbolicity, "_PROBE_BLOCK", 3):
        rep = atoroidality_probe(phi, L=L, P=P)
    assert witness_rows(rep) == _orbit_witnesses(phi, L, P)
    assert rep.classes_enumerated == len(_all_classes(phi.rank, L))


@pytest.mark.parametrize(
    ("name", "L", "P"),
    [
        ("fib", 10, 6),
        ("plas", 7, 6),
        ("poly", 9, 6),
        ("fib_inverse", 10, 6),
        ("rel", 6, 6),
        ("cycle", 6, 2),
        ("cycle", 5, 6),
        ("mixed", 5, 6),
        ("quarter", 6, 3),
        ("quarter", 6, 4),
        ("id27", 2, 1),
    ],
)
def test_exponent_sum_filter_loses_no_witness(name, L, P):
    """The probe, which steps only the classes _may_return keeps, and
    grows only the classes with v = 0 when no other v can return,
    reports the same witnesses as stepping every class of each inverse
    pair, on the map and on two seeded conjugates, in the same order (by
    norm, then by letters as signed integers, past 26 generators too).
    The classes it steps are exactly those with A^k v = v over the
    integers for some k <= P."""
    base = _probe_map(name)
    rng = random.Random(f"{name} {L} {P}")
    for picks in ([], [rng.randrange(10 ** 6)], [rng.randrange(10 ** 6) for _ in range(2)]):
        phi = _conjugate(base, picks)
        rep = atoroidality_probe(phi, L=L, P=P)
        assert witness_rows(rep) == unfiltered_probe(phi, L, P)
        (classes,) = engine.enumerate_classes(phi.rank, L)
        partner = engine.inverse_partners(classes, phi.rank)
        kept = np.flatnonzero(partner > np.arange(len(classes)))
        stepped = kept[hyperbolicity._may_return(phi, classes, P)[kept]]
        a = hyperbolicity._abelianization(phi.images)
        v = np.array([_signed_sums(w, phi.rank)
                      for w in batch_to_words(classes)])[kept].T
        back = np.zeros(len(kept), dtype=bool)
        ak = np.eye(phi.rank, dtype=np.int64)
        for _ in range(P):
            ak = ak @ a
            back |= (ak @ v == v).all(axis=0)
        assert stepped.tolist() == kept[back].tolist()


@pytest.mark.parametrize("name", sorted(_PROBE_L) + ["fib_inverse"])
def test_returns_only_zero_matches_integer_determinants(name):
    """The probe grows only the classes with v = 0 exactly when det(A^k -
    I) != 0 over the integers for every k <= P, at P = 1..8, on the map
    and on two seeded conjugates."""
    base = _probe_map(name)
    rng = random.Random(f"{name} det")
    for picks in ([], [rng.randrange(10 ** 6)], [rng.randrange(10 ** 6) for _ in range(2)]):
        phi = _conjugate(base, picks)
        a = hyperbolicity._abelianization(phi.images)
        for P in range(1, 9):
            assert hyperbolicity._returns_only_zero(phi, P) == only_zero_returns(a, P)
    if name == "quarter":
        assert hyperbolicity._returns_only_zero(base, 3)
        assert not hyperbolicity._returns_only_zero(base, 4)


def test_modular_matrix_helpers_match_python_ints():
    """The int64 product x @ y % _PRIME that _returns_only_zero and
    _may_return use equals the Python-int product mod _PRIME at rank 128
    with residues up to _PRIME - 1, the largest sums it can meet, and
    _invertible_mod agrees with the integer determinant mod _PRIME on
    seeded small matrices, a third of them made singular."""
    p = hyperbolicity._PRIME
    rng = random.Random(128)
    x, y = ([[rng.choice([p - 1, rng.randrange(p)]) for _ in range(128)]
             for _ in range(128)] for _ in range(2))
    want = (np.array(x, dtype=object) @ np.array(y, dtype=object)) % p
    got = np.array(x, dtype=np.int64) @ np.array(y, dtype=np.int64) % p
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    # the right factor A^k - I of _returns_only_zero's product can hold -1
    y = np.array(y, dtype=np.int64) - np.eye(128, dtype=np.int64)
    want = (np.array(x, dtype=object) @ y.astype(object)) % p
    assert (np.array(x, dtype=np.int64) @ y % p).tolist() == want.tolist()
    for i in range(60):
        m = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
        if i % 3 == 0:
            m[5] = [a + 2 * b for a, b in zip(m[0], m[1])]
        want = int_det(m) % p != 0
        assert hyperbolicity._invertible_mod(np.array(m, dtype=np.int64)) == want


def test_rank_past_the_sweep_limit_skips_the_decision():
    """A rank the enumeration refuses is refused before the invertibility
    decision, which multiplies rank x rank matrices up to P times, is paid
    for."""
    gens = [(x,) for x in range(1, 130)]
    phi = Automorphism.from_letter_lists(gens, inverse_images=gens)
    with mock.patch.object(hyperbolicity, "_returns_only_zero", side_effect=AssertionError):
        with pytest.raises(ValueError, match="rank 129 is above"):
            atoroidality_probe(phi, L=1, P=1)


def test_determinant_zero_mod_prime_keeps_every_class():
    """fib has det(A^4 - I) = -5.  With 5 as the prime, the decision at
    P = 4 cannot tell it from a singular one and keeps the full
    enumeration, and the probe reports the same witnesses."""
    fib = load_fixture("fib")
    assert only_zero_returns(hyperbolicity._abelianization(fib.images), 4)
    with mock.patch.object(hyperbolicity, "_PRIME", 5):
        assert hyperbolicity._returns_only_zero(fib, 3)
        assert not hyperbolicity._returns_only_zero(fib, 4)
        rep = atoroidality_probe(fib, L=8, P=4)
    assert witness_rows(rep) == unfiltered_probe(fib, 8, 4)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_PROBE_L) + ["fib_inverse"]),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=2),
    word=st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from((1, -1))),
        max_size=12,
    ),
)
def test_exponent_sums_follow_abelianization(name, picks, word):
    """v(phi(w)) = A v(w) on random words, A = _abelianization(phi.images), and
    engine.exponent_sums reads v off key words."""
    phi = _conjugate(_probe_map(name), picks)
    letters = [s * (1 + (i - 1) % phi.rank) for i, s in word]
    image = naive_apply(image_dict(phi), letters)
    a = hyperbolicity._abelianization(phi.images)
    v, fv = _signed_sums(letters, phi.rank), _signed_sums(image, phi.rank)
    assert (a @ v).tolist() == fv
    for w, want in ((letters, v), (image, fv)):
        keys = np.frombuffer(key_word(w), dtype=np.uint8)[None, :]
        assert engine.exponent_sums(keys, phi.rank).tolist() == [want]
