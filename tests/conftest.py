import itertools
import random

import numpy as np
import pytest

from traintrack import (
    Automorphism,
    Graph,
    GraphMap,
    compute_filtration,
    engine,
    hyperbolicity,
    iter_tight_paths,
    load_fixture,
    rose_of,
)
from traintrack.words import (
    CyclicWord,
    _elementary_automorphisms,
    common_prefix,
    compose,
    cyclic_core,
    identity_automorphism,
    inverse_word,
    invert_verify,
    key_letters,
    key_word,
    reduce_letters,
)

PHI = (1 + 5 ** 0.5) / 2


@pytest.fixture(scope="session")
def fib():
    return load_fixture("fib")


@pytest.fixture(scope="session")
def fib_inverse():
    return load_fixture("fib_inverse")


@pytest.fixture(scope="session")
def plas():
    return load_fixture("plas")


@pytest.fixture(scope="session")
def poly():
    return load_fixture("poly")


@pytest.fixture(scope="session")
def ident():
    return load_fixture("identity")


@pytest.fixture(scope="session")
def broken():
    return load_fixture("broken")


def make_rel():
    # relative map: an invariant polynomial edge under an exponential top
    return Automorphism.from_letter_lists(
        [(1,), (3,), (3, 1, 2)],
        inverse_images=[(1,), (-1, -2, 3), (2,)],
        label="rel",
    )


@pytest.fixture(scope="session")
def rel():
    return make_rel()


@pytest.fixture(scope="session")
def fib_rose(fib):
    return rose_of(fib)


@pytest.fixture(scope="session")
def fib_inv_rose(fib):
    return rose_of(fib.inverse(), label="fib-inv")


@pytest.fixture(scope="session")
def plas_rose(plas):
    return rose_of(plas)


@pytest.fixture(scope="session")
def plas_inv_rose(plas):
    return rose_of(plas.inverse(), label="plas-inv")


@pytest.fixture(scope="session")
def poly_rose(poly):
    return rose_of(poly)


@pytest.fixture(scope="session")
def rel_rose(rel):
    return rose_of(rel)


@pytest.fixture(scope="session")
def rel_inv_rose(rel):
    return rose_of(rel.inverse(), label="rel-inv")


@pytest.fixture(scope="session")
def fib_filtration(fib_rose):
    return compute_filtration(fib_rose)


@pytest.fixture(scope="session")
def plas_filtration(plas_rose):
    return compute_filtration(plas_rose)


@pytest.fixture()
def rng():
    return random.Random(20260814)


# ---------------------------------------------------------------------------
# naive reference implementations, kept deliberately dumb


def naive_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def naive_cyclic_reduce(letters):
    w = list(naive_reduce(letters))
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def naive_apply(images, letters):
    out = []
    for x in letters:
        img = images[x] if x > 0 else [-y for y in reversed(images[-x])]
        out.extend(img)
    return naive_reduce(out)


def image_dict(phi):
    return {i: list(w) for i, w in enumerate(phi.images, start=1)}


def random_reduced_word(rank, length, rng):
    out = []
    while len(out) < length:
        x = rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def naive_classes(rank, max_norm):
    """Every canonical conjugacy class with norm <= max_norm, as key
    bytes: each key word that is cyclically reduced (no key next to its
    inverse, key ^ 1, around the cycle) and is its own least rotation,
    sorted by first key, length, then bytes."""
    out = []
    for n in range(1, max_norm + 1):
        for w in itertools.product(range(2 * rank), repeat=n):
            if any(w[i] == w[i - 1] ^ 1 for i in range(n)):
                continue
            if w == min(w[i:] + w[:i] for i in range(n)):
                out.append(bytes(w))
    return sorted(out, key=lambda b: (b[0], len(b), b))


def naive_longest_short_path(graph, metric, L0, slack=1e-9):
    """Longest tight path shorter than L0 - slack, by listing every path
    that stays below the cut."""
    best = 0.0
    prune = lambda p: metric.length(p) >= L0 - slack
    for p in iter_tight_paths(graph, max_len=10 ** 9, prune=prune):
        best = max(best, metric.length(p))
    return best


def stack_length(keys, words, lens):
    """Conjugacy length of phi^M(w) for one class w given by its letter
    keys, from the pieces words[k] = phi^M(x): each class's own interval
    stack, pushed from its first key, with no state shared between
    classes."""
    stack = []
    total = 0
    for b in keys:
        piece = words[b]
        blo, bhi = 0, lens[b]
        while stack:
            a, alo, ahi = stack[-1]
            inv, at = words[a ^ 1], lens[a] - ahi
            n = min(ahi - alo, bhi - blo)
            c = common_prefix(inv, piece, at, blo, n)
            if not c:
                break
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
    # cyclic trim: the same query between the two ends of the stack
    first = 0
    while len(stack) - first >= 2:
        a, alo, ahi = stack[-1]
        b, blo, bhi = stack[first]
        n = min(ahi - alo, bhi - blo)
        c = common_prefix(words[a ^ 1], words[b], lens[a] - ahi, blo, n)
        if not c:
            break
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
    return total


def batch_to_words(batch):
    """The letters of each word of an engine batch, as tuples."""
    flat, offsets = batch
    kb = flat.tobytes()
    return [key_letters(kb[offsets[i] : offsets[i + 1]]) for i in range(len(batch))]


def witness_rows(rep):
    """(letters, period, inverted, inversion step) of each witness of an
    AtoroidalityReport, in its order, read off its columns."""
    words = batch_to_words(rep.witnesses)
    periods, steps = rep.period.tolist(), rep.inversion_step.tolist()
    return [(w, p, s > 0, s) for w, p, s in zip(words, periods, steps)]


def unfiltered_probe(phi, L, P):
    """atoroidality_probe's witness rows (see witness_rows) from stepping
    one class of every inverse pair through P steps, with no exponent-sum
    filter in front, sorted by norm and then by letters as Python tuples.
    The pairs and the inverse classes come from CyclicWord.inverse_class,
    not from the engine's partner lookup."""
    (classes,) = engine.enumerate_classes(phi.rank, L)
    table = engine.image_table(phi.images)
    words = [CyclicWord(w) for w in batch_to_words(classes)]
    kept = np.array(
        [i for i, c in enumerate(words)
         if key_word(c.letters) < key_word(c.inverse_class().letters)],
        dtype=np.int64,
    )
    witnesses = []
    for lo in range(0, len(kept), hyperbolicity._PROBE_BLOCK):
        idx = kept[lo : lo + hyperbolicity._PROBE_BLOCK]
        block = engine.batch_take(classes, idx)
        period, inv_at = hyperbolicity._probe_block(block, table, P)
        for j in np.flatnonzero(period):
            c, p, s = words[idx[j]], int(period[j]), int(inv_at[j])
            witnesses += [(w.letters, p, s > 0, s) for w in (c, c.inverse_class())]
    witnesses.sort(key=lambda w: (len(w[0]), w[0]))
    return witnesses


def random_automorphism(rank, factors, rng, label):
    """The product of `factors` of words._elementary_automorphisms drawn by
    rng, carrying its inverse, which invert_verify checks.  Each factor's
    inverse is built here: inversions and swaps are involutions, and R_ij
    and L_ij with sign s (x_i -> x_i x_j^s and x_i -> x_j^s x_i) invert
    with sign -s, so the inverse negates the letter that is not x_i."""
    moves = _elementary_automorphisms(rank)
    phi = identity_automorphism(rank)
    for _ in range(factors):
        g = rng.choice(moves)
        inverse = [
            tuple(x if x == i else -x for x in w) if len(w) == 2 else w
            for i, w in enumerate(g.images, start=1)
        ]
        phi = compose(Automorphism(rank, g.images, inverse), phi)
    assert invert_verify(phi, phi.inverse_images)
    return Automorphism(rank, phi.images, phi.inverse_images, label=label)


def inner_conjugator(phi):
    """If phi is conjugation by some g, return g, else None."""
    w1 = phi((1,))
    if cyclic_core(w1) != (1,):
        return None
    conj = w1[: len(w1) // 2]
    # conjugators of x_1 differ by a power of x_1
    bound = max(map(len, phi.images)) + 2
    for k in range(-bound, bound + 1):
        g = reduce_letters(conj + (1 if k > 0 else -1,) * abs(k))
        if all(reduce_letters(g + (i,) + inverse_word(g)) == phi((i,))
               for i in range(1, phi.rank + 1)):
            return g
    return None


def outer_equal(phi, psi):
    """True iff phi and psi differ by an inner automorphism; psi must
    carry a verified inverse."""
    if phi.rank != psi.rank:
        return False
    return inner_conjugator(compose(phi, psi.inverse())) is not None


def random_maps():
    """(phi, L, P) for fib, plas, poly and 20 seeded products of 2 to 8
    elementary Nielsen automorphisms: ten at rank 2 with L = 7, P = 4, and
    ten at rank 3 with L = 5, P = 3."""
    maps = [(load_fixture("fib"), 7, 4), (load_fixture("plas"), 5, 3),
            (load_fixture("poly"), 7, 4)]
    rng = random.Random("random maps")
    for i in range(20):
        rank = 2 if i < 10 else 3
        phi = random_automorphism(rank, rng.randint(2, 8), rng, f"random{i}")
        maps.append((phi, 7, 4) if rank == 2 else (phi, 5, 3))
    return maps


def int_det(rows):
    """Determinant of an integer matrix by Bareiss's fraction-free
    elimination, exact in Python ints."""
    m = [[int(x) for x in row] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def only_zero_returns(a, P):
    """Whether det(A^k - I) != 0 over the integers for every k <= P."""
    a = np.array(a, dtype=object)
    eye = np.eye(len(a), dtype=int).astype(object)
    ak = eye
    for _ in range(P):
        ak = ak @ a
        if int_det(ak - eye) == 0:
            return False
    return True


def reach_closure(adjacency):
    """Boolean reachability matrix of a digraph given as a square 0/1
    matrix: entry [i, j] says whether j can be reached from i in zero or
    more steps.  Computed as the boolean closure of I + A by repeated
    squaring, with no graph search."""
    a = np.asarray(adjacency, dtype=bool)
    closure = a | np.eye(len(a), dtype=bool)
    while True:
        ints = closure.astype(np.int64)
        squared = (ints @ ints) > 0
        if (squared == closure).all():
            return closure
        closure = squared


def random_rose_map(rank, rng):
    """A self-map of the rose with `rank` petals x1..xn sending each petal
    to a random reduced word of 1 to 4 letters."""
    names = [f"x{i}" for i in range(1, rank + 1)]
    g = Graph(["v"], [(x, "v", "v") for x in names])
    images = {x: random_reduced_word(rank, rng.randint(1, 4), rng) for x in names}
    return GraphMap(g, {"v": "v"}, images)
