import itertools
import random

import pytest

from traintrack import (
    Automorphism,
    compute_filtration,
    iter_tight_paths,
    load_fixture,
    rose_of,
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


@pytest.fixture(scope="session")
def rel():
    # relative map: an invariant polynomial edge under an exponential top
    return Automorphism.from_letter_lists(
        [(1,), (3,), (3, 1, 2)],
        inverse_images=[(1,), (-1, -2, 3), (2,)],
        label="rel",
    )


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
    return {i: list(phi.images[i - 1].letters) for i in range(1, phi.rank + 1)}


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
