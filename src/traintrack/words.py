"""Words and automorphisms of a finitely generated free group.

A word in the free group with basis x_1, ..., x_n is stored as a tuple of
nonzero integers: +i stands for x_i and -i for its inverse.  An open word
is a freely reduced tuple (reduce_letters): the images of an Automorphism
are such tuples, and phi(w) returns one.  A conjugacy class is a closed
word, cyclically reduced (cyclic_core) and rotated to a canonical position
(canonical_cycle); closed paths in a graph use the same form.  The classes
Word and CyclicWord remain only for the output checks of bench/workloads.py.

The canonical position is the lexicographically least rotation under the
fixed letter order x_1 < x_1^-1 < x_2 < x_2^-1 < ...; a class and its
inverse class are distinct objects.

The same order numbers the letters: letter_key(x) is 2x-2 for x > 0 and
-2x-1 for x < 0, so x_i and x_i^-1 get the adjacent keys 2i-2 and 2i-1
and the key of an inverse letter is key ^ 1.  The class sweeps and the
cancellation search store words as key bytes (key_word), one byte per
letter, which holds letters +-1..+-MAX_LETTER: generators of a rank <= 128
free group, or edges of a graph with <= 128 edges.  This module is the
only one that knows the formula; the others call key_word, key_letters
and inverse_keys.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Sequence

_ABC = "abcdefghijklmnopqrstuvwxyz"


class BudgetExceeded(Exception):
    """A bounded search ran past its budget before reaching an answer."""


def generator_name(i: int, rank: int) -> str:
    """Display name for generator index i (1-based)."""
    if rank <= len(_ABC):
        return _ABC[i - 1]
    return f"x{i}"


def spell(letters: Sequence[int], rank: int | None = None) -> str:
    """Render letters as space-separated tokens, e.g. 'a b^-1 a'."""
    if not letters:
        return "1"
    r = rank if rank is not None else max(abs(x) for x in letters)
    parts = []
    for x in letters:
        name = generator_name(abs(x), r)
        parts.append(name if x > 0 else name + "^-1")
    return " ".join(parts)


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    push = out.append
    pop = out.pop
    for x in letters:
        if out and out[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(out)


def substitute(table: dict[int, Sequence[int]], letters: Iterable[int]) -> tuple[int, ...]:
    """Replace each letter x by table[x] and freely reduce the result.

    The word and graph-path kernel: automorphism images, graph map images
    and markings of edge paths all go through this one loop.
    """
    out: list[int] = []
    push = out.append
    pop = out.pop
    for x in letters:
        for y in table[x]:
            if out and out[-1] == -y:
                pop()
            else:
                push(y)
    return tuple(out)


def inverse_word(w: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a word or edge path: reversed, each letter inverted."""
    return tuple(-x for x in reversed(w))


def letter_table(images: Iterable[Sequence[int]]) -> dict[int, tuple[int, ...]]:
    """The substitution table {i: w_i, -i: w_i^-1} of images w_1, w_2, ..."""
    t: dict[int, tuple[int, ...]] = {}
    for i, w in enumerate(images, start=1):
        t[i] = tuple(w)
        t[-i] = inverse_word(w)
    return t


def cyclic_core(w: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic reduction of a reduced word: w with the inverse pairs
    x ... x^-1 stripped from its two ends."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def reduce_letters(letters: Iterable[int], rank: int | None = None) -> tuple[int, ...]:
    """Freely reduce a raw letter sequence.

    Raises ValueError on zero letters or, when rank is given, on letters
    outside the declared basis.
    """
    letters = tuple(letters)
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter; use +i / -i for x_i and its inverse")
        if rank is not None and abs(x) > rank:
            raise ValueError(f"letter {x} outside declared rank {rank}")
    return _reduce(letters)


def letter_key(x: int) -> int:
    """Total order on letters: x_1 < x_1^-1 < x_2 < x_2^-1 < ..."""
    return 2 * x - 2 if x > 0 else -2 * x - 1


MAX_LETTER = 128  # the keys of +-1..+-128 are 0..255, one byte each

# key of a letter -> key of its inverse letter
_FLIP = bytes(k ^ 1 for k in range(256))


def key_word(letters: Sequence[int]) -> bytes:
    """The word as bytes of letter keys."""
    try:
        return bytes(2 * x - 2 if x > 0 else -2 * x - 1 for x in letters)
    except ValueError:
        bad = next(x for x in letters if not 0 < abs(x) <= MAX_LETTER)
        raise ValueError(
            f"letter {bad} is outside the limit of {MAX_LETTER} generators "
            f"or graph edges that a key-encoded word can hold"
        ) from None


def key_letters(keys) -> tuple[int, ...]:
    """The letters of a key-encoded word (bytes or a uint8 array)."""
    return tuple(-(k >> 1) - 1 if k & 1 else (k >> 1) + 1 for k in bytes(keys))


def inverse_keys(keys: bytes) -> bytes:
    """The key bytes of the inverse word: reversed, each key flipped."""
    return keys[::-1].translate(_FLIP)


def common_prefix(p, q, i: int = 0, j: int = 0, n: int | None = None) -> int:
    """Length of the longest common prefix of p[i:i+n] and q[j:j+n], for
    tuples of letters or key bytes; n defaults to all that both have left.

    Slice comparisons and a binary search keep long matches fast."""
    if n is None:
        n = min(len(p) - i, len(q) - j)
    if n <= 0 or p[i] != q[j]:
        return 0
    if p[i : i + n] == q[j : j + n]:
        return n
    lo, hi = 1, n - 1  # p[i:i+lo] == q[j:j+lo]; the prefix of length hi+1 differs
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if p[i + lo : i + mid] == q[j + lo : j + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def least_rotation(seq: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm).

    Comparison is by letter_key.  O(len(seq)).
    """
    s = [letter_key(x) for x in seq]
    s += s
    n = len(s)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def canonical_cycle(letters: Iterable[int]) -> tuple[int, ...]:
    """The canonical form of a closed word: freely and cyclically reduced,
    then rotated to its least rotation."""
    core = cyclic_core(_reduce(letters))
    r = least_rotation(core)
    return core[r:] + core[:r]


class Word:
    """A freely reduced word, kept for bench/workloads.py only: its output
    checks build one, read ``letters`` and iterate it."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = (), rank: int | None = None):
        self.letters = reduce_letters(letters, rank)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


class CyclicWord:
    """A conjugacy class in canonical form, kept for bench/workloads.py
    only: its output checks build one, compare classes, and read the norm
    and the inverse class."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = canonical_cycle(letters)

    @property
    def norm(self) -> int:
        """Conjugacy length (cyclically reduced length)."""
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self.letters == other.letters

    def inverse_class(self) -> "CyclicWord":
        return CyclicWord(inverse_word(self.letters))


class Automorphism:
    """An automorphism of the free group of the given rank.

    images[i-1] is the image of x_i, a reduced letter tuple.
    inverse_images, when present, has been checked to invert the map on
    every generator (see invert_verify).
    """

    def __init__(
        self,
        rank: int,
        images: Sequence[Sequence[int]],
        inverse_images: Sequence[Sequence[int]] | None = None,
        label: str = "",
    ):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if len(images) != rank:
            raise ValueError(f"expected {rank} images, got {len(images)}")
        self.rank = rank
        self.images = tuple(reduce_letters(w, rank) for w in images)
        self.inverse_images = (
            tuple(reduce_letters(w, rank) for w in inverse_images)
            if inverse_images is not None
            else None
        )
        if self.inverse_images is not None and len(self.inverse_images) != rank:
            raise ValueError("inverse image count does not match rank")
        self.label = label

    @classmethod
    def from_letter_lists(
        cls,
        images: Sequence[Sequence[int]],
        inverse_images: Sequence[Sequence[int]] | None = None,
        label: str = "",
        rank: int | None = None,
    ) -> "Automorphism":
        r = rank if rank is not None else len(images)
        return cls(r, images, inverse_images, label)

    @cached_property
    def _table(self) -> dict[int, tuple[int, ...]]:
        return letter_table(self.images)

    def apply_letters(self, letters: Sequence[int]) -> tuple[int, ...]:
        return substitute(self._table, letters)

    def __call__(self, letters: Sequence[int]) -> tuple[int, ...]:
        # through apply_letters, the method bench/tracer.py times
        return self.apply_letters(letters)

    def apply_class(self, c: CyclicWord) -> CyclicWord:
        """phi of a class, kept for bench/workloads.py only."""
        return CyclicWord(self.apply_letters(c.letters))

    def inverse(self) -> "Automorphism":
        if self.inverse_images is None:
            raise ValueError(f"automorphism {self.label or '?'} has no verified inverse")
        return Automorphism(
            self.rank,
            self.inverse_images,
            self.images,
            label=(self.label + "^-1") if self.label else "",
        )

    def __repr__(self) -> str:
        ims = ", ".join(
            f"{generator_name(i, self.rank)} -> {spell(w, self.rank)}"
            for i, w in enumerate(self.images, start=1)
        )
        return f"Automorphism({ims})"


def identity_automorphism(rank: int) -> Automorphism:
    gens = [(i,) for i in range(1, rank + 1)]
    return Automorphism(rank, gens, gens, label="id")


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """The composition phi o psi (apply psi first)."""
    if phi.rank != psi.rank:
        raise ValueError("rank mismatch")
    images = [phi(w) for w in psi.images]
    inv = None
    if phi.inverse_images is not None and psi.inverse_images is not None:
        psi_inv = psi.inverse()
        inv = [psi_inv(w) for w in phi.inverse_images]
    label = ""
    if phi.label and psi.label:
        label = f"{phi.label}*{psi.label}"
    return Automorphism(phi.rank, images, inv, label=label)


def invert_verify(
    phi: Automorphism, candidate: Sequence[Sequence[int]] | Automorphism
) -> bool:
    """True iff the candidate images invert phi in both orders."""
    if isinstance(candidate, Automorphism):
        if candidate.rank != phi.rank:
            return False
        cand = candidate.images
    else:
        if len(candidate) != phi.rank:
            return False
        cand = candidate
    trial = Automorphism(phi.rank, cand)
    for i in range(1, phi.rank + 1):
        if trial(phi((i,))) != (i,) or phi(trial((i,))) != (i,):
            return False
    return True


def iterate(phi: Automorphism, w: Word, n: int) -> Word:
    """phi^n(w); negative n uses the verified inverse.  Kept for
    bench/workloads.py only, which reads ``letters`` from the result."""
    out = w.letters
    if n:
        table = phi if n > 0 else phi.inverse()
        for _ in range(abs(n)):
            out = table(out)
    return Word(out)


def conjugate_automorphism(phi: Automorphism, g: Sequence[int]) -> Automorphism:
    """The automorphism x -> g phi(x) g^-1 (same outer class as phi)."""
    g = reduce_letters(g, phi.rank)
    images = [_reduce(g + w + inverse_word(g)) for w in phi.images]
    inv = None
    if phi.inverse_images is not None:
        h = phi.inverse()(inverse_word(g))
        inv = [_reduce(h + w + inverse_word(h)) for w in phi.inverse_images]
    return Automorphism(phi.rank, images, inv,
                        label=f"{phi.label}^conj" if phi.label else "")


def _elementary_automorphisms(rank: int) -> list[Automorphism]:
    """Nielsen generators: inversions, transpositions, one-sided multiplications."""
    gens: list[Automorphism] = []
    basis = [(i,) for i in range(1, rank + 1)]

    def build(images, label):
        gens.append(Automorphism(rank, images, label=label))

    for i in range(1, rank + 1):
        ims = list(basis)
        ims[i - 1] = (-i,)
        build(ims, f"inv{i}")
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            ims = list(basis)
            ims[i - 1], ims[j - 1] = basis[j - 1], basis[i - 1]
            build(ims, f"swap{i}{j}")
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i == j:
                continue
            for sign in (1, -1):
                ims = list(basis)
                ims[i - 1] = (i, sign * j)
                build(ims, f"R{i}{j}{sign}")
                ims = list(basis)
                ims[i - 1] = (sign * j, i)
                build(ims, f"L{i}{j}{sign}")
    return gens


def nielsen_inverse_search(phi: Automorphism, depth: int = 4) -> Automorphism | None:
    """Search for phi^-1 as a short product of elementary Nielsen automorphisms.

    Breadth-first over compositions of at most `depth` elementary moves,
    applied on the left of phi until every generator is restored.  Returns a
    new Automorphism carrying the verified inverse, or None if the search
    exhausts the depth.  Intended for small ranks and short images.
    """
    rank = phi.rank
    target = tuple((i,) for i in range(1, rank + 1))
    start = phi.images
    if start == target:
        return Automorphism(rank, phi.images, target, label=phi.label)
    gens = _elementary_automorphisms(rank)
    seen = {start}
    queue: deque[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = deque()
    queue.append((start, ()))
    while queue:
        state, path = queue.popleft()
        if len(path) >= depth:
            continue
        for gi, g in enumerate(gens):
            nxt = tuple(g.apply_letters(w) for w in state)
            if nxt == target:
                inv = identity_automorphism(rank)
                for idx in path + (gi,):
                    inv = compose(gens[idx], inv)
                cand = inv.images
                if invert_verify(phi, cand):
                    return Automorphism(rank, phi.images, cand, label=phi.label)
                continue
            if nxt in seen:
                continue
            # a move at most doubles total image length, so a state this far
            # from the basis cannot get back within the remaining depth
            remaining = depth - len(path) - 1
            if sum(len(w) for w in nxt) > rank * (2 ** remaining):
                continue
            seen.add(nxt)
            queue.append((nxt, path + (gi,)))
    return None
