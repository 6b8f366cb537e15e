"""The symmetric group S_n in one-line notation.

A permutation w is stored by its image tuple (w(1), ..., w(n)) on {1..n}.
Composition is right-to-left, (u * v)(i) = u(v(i)), and every Coxeter word
in this package multiplies its letters left to right under that single
convention.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

from .errors import InvalidInputError, LimitExceededError

#: Ceiling for operations that enumerate all of S_n.
MAX_ENUMERATION_RANK = 8

#: A word in the adjacent transpositions s_i, multiplied left to right.
ReducedWord = tuple[int, ...]

_T = TypeVar("_T")


def _check_rank(n: int) -> None:
    """Refuse a rank that is not a positive int; a bool is not an int."""
    if type(n) is not int or n < 1:
        raise InvalidInputError(f"rank must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the image tuple (w(1), ..., w(n)).

    >>> w = Permutation((2, 3, 1))
    >>> w(1), w(2), w(3)
    (2, 3, 1)
    >>> w.inverse().images
    (3, 1, 2)
    >>> (w * w).images
    (3, 1, 2)
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        # a bool or a float equal to an image passes the sorted test
        if n < 1 or sorted(images) != list(range(1, n + 1)) or {*map(type, images)} != {int}:
            raise InvalidInputError(f"not a permutation of 1..{n}: {images!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_rank(n)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition s_i swapping i and i+1."""
        _check_rank(n)
        if not 1 <= i <= n - 1:
            raise InvalidInputError(f"simple reflection index {i} out of range for rank {n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing permutation (n, n-1, ..., 1)."""
        _check_rank(n)
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation such as ``"2,3,1"``."""
        try:
            images = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse permutation {text!r}") from exc
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise InvalidInputError(f"argument {i} outside 1..{self.n}")
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, val in enumerate(self.images, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Number of inversions; equals the length of any reduced word."""
        images = self.images
        n = len(images)
        return sum(1 for a in range(n) for b in range(a + 1, n) if images[a] > images[b])

    def is_identity(self) -> bool:
        return all(val == pos for pos, val in enumerate(self.images, start=1))

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __str__(self) -> str:
        return self.one_line()


def compose(u: Permutation, v: Permutation) -> Permutation:
    """Right-to-left composition: (u * v)(i) = u(v(i)), so v acts first.

    >>> compose(Permutation((2, 3, 1)), Permutation((2, 3, 1))).images
    (3, 1, 2)
    """
    if u.n != v.n:
        raise InvalidInputError(f"rank mismatch: {u.n} vs {v.n}")
    uim = u.images
    return Permutation(tuple(uim[j - 1] for j in v.images))


def canonical_reduced_word(w: Permutation) -> ReducedWord:
    """The lexicographically smallest reduced word for w.

    Letters multiply left to right: ``w == s_{i_1} * s_{i_2} * ... * s_{i_l}``.
    Produced greedily: the smallest left descent is split off until the
    identity remains, which yields the lex-least word.

    >>> canonical_reduced_word(Permutation((3, 2, 1)))
    (1, 2, 1)
    >>> canonical_reduced_word(Permutation((1, 2, 3)))
    ()
    """
    # i is a left descent of w iff w^{-1}(i) > w^{-1}(i+1); splitting it off
    # replaces w by s_i * w, whose inverse is w^{-1} with entries i, i+1 swapped.
    inv = list(w.inverse().images)
    letters: list[int] = []
    while True:
        for i in range(1, len(inv)):
            if inv[i - 1] > inv[i]:
                letters.append(i)
                inv[i - 1], inv[i] = inv[i], inv[i - 1]
                break
        else:
            return tuple(letters)


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order via the rank-matrix (dominance) criterion.

    v <= w iff for all i, j: #{a <= i : v(a) >= j} <= #{a <= i : w(a) >= j}.
    Polynomial-time; the exponential subword characterization is kept only
    as a test oracle.

    >>> bruhat_leq(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
    True
    >>> bruhat_leq(Permutation((2, 3, 1)), Permutation((3, 1, 2)))
    False
    """
    if v.n != w.n:
        raise InvalidInputError(f"rank mismatch: {v.n} vs {w.n}")
    return _rank_leq(v.images, w.images)


def _rank_leq(vim: Sequence[int], wim: Sequence[int]) -> bool:
    """The rank-matrix test of bruhat_leq on two image sequences of one rank."""
    n = len(vim)
    # j = 1 and i = n rows hold trivially, so both loops stop one short.
    for j in range(2, n + 1):
        cv = cw = 0
        for i in range(n - 1):
            if vim[i] >= j:
                cv += 1
            if wim[i] >= j:
                cw += 1
            if cv > cw:
                return False
    return True


def _upper_covers(images: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The image tuple of each u * t_ab that covers u in the Bruhat order, by positions
    (a, b): u(a) < u(b) and no position between a and b holds a value between them."""
    n = len(images)
    for a in range(n - 1):
        # the least value above u(a) seen so far between a and b
        least = n + 1
        for b in range(a + 1, n):
            if images[a] < images[b] < least:
                least = images[b]
                upper = list(images)
                upper[a], upper[b] = images[b], images[a]
                yield tuple(upper)


def permuted_bruhat_leq(v: Permutation, w: Permutation, gamma: Permutation) -> bool:
    """The gamma-permuted Bruhat order: v <=_gamma w iff gamma^{-1}v <= gamma^{-1}w."""
    if not (v.n == w.n == gamma.n):
        raise InvalidInputError("rank mismatch in permuted Bruhat comparison")
    ginv = [0] * gamma.n
    for pos, val in enumerate(gamma.images, start=1):
        ginv[val - 1] = pos
    return _rank_leq([ginv[a - 1] for a in v.images], [ginv[a - 1] for a in w.images])


@functools.cache
def _lex_permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic one-line order.

    Each rank's permutations are built once; every call iterates the same
    objects.

    >>> [p.images for p in all_permutations(2)]
    [(1, 2), (2, 1)]
    """
    _check_rank(n)
    if n > MAX_ENUMERATION_RANK:
        raise LimitExceededError(f"rank {n} exceeds the enumeration bound {MAX_ENUMERATION_RANK}")
    return iter(_lex_permutations(n))


def act_on_weights(gamma: Permutation, values: Sequence[_T]) -> tuple[_T, ...]:
    """Left Weyl action on coordinate vectors: result[i] = values[gamma^{-1}(i)].

    >>> act_on_weights(Permutation((2, 1, 3)), (1, 0, -1))
    (0, 1, -1)
    """
    if gamma.n != len(values):
        raise InvalidInputError(f"rank mismatch: {gamma.n} vs {len(values)}")
    out: list[_T] = [values[0]] * gamma.n
    for j, val in enumerate(values):
        out[gamma.images[j] - 1] = val
    return tuple(out)
