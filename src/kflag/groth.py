"""Top, double, and permuted double Grothendieck polynomials.

The top class is G_id(x, y) = prod_{i<j} (1 - y_j/x_i). For w in S_n the
class G_w is obtained by applying the isobaric operator word of w^{-1} to
the top class; the gamma-permuted class is G_w with gamma^{-1}w in place of
w and the y-variables relabeled by gamma.

Plain classes are cached by the image tuple of w, which also fixes the
rank. The cache is filled along canonical reduced words, so exhaustive
sweeps over S_n share every intermediate operator application; permuted
classes are never stored, they are y-relabelings of cached plain classes.
Cached values are treated as immutable.

Every monomial of every G_w in S_n is a monomial of top(n) (the pipe-dream
formula of Fomin-Kirillov and Knutson-Miller). A key pool beside the cache
maps each key tuple of the cached classes to itself: top(n) seeds it when it
enters the cache, and ``pi`` stores each key it adds to a class as the
pool's tuple. So a full S_n table holds one tuple per monomial of top(n)
(15,944 at rank 6). ``clear_cache`` clears the cache and the pool together.
"""

from __future__ import annotations

from .ddo import pi
from .errors import InvalidInputError, LimitExceededError
from .laurent import LaurentPoly, permute_y
from .perm import Permutation, _check_rank


#: Ceiling for building classes: top(7) has 484,912 terms, top(8) does not fit in 2 GB.
MAX_CLASS_RANK = 7

_CACHE: dict[tuple[int, ...], LaurentPoly] = {}
_KEY_POOL: dict[tuple[int, ...], tuple[int, ...]] = {}


def top(n: int) -> LaurentPoly:
    """The top class prod_{i<j} (1 - y_j/x_i), expanded to canonical form.

    >>> str(top(2))
    '1 - y2*x1^-1'
    """
    _check_rank(n)
    if n > MAX_CLASS_RANK:
        raise LimitExceededError(f"rank {n} exceeds the class bound {MAX_CLASS_RANK}")
    terms = {(0,) * (2 * n): 1}
    for i in range(n):
        for j in range(i + 1, n):
            # terms * (1 - y_j/x_i) = terms - (terms shifted by y_j/x_i), 0-based i, j.
            # Nothing cancels: every coefficient has the sign (-1)^(y-degree),
            # so a shifted -c has the sign of the term already at its key.
            out = dict(terms)
            get = out.get
            for key, c in terms.items():
                k = list(key)
                k[i] -= 1
                k[n + j] += 1
                nk = tuple(k)
                out[nk] = get(nk, 0) - c
            terms = out
    return LaurentPoly._raw(n, terms)


def grothendieck(w: Permutation) -> LaurentPoly:
    """The double Grothendieck polynomial of w (operator word of w^{-1} on the top class)."""
    images = w.images
    cached = _CACHE.get(images)
    if cached is not None:
        return cached
    a = next((i for i in range(1, w.n) if images[i - 1] > images[i]), None)
    if a is None:
        value = top(w.n)
        _KEY_POOL.update(zip(value.terms, value.terms))
    else:
        # peeling the smallest right descent follows the canonical reduced
        # word of w^{-1}, so cached and word-built values agree bit-exactly
        value = pi(a, grothendieck(w * Permutation.simple(w.n, a)), _KEY_POOL)
    _CACHE[images] = value
    return value


def permuted_grothendieck(w: Permutation, gamma: Permutation) -> LaurentPoly:
    """The gamma-permuted class; equals the operator word of w^{-1}gamma applied
    to the gamma-relabeled top class.

    Computed as the y-relabeling by gamma of the plain class of gamma^{-1}w,
    which is the same polynomial because the operators only touch the
    x-variables; this keeps one shared cache across all gamma.
    """
    if w.n != gamma.n:
        raise InvalidInputError(f"rank mismatch: {w.n} vs {gamma.n}")
    return permute_y(gamma, grothendieck(gamma.inverse() * w))


def clear_cache() -> None:
    _CACHE.clear()
    _KEY_POOL.clear()
