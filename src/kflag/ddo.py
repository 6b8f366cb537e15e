"""Divided difference operators on the Laurent ring.

``delta(i, f) = (f - s_i f) / (x_i - x_{i+1})`` where s_i swaps x_i and
x_{i+1}; the isobaric variant is ``pi(i, f) = delta(i, x_i * f)``. Both act
one monomial at a time by the closed formula of Lascoux-Schuetzenberger,
with no polynomial division: for a term c * x^alpha * y^beta let
a = alpha_i + s and b = alpha_{i+1}, with s = 1 for pi_i and s = 0 for
delta_i. The term maps to

* ``sum_{k=b}^{a-1} c * x_i^k * x_{i+1}^(a+b-1-k)`` (other exponents kept) if a > b,
* 0 if a = b,
* minus the mirrored sum ``sum_{k=a}^{b-1}`` if a < b,

which holds for negative exponents too. Operator words apply their
rightmost letter first, so ``pi_word(w, f)`` with the canonical reduced
word (i_1, ..., i_l) of w computes pi_{i_1}(pi_{i_2}(... pi_{i_l}(f) ...));
the result is independent of the choice of reduced word.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidInputError
from .laurent import LaurentPoly
from .perm import Permutation, canonical_reduced_word


def _divided_difference(i: int, f: LaurentPoly, shift: int) -> LaurentPoly:
    # delta_i(x_i^shift * f), term by term by the closed formula above
    if not 1 <= i <= f.n - 1:
        raise InvalidInputError(f"operator index {i} out of range for rank {f.n}")
    lo = i - 1
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for key, c in f.terms.items():
        a = key[lo] + shift
        b = key[i]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        head, tail, total = key[:lo], key[i + 1:], a + b - 1
        for k in range(b, a):
            nk = head + (k, total - k) + tail
            s = get(nk, 0) + c
            if s:
                out[nk] = s
            else:
                del out[nk]
    return LaurentPoly._raw(f.n, out)


def delta(i: int, f: LaurentPoly) -> LaurentPoly:
    """Divided difference: (f - s_i f) / (x_i - x_{i+1}), by the closed formula.

    >>> str(delta(1, LaurentPoly.x(2, 1) * LaurentPoly.x(2, 1)))
    'x1 + x2'
    """
    return _divided_difference(i, f, 0)


def pi(i: int, f: LaurentPoly) -> LaurentPoly:
    """Isobaric divided difference: delta(i, x_i * f). Idempotent.

    >>> str(pi(1, LaurentPoly.monomial(2, 1, (0, -1))))
    'x2^-1 + x1^-1'
    """
    return _divided_difference(i, f, 1)


def apply_pi_word(letters: Iterable[int], f: LaurentPoly) -> LaurentPoly:
    """Apply pi operators along an explicit word, rightmost letter first."""
    for i in reversed(tuple(letters)):
        f = pi(i, f)
    return f


def pi_word(w: Permutation, f: LaurentPoly) -> LaurentPoly:
    """Apply the operator word of w (via its canonical reduced word) to f."""
    if w.n != f.n:
        raise InvalidInputError(f"rank mismatch: {w.n} vs {f.n}")
    return apply_pi_word(canonical_reduced_word(w), f)
