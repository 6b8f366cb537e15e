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

which holds for negative exponents too. Operator words are not built
here: ``groth.grothendieck`` applies one ``pi`` per cached step, and the
operator-word routes, which apply ``pi`` along a reduced word, rightmost
letter first, are test oracles.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .laurent import LaurentPoly


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
