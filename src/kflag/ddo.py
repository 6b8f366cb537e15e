"""Divided difference operators on the Laurent ring.

``delta(i, f) = (f - s_i f) / (x_i - x_{i+1})`` where s_i swaps x_i and
x_{i+1}; the isobaric variant is ``pi(i, f) = delta(i, x_i * f)``, so
``delta(i, f) = pi(i, x_i^-1 * f)``. ``pi`` acts one monomial at a time by
the closed formula of Lascoux-Schuetzenberger, with no division: a term
c * x^alpha * y^beta with a = alpha_i and b = alpha_{i+1} maps to

* ``sum_{k=b}^{a} c * x_i^k * x_{i+1}^(a+b-k)`` (other exponents kept) if a >= b,
* 0 if a + 1 = b,
* minus ``sum_{k=a+1}^{b-1}`` of the same summands if a + 1 < b,

which holds for negative exponents too. For a >= b the k = a summand is
the term itself, its fixed summand. The fixed summands go into the output
first, each at its term's own key tuple, and only the summands
k = b .. a - 1 are built, each a tuple of one list per term with its x_i
and x_{i+1} exponents set to k and a + b - k (``delta`` lowers f so too).
Assigning to a key already in a dict keeps the stored tuple. Given a pool
(``groth`` passes its key pool, which maps each key of the cached classes
to itself), a built summand new to the output, also a fixed key that
cancelled and comes back, is stored as the pool's tuple, so the cached
classes keep each monomial as one shared tuple. The terms and their
integer sums are those of the formula; only the dict order differs from
building every summand.

The output is a right-sized copy of the dict ``pi`` fills. That dict grows
by insertion and keeps a slot for each summand that cancelled, so its hash
table can be sized for more terms than it holds (118 of the 720 rank-6
classes on CPython 3.11). ``dict(out)`` repacks it, reusing the stored
hashes, key objects and insertion order; ``out.copy()`` would keep most
such tables as they are (106 of the 118). The cache holds every class, so
the full rank-6 table's term dicts take 18.8 MB instead of 23.6 MB.

``pi`` writes sum |alpha_i + 1 - alpha_{i+1}| summands and refuses more
than ``laurent.MAX_TERMS``: it counts the fixed summands, then each
term's others before it builds them, so x1^(10^9) is refused unexpanded.

Operator words are not built here: ``groth.grothendieck`` applies one
``pi`` per cached step, and the operator-word routes, which apply ``pi``
along a reduced word, rightmost letter first, are test oracles.
"""

from __future__ import annotations

from . import laurent
from .errors import InvalidInputError, LimitExceededError
from .laurent import LaurentPoly


def _check_index(i: int, f: LaurentPoly) -> None:
    if not 1 <= i <= f.n - 1:
        raise InvalidInputError(f"operator index {i} out of range for rank {f.n}")


def _refuse(i: int, written: int) -> None:
    raise LimitExceededError(
        f"the divided difference at i = {i} would write at least {written} terms,"
        f" over the term bound MAX_TERMS = {laurent.MAX_TERMS}"
    )


def delta(i: int, f: LaurentPoly) -> LaurentPoly:
    """Divided difference: (f - s_i f) / (x_i - x_{i+1}), as pi(i, x_i^-1 * f).

    >>> str(delta(1, LaurentPoly.x(2, 1) * LaurentPoly.x(2, 1)))
    'x1 + x2'
    """
    _check_index(i, f)
    lo = i - 1
    lowered = {}
    for key, c in f.terms.items():
        t = list(key)
        t[lo] -= 1
        lowered[tuple(t)] = c
    return pi(i, LaurentPoly._raw(f.n, lowered))


def pi(
    i: int, f: LaurentPoly, pool: dict[tuple[int, ...], tuple[int, ...]] | None = None
) -> LaurentPoly:
    """Isobaric divided difference: delta(i, x_i * f), by the closed formula. Idempotent.

    A summand key new to the output is stored as ``pool.setdefault(key, key)``.

    >>> str(pi(1, LaurentPoly.monomial(2, 1, (0, -1))))
    'x2^-1 + x1^-1'
    """
    _check_index(i, f)
    lo, bound = i - 1, laurent.MAX_TERMS
    terms = f.terms
    # each term with alpha_i >= alpha_{i+1} is its own fixed summand
    out = {key: c for key, c in terms.items() if key[lo] >= key[i]}
    written = len(out)
    if written > bound:
        _refuse(i, written)
    get = out.get
    # an empty dict's get hands every key back: no pool, no interning
    intern = {}.get if pool is None else pool.setdefault
    for key, c in terms.items():
        a, b = key[lo], key[i]
        if a > b:
            start, stop = b, a
        elif a + 1 < b:
            start, stop, c = a + 1, b, -c
        else:
            continue
        written += stop - start
        if written > bound:
            _refuse(i, written)
        total = a + b
        t = list(key)
        for k in range(start, stop):
            t[lo] = k
            t[i] = total - k
            nk = tuple(t)
            s = get(nk)
            if s is None:
                out[intern(nk, nk)] = c
            else:
                s += c
                if s:
                    out[nk] = s
                else:
                    del out[nk]
    # a right-sized copy, not out.copy(): see the module docstring
    return LaurentPoly._raw(f.n, dict(out))
