"""Exact Laurent polynomials in x_1..x_n, y_1..y_n over the integers.

Terms are keyed by the concatenated exponent vector (x exponents, then y
exponents). The canonical term order is descending lexicographic on that
key, so leading terms come first in every rendering and serialization.
Coefficients are arbitrary-precision integers throughout; nothing in this
module (or the package) touches floating point.
"""

from __future__ import annotations

import heapq
import itertools
import re
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter
from typing import Mapping, Sequence

from .errors import InvalidInputError, NotDivisibleError
from .perm import Permutation


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    >>> f = LaurentPoly.x(2, 1) - LaurentPoly.y(2, 2)
    >>> str(f)
    'x1 - y2'
    >>> str(f * f)
    'x1^2 - 2*x1*y2 + y2^2'
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if not isinstance(n, int) or n < 1:
            raise InvalidInputError(f"rank must be a positive integer, got {n!r}")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(key)
                # integers only: a boolean exponent would serialise as true
                if len(key) != 2 * n or not all(type(e) is int for e in key):
                    raise InvalidInputError(f"exponent key {key!r} does not fit rank {n}")
                # a boolean coefficient would serialise as "True"
                if type(coeff) is not int:
                    raise InvalidInputError(f"coefficient {coeff!r} is not an integer")
                if coeff:
                    clean[key] = coeff
        self.n = n
        self.terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        # internal: takes ownership of an already-clean term dict
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: int) -> "LaurentPoly":
        return cls(n, {(0,) * (2 * n): c})

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls.const(n, 1)

    @classmethod
    def x(cls, n: int, i: int) -> "LaurentPoly":
        """The variable x_i."""
        if not 1 <= i <= n:
            raise InvalidInputError(f"x index {i} out of range for rank {n}")
        key = [0] * (2 * n)
        key[i - 1] = 1
        return cls(n, {tuple(key): 1})

    @classmethod
    def y(cls, n: int, i: int) -> "LaurentPoly":
        """The variable y_i."""
        if not 1 <= i <= n:
            raise InvalidInputError(f"y index {i} out of range for rank {n}")
        key = [0] * (2 * n)
        key[n + i - 1] = 1
        return cls(n, {tuple(key): 1})

    @classmethod
    def monomial(
        cls,
        n: int,
        coeff: int,
        xexp: Sequence[int] | None = None,
        yexp: Sequence[int] | None = None,
    ) -> "LaurentPoly":
        xexp = tuple(xexp) if xexp is not None else (0,) * n
        yexp = tuple(yexp) if yexp is not None else (0,) * n
        if len(xexp) != n or len(yexp) != n:
            raise InvalidInputError("exponent vectors must have length n")
        return cls(n, {xexp + yexp: coeff})

    # -- ring structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, int):
            return LaurentPoly.const(self.n, other)
        if isinstance(other, LaurentPoly):
            if other.n != self.n:
                raise InvalidInputError(f"rank mismatch: {self.n} vs {other.n}")
            return other
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for key, c in b.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.n)
            return LaurentPoly._raw(self.n, {k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for k2, c2 in b.items():
            for k1, c1 in a.items():
                key = tuple(map(add, k1, k2))
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return LaurentPoly._raw(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(self.n, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    # -- inspection --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical (descending lex) order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def is_y_only(self) -> bool:
        n = self.n
        return all(not any(key[:n]) for key in self.terms)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.n}, {str(self)!r})"


# -- symmetric building blocks ----------------------------------------------


def elementary_symmetric(i: int, block: str, n: int) -> LaurentPoly:
    """The i-th elementary symmetric polynomial in the x- or y-variables.

    >>> str(elementary_symmetric(2, "x", 3))
    'x1*x2 + x1*x3 + x2*x3'
    """
    if block not in ("x", "y"):
        raise InvalidInputError(f"block must be 'x' or 'y', got {block!r}")
    if not 1 <= i <= n:
        raise InvalidInputError(f"symmetric polynomial index {i} out of range for rank {n}")
    offset = 0 if block == "x" else n
    terms: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations(range(n), i):
        key = [0] * (2 * n)
        for j in combo:
            key[offset + j] = 1
        terms[tuple(key)] = 1
    return LaurentPoly._raw(n, terms)


# -- variable relabelings ----------------------------------------------------


def _slot_getter(sigma: Permutation, offset: int) -> itemgetter:
    """An itemgetter mapping an exponent key to its relabelling by sigma.

    offset 0 relabels the x block and offset n the y block: the exponent of
    the new variable t + 1 is read from slot offset + sigma^{-1}(t + 1) - 1.
    """
    n = sigma.n
    slots = list(range(2 * n))
    slots[offset:offset + n] = [offset + s - 1 for s in sigma.inverse().images]
    return itemgetter(*slots)


def _permute(sigma: Permutation, f: LaurentPoly, offset: int) -> LaurentPoly:
    if sigma.n != f.n:
        raise InvalidInputError(f"rank mismatch: {sigma.n} vs {f.n}")
    if sigma.is_identity():
        return f
    # the relabelling is a bijection on keys, so no two terms merge
    get = _slot_getter(sigma, offset)
    return LaurentPoly._raw(f.n, dict(zip(map(get, f.terms), f.terms.values())))


def permute_x(sigma: Permutation, f: LaurentPoly) -> LaurentPoly:
    """Relabel x_i as x_{sigma(i)}; a ring automorphism."""
    return _permute(sigma, f, 0)


def permute_y(sigma: Permutation, f: LaurentPoly) -> LaurentPoly:
    """Relabel y_i as y_{sigma(i)}; a ring automorphism.

    >>> f = LaurentPoly.x(3, 1) * LaurentPoly.y(3, 1) - LaurentPoly.y(3, 3)
    >>> str(permute_y(Permutation((2, 3, 1)), f))
    'x1*y2 - y1'
    """
    return _permute(sigma, f, f.n)


# -- exact division -----------------------------------------------------------


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The exact quotient f / g in the Laurent ring, if it exists.

    Both operands are shifted by their monomial content so the division
    happens among honest polynomials, where reduction against the lex
    leading term of g terminates; any remainder raises NotDivisibleError.

    No library routine calls it: ``gkm.decompose`` divides by the diagonal
    one binomial at a time. It stays public as the tests' division oracle
    and because the benchmark's ``laurent.exact_div`` span resolves it by
    name.

    >>> x1, x2 = LaurentPoly.x(2, 1), LaurentPoly.x(2, 2)
    >>> str(exact_div(x1 * x1 - x2 * x2, x1 - x2))
    'x1 + x2'
    """
    if f.n != g.n:
        raise InvalidInputError(f"rank mismatch: {f.n} vs {g.n}")
    if g.is_zero:
        raise InvalidInputError("division by the zero polynomial")
    if f.is_zero:
        return LaurentPoly.zero(f.n)
    width = 2 * f.n
    fmin = [min(key[t] for key in f.terms) for t in range(width)]
    gmin = [min(key[t] for key in g.terms) for t in range(width)]
    fpoly = {tuple(e - m for e, m in zip(key, fmin)): c for key, c in f.terms.items()}
    gpoly = {tuple(e - m for e, m in zip(key, gmin)): c for key, c in g.terms.items()}
    glead = max(gpoly)
    gcoeff = gpoly[glead]
    gtail = [(k, c) for k, c in gpoly.items() if k != glead]

    cur = dict(fpoly)
    heap = [tuple(-e for e in k) for k in fpoly]
    heapq.heapify(heap)
    quotient: dict[tuple[int, ...], int] = {}
    while heap:
        k = tuple(-e for e in heapq.heappop(heap))
        c = cur.pop(k, 0)
        if not c:
            continue
        qkey = tuple(a - b for a, b in zip(k, glead))
        if any(e < 0 for e in qkey):
            raise NotDivisibleError("no exact quotient exists")
        qc, rem = divmod(c, gcoeff)
        if rem:
            raise NotDivisibleError("no exact quotient exists")
        quotient[qkey] = quotient.get(qkey, 0) + qc
        for tk, tc in gtail:
            nk = tuple(a + b for a, b in zip(qkey, tk))
            s = cur.get(nk, 0) - qc * tc
            if s:
                if nk not in cur:
                    heapq.heappush(heap, tuple(-e for e in nk))
                cur[nk] = s
            else:
                cur.pop(nk, None)
    shift = tuple(mf - mg for mf, mg in zip(fmin, gmin))
    out = {
        tuple(q + s for q, s in zip(key, shift)): c
        for key, c in quotient.items()
        if c
    }
    return LaurentPoly._raw(f.n, out)


# -- the determinant-relation zero test ---------------------------------------


def canonical_zero_test(f: LaurentPoly) -> bool:
    """Whether a y-only polynomial vanishes modulo (y_1 * ... * y_n - 1).

    Eliminates y_n via y_n -> (y_1 ... y_{n-1})^{-1}, which maps y^e to the
    monomial with exponents e_j - e_n, and checks that the result is
    identically zero; this decides the question because the reduced ring is
    an integral domain.

    >>> n = 3
    >>> det = LaurentPoly(n, {(0, 0, 0, 1, 1, 1): 1}) - 1
    >>> canonical_zero_test(det)
    True
    """
    if not f.is_y_only():
        raise InvalidInputError("canonical zero test applies to y-only polynomials")
    n = f.n
    acc: dict[tuple[int, ...], int] = {}
    for key, c in f.terms.items():
        last = key[-1]
        red = tuple([e - last for e in key[n:]])
        acc[red] = acc.get(red, 0) + c
    return not any(acc.values())


# -- serialization -------------------------------------------------------------


def poly_to_json(f: LaurentPoly) -> list[dict]:
    """JSON term list in the canonical order; coefficients as decimal strings."""
    n = f.n
    return [
        {"coeff": str(c), "x": list(key[:n]), "y": list(key[n:])}
        for key, c in f.sorted_terms()
    ]


def polys_to_json(tree):
    """tree with each LaurentPoly leaf replaced by its poly_to_json term list.

    tree is made of dicts, lists, tuples and plain JSON values; tuples
    become lists.
    """
    if isinstance(tree, LaurentPoly):
        return poly_to_json(tree)
    if isinstance(tree, dict):
        return {k: polys_to_json(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [polys_to_json(v) for v in tree]
    return tree


def write_json(tree, fh) -> None:
    """Write the text of json.dumps(polys_to_json(tree), indent=2) to fh.

    tree holds dicts with string keys, lists, tuples, strings, ints, booleans,
    None and LaurentPoly leaves; a leaf is written from its terms, in
    sorted_terms() order, without building poly_to_json(f). Within one call
    the text after a coefficient is rendered once per exponent key and
    depth, and a list of ints once per value and depth. The text goes to fh
    in batches.

    >>> import io, json
    >>> f = 3 - LaurentPoly.monomial(2, 10**20, (1, 0), (0, -1))
    >>> out = io.StringIO()
    >>> write_json({"poly": f, "k": [1, 2], "zero": LaurentPoly.zero(2)}, out)
    >>> out.getvalue() == json.dumps(
    ...     {"poly": poly_to_json(f), "k": [1, 2], "zero": []}, indent=2)
    True
    """
    parts: list[str] = []
    int_lists: dict[tuple, str] = {}  # (depth, values) -> text
    tails: dict[int, dict] = {}  # depth -> exponent key -> text after the coefficient

    def int_list(values: tuple, d: int) -> str:
        text = int_lists.get((d, values))
        if text is None:
            inner = "\n" + "  " * (d + 1)
            text = "[" + inner + ("," + inner).join(map(int.__repr__, values))
            text = int_lists[d, values] = text + "\n" + "  " * d + "]"
        return text

    def poly_text(f: LaurentPoly, d: int) -> str:
        terms = f.terms
        if not terms:
            return "[]"
        n = f.n
        item, field = "\n" + "  " * (d + 1), "\n" + "  " * (d + 2)
        tail = tails.setdefault(d, {})
        for key in [key for key in terms if key not in tail]:
            tail[key] = (
                f'",{field}"x": {int_list(key[:n], d + 2)},'
                f'{field}"y": {int_list(key[n:], d + 2)}{item}}}'
            )
        head = "{" + field + '"coeff": "'
        body = ("," + item + head).join(
            [f"{terms[key]}{tail[key]}" for key in sorted(terms, reverse=True)]
        )
        return "[" + item + head + body + "\n" + "  " * d + "]"

    def emit(o, d: int) -> None:
        if isinstance(o, str):
            parts.append(encode_basestring_ascii(o))
        elif o is None:
            parts.append("null")
        elif o is True:
            parts.append("true")
        elif o is False:
            parts.append("false")
        elif isinstance(o, int):
            parts.append(int.__repr__(o))
        elif isinstance(o, LaurentPoly):
            parts.append(poly_text(o, d))
        elif isinstance(o, (list, tuple)):
            if not o:
                parts.append("[]")
            elif set(map(type, o)) == {int}:
                parts.append(int_list(tuple(o), d))
            else:
                inner = "\n" + "  " * (d + 1)
                sep = "[" + inner
                for value in o:
                    parts.append(sep)
                    emit(value, d + 1)
                    sep = "," + inner
                    # batches: one write per part is one system call per
                    # part on an unbuffered stream, and large batches raise
                    # the peak (rank-5 presentation: 90 MB with batches of
                    # 256 parts, 290 MB with 8,192)
                    if len(parts) >= 256:
                        fh.write("".join(parts))
                        parts.clear()
                parts.append("\n" + "  " * d + "]")
        elif isinstance(o, dict):
            if not o:
                parts.append("{}")
                return
            inner = "\n" + "  " * (d + 1)
            sep = "{" + inner
            for key, value in o.items():
                parts.append(sep + encode_basestring_ascii(key) + ": ")
                emit(value, d + 1)
                sep = "," + inner
            parts.append("\n" + "  " * d + "}")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    emit(tree, 0)
    fh.write("".join(parts))


def _exponent_vector(value) -> tuple[int, ...]:
    # integers only: a string would split into its digits and a boolean
    # would pass for 0 or 1
    if not isinstance(value, (list, tuple)) or any(type(e) is not int for e in value):
        raise ValueError(f"exponents must be an array of integers, got {value!r}")
    return tuple(value)


def poly_from_json(data: Sequence[Mapping]) -> LaurentPoly:
    """Parse the term-list format; the rank is inferred from the exponent arrays."""
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise InvalidInputError("polynomial JSON must be an array of terms")
    if not data:
        raise InvalidInputError("cannot infer the rank from an empty term list")
    terms: dict[tuple[int, ...], int] = {}
    n = None
    for item in data:
        try:
            xexp = _exponent_vector(item["x"])
            yexp = _exponent_vector(item["y"])
            coeff = item["coeff"]
            # decimal strings only: int() would also read "1_0", " 5" and a bare 7
            if not (isinstance(coeff, str) and re.fullmatch(r"-?[0-9]+", coeff)):
                raise ValueError(f"coefficient {coeff!r} is not a decimal string")
            coeff = int(coeff)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed polynomial term {item!r}") from exc
        if n is None:
            n = len(xexp)
        if len(xexp) != n or len(yexp) != n or n < 1:
            raise InvalidInputError("inconsistent exponent vector lengths")
        key = xexp + yexp
        if key in terms:
            raise InvalidInputError(f"duplicate exponent key {key}")
        if coeff == 0:
            raise InvalidInputError("zero coefficients are not stored")
        terms[key] = coeff
    assert n is not None
    return LaurentPoly._raw(n, terms)


# -- text rendering -------------------------------------------------------------


def _render_factor(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _render_monomial(key: tuple[int, ...], n: int) -> str:
    # positive powers first, then negative ones, x before y in each; "" for 1
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    factors = [_render_factor(v, e) for v, e in zip(names, key) if e > 0]
    factors += [_render_factor(v, e) for v, e in zip(names, key) if e < 0]
    return "*".join(factors)


def render_poly(f: LaurentPoly, memo: dict | None = None) -> str:
    """Human-readable form: terms in canonical order, e.g. ``1 - y3*x1^-1``.

    ``memo`` maps exponent keys to rendered monomials. Calls that share one
    memo render each distinct monomial once.
    """
    if f.is_zero:
        return "0"
    if memo is None:
        memo = {}
    n = f.n
    parts: list[str] = []
    for key, coeff in f.sorted_terms():
        mono = memo.get(key)
        if mono is None:
            mono = memo[key] = _render_monomial(key, n)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)
