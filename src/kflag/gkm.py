"""Localization at the torus-fixed points of the flag variety.

A class restricts to the fixed point indexed by z through the substitution
x_i -> y_{z(i)} (the y-variables are untouched). Support membership is
decided modulo the determinant relation y_1 ... y_n = 1. The module also
runs the exhaustive support/interval sweep and decomposes localized
classes in a permuted Grothendieck basis by a triangular solve.

Every route that needs f at all n! points (support, restrict_all,
decompose, recompose) walks S_n once over packed integer keys. A monomial
packs into sum_j e_j * B^(j-1) over its y-exponents, with the x-exponents
not yet substituted in the digits above; modulo the determinant relation,
y_n -> (y_1 ... y_{n-1})^-1 gives slot n the weight -(1 + B + ... + B^(n-2)).
B is a power of two above 8M, M the largest |exponent| of f: a restricted
exponent is at most 2M in size (4M after the determinant shift), so every
balanced digit lies inside (-B/2, B/2) and the packing is injective. By
linearity, x_i -> y_j adds alpha_i * (W_y[j] - W_x[i]) to each key, one
C-level pass per step. The walk fixes z(1), z(2), ... depth first in
increasing order (lexicographic order of z, shared prefixes), and merges
equal keys before each branching, so terms that cancel early (the top
class once z(1) != 1) leave the walk. ``restrict(f, z)`` substitutes at
one point and is the oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    LimitExceededError,
    NotDivisibleError,
    NotInSpanError,
)
from .groth import grothendieck, permuted_grothendieck
from .laurent import LaurentPoly, canonical_zero_test, exact_div
from .perm import Permutation, all_permutations, bruhat_leq

#: Ceiling for the exhaustive support sweep.
MAX_SWEEP_RANK = 5

SupportSet = frozenset[Permutation]


def restrict(f: LaurentPoly, z: Permutation) -> LaurentPoly:
    """Restrict a class at the fixed point z: substitute x_i -> y_{z(i)}.

    >>> from .groth import top
    >>> restrict(top(2), Permutation((2, 1))).is_zero
    True
    """
    if z.n != f.n:
        raise InvalidInputError(f"rank mismatch: {f.n} vs {z.n}")
    n = f.n
    zpos = [v - 1 for v in z.images]
    out: dict[tuple[int, ...], int] = {}
    zeros = (0,) * n
    for key, c in f.terms.items():
        yexp = list(key[n:])
        for i in range(n):
            a = key[i]
            if a:
                yexp[zpos[i]] += a
        k2 = zeros + tuple(yexp)
        s = out.get(k2, 0) + c
        if s:
            out[k2] = s
        else:
            out.pop(k2, None)
    return LaurentPoly._raw(n, out)


def _packing_base(f: LaurentPoly) -> int:
    """The packing base B: the least power of two above 8 * (max |exponent| of f)."""
    keys = f.terms
    m = max(max(map(max, keys)), -min(map(min, keys))) if keys else 0
    return 1 << (8 * m).bit_length()


def _sums(keys: Sequence[int], coeffs: Sequence[int]) -> dict[int, int]:
    acc: dict[int, int] = {}
    get = acc.get
    for k, c in zip(keys, coeffs):
        acc[k] = get(k, 0) + c
    return acc


def _packed_restrictions(f: LaurentPoly, det: bool) -> Iterator[tuple[list[int], list[int]]]:
    """(keys, coeffs) for every z in S_n, in lexicographic order of z.

    The restriction of f at z (with det, modulo the determinant relation) is
    the sum of coeffs[t] * y^e over t, where keys[t] packs e. Equal keys may
    repeat. The lists are shared between points and must not be changed.
    """
    n = f.n
    b = _packing_base(f)
    ydigits = n - 1 if det else n
    yweights = [b**j for j in range(n)]
    if det:
        yweights[-1] = -sum(yweights[:-1])
    xweights = [b ** (ydigits + i) for i in range(n)]
    terms = list(f.terms)
    packed = [0] * len(terms)
    for slot, wt in enumerate(xweights + yweights):
        col = list(map(itemgetter(slot), terms))
        if wt and any(col):
            packed = list(map(add, packed, map(mul, col, repeat(wt))))
    xcols = [list(map(itemgetter(i), terms)) for i in range(n)]

    def walk(keys, coeffs, xcols, free):
        if not free:
            yield keys, coeffs
            return
        if len(free) > 1:
            # terms with equal keys agree at every point below: merge them
            acc = _sums(keys, coeffs)
            live = [k for k, c in acc.items() if c]
            if len(live) < len(keys):
                where = dict(zip(keys, count()))
                rows = list(map(where.__getitem__, live))
                coeffs = list(map(acc.__getitem__, live))
                xcols = [list(map(col.__getitem__, rows)) for col in xcols]
                keys = live
        col, rest = xcols[0], xcols[1:]
        moves, xw = any(col), xweights[n - len(free)]
        for j in free:
            # x_i -> y_j moves the x_i exponent from its x digit to y digit j
            child = keys
            if moves:
                child = list(map(add, keys, map(mul, col, repeat(yweights[j - 1] - xw))))
            yield from walk(child, coeffs, rest, [v for v in free if v != j])

    return walk(packed, list(f.terms.values()), xcols, list(range(1, n + 1)))


def _nonzero_at(keys: Sequence[int], coeffs: Sequence[int]) -> bool:
    """Whether the packed restriction at one fixed point has a nonzero coefficient;
    support makes one call per point."""
    return any(_sums(keys, coeffs).values())


def _restrictions(f: LaurentPoly) -> Iterator[LaurentPoly]:
    """restrict(f, z) for every z in S_n, in lexicographic order.

    Each distinct packed key is decoded into its exponent tuple once per call.
    """
    n = f.n
    b = _packing_base(f)
    half, shift = b >> 1, b.bit_length() - 1
    zeros = (0,) * n
    decoded: dict[int, tuple[int, ...]] = {}

    def decode(k: int) -> tuple[int, ...]:
        digits = []
        for _ in range(n):
            d = ((k + half) & (b - 1)) - half  # the balanced digit
            digits.append(d)
            k = (k - d) >> shift
        return zeros + tuple(digits)

    for keys, coeffs in _packed_restrictions(f, False):
        out = {}
        for k, c in _sums(keys, coeffs).items():
            if c:
                key = decoded.get(k)
                if key is None:
                    key = decoded[k] = decode(k)
                out[key] = c
        yield LaurentPoly._raw(n, out)


@dataclass
class RestrictionClass:
    """A class in the localization model: one y-only polynomial per fixed point."""

    n: int
    entries: dict[Permutation, LaurentPoly]

    def __post_init__(self) -> None:
        expected = {w for w in all_permutations(self.n)}
        if set(self.entries) != expected:
            raise InvalidInputError(
                f"restriction class must have one entry per element of S_{self.n}"
            )
        for z, poly in self.entries.items():
            if poly.n != self.n:
                raise InvalidInputError(f"entry at {z} has rank {poly.n}, expected {self.n}")
            if not poly.is_y_only():
                raise InvalidInputError(f"entry at {z} involves x-variables")

    @classmethod
    def _raw(cls, n: int, entries: dict[Permutation, LaurentPoly]) -> "RestrictionClass":
        # internal: takes entries the library just built (one y-only poly of
        # rank n per point of S_n) without checking them again
        self = object.__new__(cls)
        self.n = n
        self.entries = entries
        return self


def restrict_all(f: LaurentPoly) -> RestrictionClass:
    """Restrict at every fixed point of S_n."""
    return RestrictionClass._raw(f.n, dict(zip(all_permutations(f.n), _restrictions(f))))


def support(f: LaurentPoly) -> SupportSet:
    """Fixed points where the restriction of f is nonzero modulo the determinant relation."""
    walk = zip(all_permutations(f.n), _packed_restrictions(f, True))
    return frozenset(z for z, (keys, coeffs) in walk if _nonzero_at(keys, coeffs))


# -- exhaustive support sweep ---------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    z: tuple[int, ...]
    restriction_nonzero: bool
    in_interval: bool


@dataclass(frozen=True)
class PairCheck:
    w: tuple[int, ...]
    gamma: tuple[int, ...]
    passed: bool
    support: tuple[tuple[int, ...], ...]
    interval: tuple[tuple[int, ...], ...]
    counterexamples: tuple[Counterexample, ...] = ()

    def to_json_obj(self) -> dict:
        obj = {
            "w": list(self.w),
            "gamma": list(self.gamma),
            "pass": self.passed,
            "support": [list(z) for z in self.support],
            "bruhat_interval": [list(z) for z in self.interval],
        }
        if self.counterexamples:
            obj["counterexamples"] = [
                {
                    "z": list(ce.z),
                    "restriction_nonzero": ce.restriction_nonzero,
                    "in_interval": ce.in_interval,
                }
                for ce in self.counterexamples
            ]
        return obj


@dataclass
class SweepReport:
    n: int
    checks: list[PairCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[PairCheck]:
        return [check for check in self.checks if not check.passed]

    def to_json_obj(self) -> list[dict]:
        return [check.to_json_obj() for check in self.checks]

    def summary(self) -> str:
        bad = len(self.failures())
        if bad:
            return f"checked {len(self.checks)} pairs: {bad} failures"
        return f"checked {len(self.checks)} pairs: all pass"


def _compare_support_interval(
    w: tuple[int, ...],
    gamma: tuple[int, ...],
    supp: tuple[tuple[int, ...], ...],
    interval: tuple[tuple[int, ...], ...],
    universe: Iterable[tuple[int, ...]],
) -> PairCheck:
    """The PairCheck of (w, gamma); supp and interval are sorted tuples, and
    the counterexamples follow the order of universe."""
    if supp == interval:
        return PairCheck(w, gamma, True, supp, interval)
    supp_set, int_set = set(supp), set(interval)
    ces = tuple(
        Counterexample(z, z in supp_set, z in int_set)
        for z in universe
        if (z in supp_set) != (z in int_set)
    )
    return PairCheck(w, gamma, False, supp, interval, ces)


def _progress(done: int, total: int) -> None:
    print(f"[verify] {done}/{total} pairs checked", file=sys.stderr, flush=True)


def verify_support_theorem(n: int) -> SweepReport:
    """Exhaustively compare supports with permuted Bruhat intervals over S_n x S_n.

    For every pair (w, gamma) the support of the permuted class of (w, gamma)
    is compared against {v : v <=_gamma w}. The report lists both sets for
    every pair; mismatches carry per-point counterexample certificates.

    The sweep is serial and S_n-equivariant: with u = gamma^{-1}w, the
    support of G_u and the interval [e, u] are computed once per u and
    left-multiplied by gamma, by restrict(permute_y(gamma, f), z) =
    permute_y(gamma, restrict(f, gamma^{-1}z)) and the S_n-invariance of the
    determinant relation.
    """
    if n < 1:
        raise InvalidInputError(f"rank must be positive, got {n}")
    if n > MAX_SWEEP_RANK:
        raise LimitExceededError(f"rank {n} exceeds the sweep bound {MAX_SWEEP_RANK}")
    perms = list(all_permutations(n))
    # points[i] is the i-th permutation in lexicographic order, so sorting
    # indices sorts the tuples; every tuple in the report is one of these
    points = [p.images for p in perms]
    index = {z: i for i, z in enumerate(points)}
    # left[g][i] is the index of points[g] * points[i]
    left = [[index[tuple(g[v - 1] for v in z)] for z in points] for g in points]
    inv = [index[g.inverse().images] for g in perms]
    base_support = [
        [index[z.images] for z in support(grothendieck(u))] for u in perms
    ]
    base_interval = [
        [i for i, p in enumerate(perms) if bruhat_leq(p, u)] for u in perms
    ]
    total = len(points) ** 2
    step = 2000
    checks: list[PairCheck] = []
    for w in range(len(points)):
        for g in range(len(points)):
            u = left[inv[g]][w]
            lg = left[g]
            # from lists: tuple() of a generator resizes, and the peak RSS rose
            supp = tuple([points[i] for i in sorted(lg[i] for i in base_support[u])])
            interval = tuple([points[i] for i in sorted(lg[i] for i in base_interval[u])])
            checks.append(
                _compare_support_interval(points[w], points[g], supp, interval, points)
            )
            if len(checks) % step == 0:
                _progress(len(checks), total)
    return SweepReport(n, checks)


# -- decomposition in a permuted Grothendieck basis -----------------------------


def decompose(alpha: RestrictionClass, gamma: Permutation) -> dict[Permutation, LaurentPoly]:
    """Coefficients a_w with alpha = sum_w a_w * (localized class of (w, gamma)).

    The basis class of (w, gamma) vanishes outside {z : z <=_gamma w} and is
    nonzero at z = w, so processing w by descending length of gamma^{-1}w
    makes the system triangular: at each step only already-solved
    coefficients contribute, and a_w is the exact quotient of the running
    residue at w by the diagonal restriction. A failed division means alpha
    is not a Laurent-coefficient combination of the basis.
    """
    if gamma.n != alpha.n:
        raise InvalidInputError(f"rank mismatch: {alpha.n} vs {gamma.n}")
    n = alpha.n
    perms = list(all_permutations(n))
    ginv = gamma.inverse()
    order = sorted(perms, key=lambda w: (-(ginv * w).length(), w.images))
    residue = {z: alpha.entries[z] for z in perms}
    coeffs: dict[Permutation, LaurentPoly] = {}
    for w in order:
        res_w = residue[w]
        if res_w.is_zero:
            coeffs[w] = LaurentPoly.zero(n)
            continue
        rows = dict(zip(perms, _restrictions(permuted_grothendieck(w, gamma))))
        try:
            a_w = exact_div(res_w, rows[w])
        except NotDivisibleError as exc:
            raise NotInSpanError(
                f"residue at {w} is not divisible by the diagonal restriction"
            ) from exc
        coeffs[w] = a_w
        for z, rz in rows.items():
            if not rz.is_zero:
                residue[z] = residue[z] - a_w * rz
    for z in perms:
        if not canonical_zero_test(residue[z]):
            raise InternalInvariantError(f"nonzero residue left at {z} after the solve")
    return coeffs


def recompose(
    coeffs: Mapping[Permutation, LaurentPoly], gamma: Permutation, n: int
) -> RestrictionClass:
    """Assemble sum_w a_w * (localized class of (w, gamma)) from a coefficient map."""
    if gamma.n != n:
        raise InvalidInputError(f"rank mismatch: {n} vs {gamma.n}")
    perms = list(all_permutations(n))
    entries = {z: LaurentPoly.zero(n) for z in perms}
    for w in sorted(coeffs, key=lambda p: p.images):
        c = coeffs[w]
        if c.n != n:
            raise InvalidInputError(f"coefficient at {w} has rank {c.n}, expected {n}")
        if not c.is_y_only():
            raise InvalidInputError(f"coefficient at {w} involves x-variables")
        if c.is_zero:
            continue
        for z, rz in zip(perms, _restrictions(permuted_grothendieck(w, gamma))):
            if not rz.is_zero:
                entries[z] = entries[z] + c * rz
    return RestrictionClass._raw(n, entries)
