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
increasing order (lexicographic order of z, shared prefixes). It is the one
place that merges: each node sums its equal keys once and goes on with the
sums alone once a quarter of its terms merged, so terms that cancel early
(the top class once z(1) != 1) leave the walk. A node with no nonzero
term, or no x-exponent left to substitute, stops; the walk yields it once
with its sums, which every point below it has. restrict_all, decompose and
recompose read each node's sums once, in packed keys, and decode only what
they return; support(f) tests each point. ``restrict(f, z)`` is the oracle.

The sweep and kernel soundness read the support of a plain class G_u
through _coset_support(G_u), which takes any polynomial f and walks one
point per coset of its y-symmetries. It reads them off f: slots j - 1 and
j share a run [a, b) when swapping y_j, y_{j+1} fixes f (one relabel
check _is_permute_y(s_j, f, f) per j). Then f is symmetric
in the y-variables of each run, so z and z with two of the values
a + 1, ..., b swapped lie in the support together.
The walk places each of a + 2, ..., b (the tied values) only after the
value below it, decides each node where it stops by one zero test, and
expands each point found by every order of the values of each run.
support(f) tests every point; it is the oracle of this route.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress, count, islice, permutations, repeat
from math import factorial
from operator import add, countOf, itemgetter, mul
from typing import Iterator, Mapping, Sequence

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    LimitExceededError,
    NotDivisibleError,
    NotInSpanError,
)
from . import laurent
from .groth import grothendieck, permuted_grothendieck
from .laurent import LaurentPoly, _is_permute_y, _max_exponent, _pack_keys
from .perm import Permutation, _check_rank, _upper_covers, all_permutations

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


def _sums(keys: Sequence[int], coeffs: Sequence[int]) -> dict[int, int]:
    acc: dict[int, int] = {}
    get = acc.get
    for k, c in zip(keys, coeffs):
        acc[k] = get(k, 0) + c
    return acc


def _packed_restrictions(
    f: LaurentPoly, det: bool, base: int | None = None, tied: frozenset[int] = frozenset()
) -> Iterator[tuple[tuple[int, ...], list[int], dict[int, int]]]:
    """(prefix, free, sums) once per node where the walk stops, in
    lexicographic order of the points below: factorial(len(free)) of them.

    At every point below the node, prefix (the values placed so far) then an
    order of free (the rest, increasing), the restriction of f (with det,
    modulo the determinant relation) is the sum of c * y^e over the items
    (k, c) of sums, where k packs e; zero coefficients may remain. Each node
    gets a new dict. f's keys are packed once, by laurent._pack_keys. base, if
    given, is a power of two at least the walk's own,
    _solve_base(_max_exponent([f]), n, 0)[1]. With tied, a set of values, the
    walk places a tied value j only after j - 1.
    """
    n = f.n
    b = _solve_base(_max_exponent([f]), n, 0)[1] if base is None else base
    ydigits = n - 1 if det else n
    yweights = [b**j for j in range(n)]
    if det:
        yweights[-1] = -sum(yweights[:-1])
    xweights = [b ** (ydigits + i) for i in range(n)]
    terms = list(f.terms)
    packed = _pack_keys(terms, xweights + yweights)
    xcols = [list(map(itemgetter(i), terms)) for i in range(n)]

    def walk(keys, coeffs, xcols, free, prefix):
        # terms with equal keys agree at every point below: merge them
        sums = _sums(keys, coeffs)
        if not any(sums.values()) or not any(map(any, xcols)):
            # all cancelled, or nothing to substitute: every point below gets these
            yield prefix, free, sums
            return
        live = [k for k, c in sums.items() if c]
        if 4 * len(live) <= 3 * len(keys):
            # compacting costs a pass over every term: it pays once a quarter merged
            where = dict(zip(keys, count()))
            rows = list(map(where.__getitem__, live))
            coeffs = list(map(sums.__getitem__, live))
            xcols = [list(map(col.__getitem__, rows)) for col in xcols]
            keys = live
        col, rest = xcols[0], xcols[1:]
        moves, xw = any(col), xweights[n - len(free)]
        for j in free:
            if j in tied and j - 1 in free:
                continue
            # x_i -> y_j moves the x_i exponent from its x digit to y digit j
            child = keys
            if moves:
                child = list(map(add, keys, map(mul, col, repeat(yweights[j - 1] - xw))))
            yield from walk(child, coeffs, rest, [v for v in free if v != j], prefix + (j,))

    return walk(packed, list(f.terms.values()), xcols, list(range(1, n + 1)), ())


def _nonzero_at(sums: Mapping[int, int]) -> bool:
    """Whether the packed restriction at one fixed point has a nonzero coefficient;
    support makes one call per point, _coset_support one per stopped node."""
    return any(sums.values())


class _YKeys(dict):
    """Packed y-keys at rank n in base b, a power of two: y^e packs as sum_j e_j * b^j
    (j from 0), each e_j a balanced digit in (-b/2, b/2). Maps a key to its exponent
    tuple (zeros, then the n digits), decoding each key on its first lookup."""

    def __init__(self, n: int, b: int):
        super().__init__()
        self.n, self.b = n, b
        self.weights = [b**j for j in range(n)]

    def pack(self, f: LaurentPoly) -> dict[int, int]:
        """The terms of the y-only polynomial f on packed keys."""
        return {sum(map(mul, key[self.n :], self.weights)): c for key, c in f.terms.items()}

    def __missing__(self, k: int) -> tuple[int, ...]:
        n, b = self.n, self.b
        half, shift = b >> 1, b.bit_length() - 1
        digits = [0] * (2 * n)
        rest = k
        for j in range(n, 2 * n):
            d = digits[j] = ((rest + half) & (b - 1)) - half  # the balanced digit
            rest = (rest - d) >> shift
        key = self[k] = tuple(digits)
        return key

    def poly(self, packed: Mapping[int, int]) -> LaurentPoly:
        """The y-only LaurentPoly with these packed terms, zero coefficients left out."""
        return LaurentPoly._raw(self.n, {self[k]: c for k, c in packed.items() if c})


@dataclass
class RestrictionClass:
    """A class in the localization model: one y-only polynomial per fixed point.
    Points may share one entry object (see restrict_all); do not mutate entries."""

    n: int
    entries: dict[Permutation, LaurentPoly]

    def __post_init__(self) -> None:
        if type(self.entries) is not dict:
            raise InvalidInputError(f"entries must be a dict, not {type(self.entries).__name__}")
        if set(self.entries) != set(all_permutations(self.n)):
            raise InvalidInputError(
                f"restriction class must have one entry per element of S_{self.n}"
            )
        for z, poly in self.entries.items():
            if not isinstance(poly, LaurentPoly):
                raise InvalidInputError(f"entry at {z} is not a LaurentPoly")
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
    """Restrict at every fixed point of S_n. Each stopped node's sums are decoded
    once; its points share one LaurentPoly object, which must not be mutated. The
    nonzero sums of the nodes are counted before each is decoded: past
    laurent.MAX_TERMS, the call raises LimitExceededError."""
    ykeys = _YKeys(f.n, _solve_base(_max_exponent([f]), f.n, 0)[1])
    polys, written = [], 0
    for _, free, sums in _packed_restrictions(f, False, ykeys.b):
        written += len(sums) - countOf(sums.values(), 0)
        if written > laurent.MAX_TERMS:
            raise LimitExceededError(
                f"the restrictions would hold at least {written} terms,"
                f" over the term bound MAX_TERMS = {laurent.MAX_TERMS}"
            )
        polys += repeat(ykeys.poly(sums), factorial(len(free)))
    return RestrictionClass._raw(f.n, dict(zip(all_permutations(f.n), polys)))


def support(f: LaurentPoly) -> SupportSet:
    """Fixed points where the restriction of f is nonzero modulo the determinant relation."""
    # one test per point, not per node, until the benchmark counts node tests:
    # bench/test_bench.py pins 6 _nonzero_at calls for G_213 (5 nodes)
    points, found = all_permutations(f.n), []
    for _, free, sums in _packed_restrictions(f, True):
        for z in islice(points, factorial(len(free))):
            if _nonzero_at(sums):
                found.append(z)
    return frozenset(found)


def _coset_support(f: LaurentPoly) -> SupportSet:
    """supp(f) as Permutations of all_permutations(n), walking one point per
    coset of f's y-symmetries: y_j, y_{j+1} share a run when swapping them fixes f."""
    n = f.n
    ends = [j for j in range(1, n) if not _is_permute_y(Permutation.simple(n, j), f, f)]
    runs = list(zip([0, *ends], [*ends, n]))
    tied = frozenset(j for a, b in runs for j in range(a + 2, b + 1))
    # one map of values (indexed by value) per way of permuting the values
    # a + 1, ..., b of each run
    group = [list(range(n + 1))]
    for a, b in runs:
        orders = list(permutations(range(a + 1, b + 1)))
        group = [g[: a + 1] + list(p) + g[b + 1 :] for g in group for p in orders]
    points = []
    for prefix, free, sums in _packed_restrictions(f, True, tied=tied):
        if _nonzero_at(sums):
            # the images of the node under the group: each distinct placed
            # prefix, then every order of the values left
            moved = {tuple(map(g.__getitem__, prefix)): g for g in group}
            for placed, g in moved.items():
                points += [placed + rest for rest in permutations(map(g.__getitem__, free))]
    perm_of = {p.images: p for p in all_permutations(n)}
    return frozenset(map(perm_of.__getitem__, points))


# -- exhaustive support sweep ---------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    w: tuple[int, ...]
    gamma: tuple[int, ...]
    passed: bool
    support: tuple[tuple[int, ...], ...]
    interval: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> dict:
        obj = {
            "w": list(self.w),
            "gamma": list(self.gamma),
            "pass": self.passed,
            "support": [list(z) for z in self.support],
            "bruhat_interval": [list(z) for z in self.interval],
        }
        if self.support != self.interval:
            # the certificate: one object per point where the two sets differ
            supp = set(self.support)
            obj["counterexamples"] = [
                {"z": list(z), "restriction_nonzero": z in supp, "in_interval": z not in supp}
                for z in sorted(supp.symmetric_difference(self.interval))
            ]
        return obj


@dataclass
class SweepReport:
    n: int
    checks: list[PairCheck]

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


def _progress(done: int, total: int) -> None:
    print(f"[verify] {done}/{total} pairs checked", file=sys.stderr, flush=True)


def verify_support_theorem(n: int) -> SweepReport:
    """Exhaustively compare supports with permuted Bruhat intervals over S_n x S_n.

    For every pair (w, gamma) the support of the permuted class of (w, gamma)
    is compared against {v : v <=_gamma w}. The report lists both sets for
    every pair; a mismatch writes the points where they differ as its
    counterexample certificates (see PairCheck.to_json_obj).

    The sweep is serial and S_n-equivariant. With u = gamma^{-1}w, the
    permuted class of (w, gamma) is permute_y(gamma, G_u), so its support is
    gamma * supp(G_u), by restrict(permute_y(gamma, f), z) =
    permute_y(gamma, restrict(f, gamma^{-1}z)) and the S_n-invariance of the
    determinant relation, and its interval is gamma * [e, u]. So supp(G_u)
    is compared with [e, u] once per u, and each pair's verdict is its base's,
    left-multiplied by gamma: the relabelled interval, and on a failing pair
    the relabelled support as well, in lexicographic order of z.

    The intervals [e, u] come from one pass over the covers u * t_ab of
    perm._upper_covers, with no Bruhat test: a cover is lexicographically larger
    than u, so in lexicographic order each u holds all of [e, u] as a bit set
    when it is reached, and ORs it into each of its covers.
    """
    _check_rank(n)
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
    # bit j of below[i]: points[j] <= points[i]; bin() reads the bits back, lowest first
    below = [1 << i for i in range(len(points))]
    for i, u in enumerate(points):
        for upper in _upper_covers(u):
            below[index[upper]] |= below[i]
    # per u: supp(G_u) and [e, u] as sorted indices, and whether they agree
    bases = []
    for u, bits in zip(perms, below):
        supp = sorted(index[z.images] for z in _coset_support(grothendieck(u)))
        interval = list(compress(count(), map("1".__eq__, bin(bits)[:1:-1])))
        bases.append((supp, interval, supp == interval))
    total = len(points) ** 2
    step = 2000
    checks: list[PairCheck] = []
    for w in range(len(points)):
        for g in range(len(points)):
            supp, interval, passed = bases[left[inv[g]][w]]
            lg = left[g].__getitem__
            # from lists: tuple() of a generator resizes, and the peak RSS rose
            shown = tuple([points[i] for i in sorted(map(lg, interval))])
            shown_supp = shown if passed else tuple([points[i] for i in sorted(map(lg, supp))])
            checks.append(PairCheck(points[w], points[g], passed, shown_supp, shown))
            if len(checks) % step == 0:
                _progress(len(checks), total)
    return SweepReport(n, checks)


# -- decomposition in a permuted Grothendieck basis -----------------------------


def _solve_base(m: int, n: int, rounds: int) -> tuple[int, int]:
    """(M, B) for a solve at rank n whose input exponents are at most m in
    size and whose products chain through at most `rounds` basis restrictions.

    A restriction of a basis class has every y-exponent in [-(n-1), n-1]: a
    class's y-exponents lie in [0, n-1] and its x-exponents in [-(n-1), 0]
    (those of the top class do, pi_i keeps each exponent of a term between
    the old values of slots i and i+1, and relabelling y moves none), and
    x_i -> y_{z(i)} adds one x-exponent to a y-exponent. So a product with a
    restriction adds at most n - 1 to the largest |exponent|. A quotient by
    (1 - y_b/y_a) puts each term on a segment between two terms of the
    dividend, inside the dividend's Newton polytope, and adds nothing; nor
    does a sum. Every exponent of the solve is therefore at most
    M = m + (n-1) * rounds in size. B is the least power of two above 8M,
    which covers the walk's own base for a basis class and keeps every
    balanced digit inside (-B/2, B/2).
    """
    bound = m + (n - 1) * rounds
    return bound, 1 << (8 * bound).bit_length()


def _add_product(entries: list[dict[int, int]], a: dict[int, int], f: LaurentPoly, b: int) -> None:
    """entries[z] += a * (f at z) for every z in S_n, in lexicographic order, on the y-keys
    of _YKeys(n, b), in place, once per stopped node; entries may be left at 0. A node
    writes len(a) products per nonzero sum at each point below it, counted before it
    writes: past laurent.MAX_TERMS, the one term bound that every product and
    quotient reads, the call raises LimitExceededError."""
    pairs = list(a.items())
    points = iter(entries)
    written = 0
    for _, free, sums in _packed_restrictions(f, False, b):
        below = factorial(len(free))
        written += len(pairs) * (len(sums) - countOf(sums.values(), 0)) * below
        if written > laurent.MAX_TERMS:
            raise LimitExceededError(
                f"a product of {len(pairs)} terms by a class would write at least {written}"
                f" summands, over the term bound MAX_TERMS = {laurent.MAX_TERMS}"
            )
        prods = [(key + k, ca * c) for k, c in sums.items() if c for key, ca in pairs]
        for acc in islice(points, below):
            get = acc.get
            for key, prod in prods:
                acc[key] = get(key, 0) + prod


def _divide_binomial(p: dict[int, int], d: int, span: int) -> dict[int, int]:
    """The quotient of p by (1 - y^e), d the packed key of y^e, on packed keys.

    On each line k + dZ the quotient's coefficient at k is p_k plus its
    coefficient at k - d: one carry pass along the line in the direction of
    d, which must end with no carry. Two keys of a line whose exponents
    differ by more than span along e sit on different lines of exponent
    space that the packing folds together, so no carry may cross that gap.
    A carry fills the gap between two keys; one that would take the
    quotient past laurent.MAX_TERMS terms raises LimitExceededError before it runs.
    """
    step = abs(d)
    lines: dict[int, list[int]] = {}
    for k in sorted(p, reverse=d < 0):
        lines.setdefault(k % step, []).append(k)
    q: dict[int, int] = {}
    for keys in lines.values():
        carry, prev = 0, keys[0]
        for k in keys:
            if carry:
                gap = (k - prev) // d
                if gap > span:
                    raise NotDivisibleError("no exact quotient exists")
                if len(q) + gap - 1 > laurent.MAX_TERMS:
                    raise LimitExceededError(
                        f"a quotient would exceed the term bound MAX_TERMS = {laurent.MAX_TERMS}"
                    )
                for g in range(prev + d, k, d):
                    q[g] = carry
            carry += p[k]
            if carry:
                q[k] = carry
            prev = k
        if carry:
            raise NotDivisibleError("no exact quotient exists")
    return q


def decompose(alpha: RestrictionClass, gamma: Permutation) -> dict[Permutation, LaurentPoly]:
    """Coefficients a_w with alpha = sum_w a_w * (localized class of (w, gamma)).

    The basis class of (w, gamma) vanishes outside {z : z <=_gamma w} and is
    nonzero at z = w, so processing w by descending length of gamma^{-1}w
    makes the system triangular. a_w is the exact quotient of the residue at
    w by the diagonal restriction; a failed division means alpha is not a
    Laurent-coefficient combination of the basis. Step w leaves the residue at
    w exactly 0, and later steps write only below their own points, so every
    residue ends exactly 0, with no appeal to the determinant relation.

    The solve runs on packed y-keys with one base for the call and decodes
    only the coefficients. The diagonal restriction is the product over
    i < j with u(i) < u(j), u = gamma^{-1}w, of (1 - y_{w(j)}/y_{w(i)})
    (Kostant-Kumar), so the residue is divided by it one binomial at a time.
    For the base: the restriction of the class of (w, gamma) at z is exactly
    0 unless z <=_gamma w, so every product that reaches the residue at z
    comes from a w of greater length, and by induction down the order a_w
    and the residue at w have exponents at most m + (n-1) * h in size, h
    the number of lengths above gamma^{-1}w. Products with a_w add one more
    n - 1, so n(n-1)/2 + 1 rounds of _solve_base bound the whole solve.
    """
    if gamma.n != alpha.n:
        raise InvalidInputError(f"rank mismatch: {alpha.n} vs {gamma.n}")
    n = alpha.n
    perms = list(all_permutations(n))
    polys = [alpha.entries[z] for z in perms]
    bound, b = _solve_base(_max_exponent(polys), n, n * (n - 1) // 2 + 1)
    ykeys = _YKeys(n, b)
    residue = list(map(ykeys.pack, polys))
    ginv = gamma.inverse().images
    diagonal = []
    for w in perms:
        u = [ginv[v - 1] for v in w.images]
        diagonal.append([
            ykeys.weights[w.images[j] - 1] - ykeys.weights[w.images[i] - 1]
            for i in range(n) for j in range(i + 1, n) if u[i] < u[j]
        ])
    coeffs: dict[Permutation, LaurentPoly] = {}
    # fewest binomials first is descending length of gamma^{-1}w
    for i in sorted(range(len(perms)), key=lambda i: (len(diagonal[i]), i)):
        w = perms[i]
        q = {k: c for k, c in residue[i].items() if c}
        if not q:
            coeffs[w] = LaurentPoly.zero(n)
            continue
        try:
            for d in diagonal[i]:
                q = _divide_binomial(q, d, 2 * bound)
        except NotDivisibleError as exc:
            raise NotInSpanError(
                f"residue at {w} is not divisible by the diagonal restriction"
            ) from exc
        _add_product(residue, {k: -c for k, c in q.items()}, permuted_grothendieck(w, gamma), b)
        coeffs[w] = ykeys.poly(q)
    for z, res in zip(perms, residue):
        if any(res.values()):
            raise InternalInvariantError(f"nonzero residue left at {z} after the solve")
    return coeffs


def recompose(
    coeffs: Mapping[Permutation, LaurentPoly], gamma: Permutation, n: int
) -> RestrictionClass:
    """Assemble sum_w a_w * (localized class of (w, gamma)) from a coefficient map.

    The sums run on packed y-keys with one base for the call (_solve_base,
    one round); only the entries are decoded.
    """
    if gamma.n != n:
        raise InvalidInputError(f"rank mismatch: {n} vs {gamma.n}")
    items = []
    for w in sorted(coeffs, key=lambda p: p.images):
        c = coeffs[w]
        if c.n != n:
            raise InvalidInputError(f"coefficient at {w} has rank {c.n}, expected {n}")
        if not c.is_y_only():
            raise InvalidInputError(f"coefficient at {w} involves x-variables")
        if not c.is_zero:
            items.append((w, c))
    _, b = _solve_base(_max_exponent(c for _, c in items), n, 1)
    ykeys = _YKeys(n, b)
    perms = list(all_permutations(n))
    entries: list[dict[int, int]] = [{} for _ in perms]
    for w, c in items:
        _add_product(entries, ykeys.pack(c), permuted_grothendieck(w, gamma), b)
    return RestrictionClass._raw(n, {z: ykeys.poly(acc) for z, acc in zip(perms, entries)})
