"""The weight-variety layer.

A generic orbit is pinned by a strictly decreasing zero-sum rational vector
lam; the reduction level mu is another zero-sum rational vector. The fixed
point indexed by w sits over the permuted vector lam_w. Tail-sum
functionals eta_k^gamma cut out half-spaces through mu; the kernel of the
reduction map is generated by the operator classes of all (v, gamma) whose
lam tail sum drops below the mu tail sum for some cut position k. The
presentation assembles those generators with the symmetric-difference
ideal and the determinant relation.

Each generator relabels a base class: its class is permute_y(gamma, G_{v^-1})
and its support gamma * supp(G_{v^-1}), so soundness needs one support per v,
walked over the cosets of v's descent runs (gkm._class_support), and one
largest lam tail per (v, k), checked once per witness.
G_{v^-1} is symmetric in y_j, y_{j+1} exactly when v(j) > v(j+1), so the
generators of one v whose gammas differ by those s_j share one polynomial,
and soundness checks that polynomial against its class once per coset.
kernel_generators builds one term dict per such coset. It splits each
distinct key of the base classes into its x part and its y part, relabels
each distinct y part once per gamma and builds each relabelled key once, so
its generators share their key tuples: at rank 5 the 105 base classes hold
776 distinct keys over 120 x parts and 120 y parts, and the 11,520
generators hold 3,195 distinct polynomials with 455,751 terms (1.09 M
counted per generator) over 9,366 distinct keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count
from operator import add, itemgetter, lt
from typing import Sequence

from .errors import (
    InvalidInputError,
    LimitExceededError,
    NotRegularError,
    SoundnessFailureError,
)
from .gkm import _class_support
from .groth import grothendieck
from .laurent import (
    LaurentPoly,
    _slot_getter,
    elementary_symmetric,
    polys_to_json,
)
from .perm import Permutation, act_on_weights, all_permutations


#: Ceiling for the weight layer: is_regular's certificate can list up to
#: (n!)^2 (n-1) walls (207,360 at rank 6 for mu = 0), and kernel_generators
#: and presentation go through it.
MAX_WEIGHT_RANK = 6

#: Ceiling for kernel_generators and presentation: the staircase rank-6 kernel
#: has 432,000 generators holding about 357 M expanded terms.
MAX_KERNEL_RANK = 5


def _fraction_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


@dataclass(frozen=True)
class WeightVector:
    """An exact rational vector with zero sum (an su(n) weight)."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        try:
            entries = tuple(Fraction(e) for e in self.entries)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot read weight entries {self.entries!r}") from exc
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise InvalidInputError("weight vector must have at least one entry")
        if sum(entries) != 0:
            raise InvalidInputError(f"weight entries must sum to zero, got {entries}")

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        """Parse comma-separated exact rationals such as ``"1/4,1/8,-3/8"``."""
        try:
            entries = tuple(Fraction(part) for part in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse weight vector {text!r}") from exc
        return cls(entries)

    @classmethod
    def staircase(cls, n: int) -> "WeightVector":
        """The strictly decreasing vector (n-1, n-3, ..., 1-n)."""
        return cls(tuple(Fraction(n - 1 - 2 * i) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_generic(self) -> bool:
        """Strictly decreasing entries (pairwise distinct eigenvalues)."""
        return all(a > b for a, b in zip(self.entries, self.entries[1:]))

    def require_generic(self) -> None:
        if not self.is_generic:
            raise InvalidInputError(f"weight vector {self.format()} is not strictly decreasing")

    def format(self) -> str:
        return ",".join(str(e) for e in self.entries)

    def __str__(self) -> str:
        return self.format()


def moment_image(lam: WeightVector, w: Permutation) -> WeightVector:
    """The moment-map image lam_w of the fixed point indexed by w."""
    if lam.n != w.n:
        raise InvalidInputError(f"rank mismatch: {lam.n} vs {w.n}")
    return WeightVector(act_on_weights(w, lam.entries))


def eta_value(gamma: Permutation, k: int, nu: WeightVector) -> Fraction:
    """The tail-sum functional: sum of nu over the slots gamma(k+1), ..., gamma(n).

    >>> eta_value(Permutation((2, 3, 1)), 1, WeightVector.parse("3,1,-4"))
    Fraction(-1, 1)
    """
    if gamma.n != nu.n:
        raise InvalidInputError(f"rank mismatch: {gamma.n} vs {nu.n}")
    if not 1 <= k <= gamma.n - 1:
        raise InvalidInputError(f"cut position {k} out of range for rank {gamma.n}")
    entries = nu.entries
    return sum(
        (entries[gamma.images[i] - 1] for i in range(k, gamma.n)), Fraction(0)
    )


# -- regularity of the reduction level -------------------------------------------


@dataclass(frozen=True)
class WallHit:
    v: Permutation
    gamma: Permutation
    k: int
    value: Fraction

    def to_json_obj(self) -> dict:
        return {
            "v": list(self.v.images),
            "gamma": list(self.gamma.images),
            "k": self.k,
            "value": _fraction_json(self.value),
        }


@dataclass(frozen=True)
class RegularityCertificate:
    regular: bool
    walls: tuple[WallHit, ...]


def _tail_sums(values: Sequence, perms: Sequence[Permutation]) -> list[tuple]:
    # tails[i][k-1] = sum of values over the slots p(k+1), ..., p(n), p = perms[i]
    out = []
    for p in perms:
        # sums[m] is the sum over the last m + 1 slots, so cut k reads sums[n-k-1]
        sums = list(accumulate(values[i - 1] for i in reversed(p.images)))
        out.append(tuple(sums[-2::-1]))
    return out


def _scaled(lam: WeightVector, mu: WeightVector) -> tuple[int, list[int], list[int]]:
    # D * lam and D * mu as integers, D the lcm of all denominators: their
    # tail sums decide the same inequalities as the Fractions
    d = math.lcm(*(e.denominator for e in lam.entries + mu.entries))

    def scaled(vec: WeightVector) -> list[int]:
        return [e.numerator * (d // e.denominator) for e in vec.entries]

    return d, scaled(lam), scaled(mu)


def _regularity(lam: WeightVector, mu: WeightVector) -> tuple:
    """is_regular's certificate, with the permutations and the integer tail
    sums it compared (lists by permutation position), for kernel_generators."""
    if lam.n != mu.n:
        raise InvalidInputError(f"rank mismatch: {lam.n} vs {mu.n}")
    if lam.n > MAX_WEIGHT_RANK:
        raise LimitExceededError(
            f"rank {lam.n} exceeds the weight-layer bound {MAX_WEIGHT_RANK}"
        )
    lam.require_generic()
    perms = list(all_permutations(lam.n))
    d, lam_ints, mu_ints = _scaled(lam, mu)
    lam_tails, mu_tails = _tail_sums(lam_ints, perms), _tail_sums(mu_ints, perms)
    # a wall is a value that a lam tail and a mu tail share at one cut: each
    # cut groups the n! mu positions by value and looks up the n! lam values
    hits = []
    for k in range(lam.n - 1):
        at: dict[int, list[int]] = {}
        for j, t in enumerate(mu_tails):
            at.setdefault(t[k], []).append(j)
        for i, t in enumerate(lam_tails):
            if t[k] in at:
                value = Fraction(t[k], d)
                hits += [(i, j, k + 1, value) for j in at[t[k]]]
    # (i, j, k) is unique, so the sort never compares values
    hits.sort()
    walls = tuple(WallHit(perms[i], perms[j], k, value) for i, j, k, value in hits)
    return RegularityCertificate(not walls, walls), perms, lam_tails, mu_tails


def is_regular(lam: WeightVector, mu: WeightVector) -> RegularityCertificate:
    """Whether mu avoids every wall {tail sum of lam = tail sum of mu}.

    The certificate lists all (v, gamma, k) with
    sum_{i>k} lam_{v(i)} == sum_{i>k} mu_{gamma(i)}; mu is regular iff the
    list is empty. This tail-sum avoidance is the operative definition used
    throughout the module.
    """
    return _regularity(lam, mu)[0]


# -- kernel generators -------------------------------------------------------------


@dataclass(frozen=True)
class KernelGenerator:
    """A qualifying pair (v, gamma) with its witnesses and operator class.

    The polynomial is the operator word of v applied to the top class with
    y-variables relabeled by gamma; witnesses are the cut positions k at
    which the defining strict inequality holds. Generators with equal
    polynomials may share one immutable poly object.
    """

    v: Permutation
    gamma: Permutation
    witnesses: tuple[int, ...]
    poly: LaurentPoly

    def json_tree(self) -> dict:
        """The JSON object with the polynomial left as a LaurentPoly leaf
        (see laurent.write_json)."""
        return {
            "v": list(self.v.images),
            "gamma": list(self.gamma.images),
            "witness_k": list(self.witnesses),
            "poly": self.poly,
        }


def _picker(slots: list[int]):
    """The items at slots of a sequence, as a tuple."""
    if len(slots) == 1:
        # itemgetter of one slot returns the bare item
        (slot,) = slots
        return lambda seq: (seq[slot],)
    return itemgetter(*slots)


def _runs(v: Permutation) -> tuple[tuple[int, int], ...]:
    # the runs of positions that v's descents join: G_{v^-1} is symmetric in
    # y_j, y_{j+1} iff v(j) > v(j+1), so gamma and gamma * s_j give one class
    ends = [e for e in range(1, v.n) if v.images[e - 1] < v.images[e]]
    return tuple(zip([0, *ends], [*ends, v.n]))


def _coset(runs: tuple[tuple[int, int], ...], images: tuple[int, ...]) -> tuple[int, ...]:
    # a coset's key: gamma's images sorted within each run
    return tuple(c for a, b in runs for c in sorted(images[a:b]))


def kernel_generators(lam: WeightVector, mu: WeightVector) -> tuple[KernelGenerator, ...]:
    """All (v, gamma) with sum_{i>k} lam_{v(i)} < sum_{i>k} mu_{gamma(i)} for some k.

    Requires mu regular (wall avoidance) and lam generic; refuses to emit
    anything otherwise. One generator is returned per qualifying pair, with
    every qualifying k recorded, in lexicographic (v, gamma) order. The
    generators of one v whose gammas lie in one coset of the group generated
    by the s_j at v's descents share one poly, built for the first of them.
    """
    # ranks above MAX_WEIGHT_RANK keep the weight-layer message of _regularity
    if MAX_KERNEL_RANK < lam.n <= MAX_WEIGHT_RANK:
        raise LimitExceededError(f"rank {lam.n} exceeds the kernel bound {MAX_KERNEL_RANK}")
    cert, perms, lam_tails, mu_tails = _regularity(lam, mu)
    if not cert.regular:
        raise NotRegularError(
            f"level {mu.format()} lies on {len(cert.walls)} wall(s) for lambda {lam.format()}",
            certificate=cert,
        )
    n = lam.n
    cuts = range(1, n)
    # rows, base classes and coset memos hold positions in perms, so the
    # loops hash no Permutation
    rows = []
    bases: dict[int, LaurentPoly] = {}
    for i, lam_t in enumerate(lam_tails):
        for j, mu_t in enumerate(mu_tails):
            ks = tuple(compress(cuts, map(lt, lam_t, mu_t)))
            if ks:
                rows.append((i, j, ks))
        if rows and rows[-1][0] == i:
            # pi_v of the top class is the plain class of v^{-1}; the
            # operators commute with the y-relabeling by gamma
            bases[i] = grothendieck(perms[i].inverse())
    # a gamma's table holds every distinct base key relabelled by it. A key
    # splits into its x part and its y part, and each distinct y part is
    # relabelled once per gamma; a relabelled key is built once, found by
    # x id + len(xs) * (relabelled y id)
    index = dict(zip(dict.fromkeys(k for f in bases.values() for k in f.terms), count()))
    xs: dict[tuple[int, ...], int] = {}
    ys: dict[tuple[int, ...], int] = {}
    key_x = [xs.setdefault(k[:n], len(xs)) for k in index]
    key_y = [ys.setdefault(k[n:], len(ys)) for k in index]
    x_parts, y_parts, m = list(xs), list(ys), len(xs)
    relabelled: dict[tuple[int, ...], int] = {}
    pool: dict[int, tuple[int, ...]] = {}
    ids, tables = count(), {}
    for j in dict.fromkeys(j for _, j, _ in rows):
        rel = list(map(_picker([s - 1 for s in perms[j].inverse().images]), y_parts))
        rel_ids = list(map(relabelled.setdefault, rel, ids))
        by_id = dict(zip(rel_ids, rel))
        codes = list(map(add, key_x, map([m * r for r in rel_ids].__getitem__, key_y)))
        for c in set(codes).difference(pool):
            pool[c] = x_parts[c % m] + by_id[c // m]
        tables[j] = list(map(pool.__getitem__, codes))
    # the generators of one coset share one class; coset keys are memoised per runs
    cosets: dict[tuple, dict[int, tuple[int, ...]]] = {}
    gens = []
    current = None
    for i, j, ks in rows:
        if i != current:
            current, v, base = i, perms[i], bases[i]
            pick = _picker(list(map(index.__getitem__, base.terms)))
            coeffs = list(base.terms.values())
            runs = _runs(v)
            coset_of = cosets.setdefault(runs, {})
            shared: dict[tuple[int, ...], LaurentPoly] = {}
        coset = coset_of.get(j)
        if coset is None:
            coset = coset_of[j] = _coset(runs, perms[j].images)
        poly = shared.get(coset)
        if poly is None:
            poly = shared[coset] = LaurentPoly._raw(n, dict(zip(pick(tables[j]), coeffs)))
        gens.append(KernelGenerator(v, perms[j], ks, poly))
    return tuple(gens)


# -- soundness certificates ----------------------------------------------------------


@dataclass(frozen=True)
class SoundnessCheck:
    z: Permutation
    k: int
    fixed_point_value: Fraction
    level_value: Fraction


@dataclass(frozen=True)
class SoundnessCertificate:
    """One check per witness k of the generator, in witness order, at the
    worst support point: the least z whose lam value at k is the largest."""

    generator: KernelGenerator
    checks: tuple[SoundnessCheck, ...]


def kernel_soundness(
    gens: Sequence[KernelGenerator], lam: WeightVector, mu: WeightVector
) -> tuple[SoundnessCertificate, ...]:
    """Certify that each generator's support lies strictly inside its half-spaces.

    A poly other than permute_y(gamma, G_{v^-1}) raises SoundnessFailureError,
    so a certificate covers gen.poly only as the class of (v, gamma). At
    z = gamma * p, eta_k^gamma(lam_z) is the lam tail sum over p^-1, which
    does not depend on gamma, so the support lies inside the half-space
    {eta_k^gamma < eta_k^gamma(mu)} exactly when the largest such tail over
    p in supp(G_{v^-1}) falls below the mu tail sum over gamma. That maximum
    is taken once per (v, k). Each witness k gets one check at its worst
    point, the least z among those attaining the maximum; a violation raises
    SoundnessFailureError naming that (z, k). The inequalities are decided
    on the integer tails of _scaled; the checks carry the exact Fractions.

    The class check runs once per v and coset of gamma, as kernel_generators
    groups them: a generator whose poly is the very object that passed for
    its v and coset shares that class and is not checked again.
    """
    bases: dict[Permutation, tuple[LaurentPoly, list, tuple, dict]] = {}
    # per gamma, the mu tails and their Fractions
    levels: dict[Permutation, tuple[tuple, list[Fraction]]] = {}
    perm_of: dict[tuple[int, ...], Permutation] = {}
    certs = []
    d, lam_ints, mu_ints = _scaled(lam, mu)
    for gen in gens:
        v, gamma = gen.v, gen.gamma
        if {lam.n, mu.n, gamma.n} != {v.n} or not all(0 < k < v.n for k in gen.witnesses):
            raise InvalidInputError("generator does not fit the weight data")
        if v not in bases:
            if not perm_of:
                perm_of = {p.images: p for p in all_permutations(v.n)}
            u = v.inverse()
            base, supp = grothendieck(u), list(_class_support(u))
            # p^-1 lists p's positions in the order of their values
            tails = _tail_sums(lam_ints, [
                perm_of[tuple(map(itemgetter(1), sorted(zip(p.images, count(1)))))]
                for p in supp
            ])
            # per cut, the largest tail, its Fraction and the picks of its
            # points: (gamma * p)(i) = gamma(p(i)), so z is read through p's slots
            tops = []
            for k in range(v.n - 1):
                top = max(t[k] for t in tails)
                worst = [p for p, t in zip(supp, tails) if t[k] == top]
                picks = [_picker([i - 1 for i in p.images]) for p in worst]
                tops.append((top, Fraction(top, d), picks))
            bases[v] = base, tops, _runs(v), {}
        base, tops, runs, checked = bases[v]
        coset = _coset(runs, gamma.images)
        if not (coset in checked and checked[coset] is gen.poly):
            # the relabelling is a bijection on keys, so equal sizes and a match
            # at every relabelled base key mean gen.poly == permute_y(gamma, base)
            terms = gen.poly.terms
            found = list(map(terms.get, map(_slot_getter(gamma, v.n), base.terms)))
            if len(terms) != len(base.terms) or found != list(base.terms.values()):
                raise SoundnessFailureError(f"poly of v={v} gamma={gamma} is not its class")
            checked[coset] = gen.poly
        if gamma not in levels:
            level = _tail_sums(mu_ints, [gamma])[0]
            levels[gamma] = level, [Fraction(t, d) for t in level]
        level, rhs = levels[gamma]
        checks = []
        for k in gen.witnesses:
            top, lhs, picks = tops[k - 1]
            z = perm_of[min([pick(gamma.images) for pick in picks])]
            if not top < level[k - 1]:
                raise SoundnessFailureError(
                    f"support point {z} violates the k={k} inequality: {lhs} >= {rhs[k - 1]}"
                )
            checks.append(SoundnessCheck(z, k, lhs, rhs[k - 1]))
        certs.append(SoundnessCertificate(gen, tuple(checks)))
    return tuple(certs)


def half_space_soundness(
    gen: KernelGenerator, lam: WeightVector, mu: WeightVector
) -> SoundnessCertificate:
    """kernel_soundness of one generator, via supp(permute_y(gamma, f)) = gamma * supp(f);
    it certifies gen.poly only as the class of (v, gamma)."""
    return kernel_soundness((gen,), lam, mu)[0]


# -- the assembled presentation --------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators and relations for the K-theory of the weight variety at (lam, mu).

    Relations: the n symmetric differences e_i(x) - e_i(y), the determinant
    relation y_1 ... y_n - 1, and one operator class per kernel generator.
    """

    n: int
    variables: tuple[str, ...]
    ideal_i: tuple[LaurentPoly, ...]
    det_relation: LaurentPoly
    kernel: tuple[KernelGenerator, ...]

    def json_tree(self) -> dict:
        """The JSON object with the polynomials left as LaurentPoly leaves
        (see laurent.write_json)."""
        return {
            "n": self.n,
            "ideal_I": list(self.ideal_i),
            "det_relation": self.det_relation,
            "kernel": [gen.json_tree() for gen in self.kernel],
        }

    def to_json_obj(self) -> dict:
        return polys_to_json(self.json_tree())


def det_relation(n: int) -> LaurentPoly:
    """y_1 * y_2 * ... * y_n - 1."""
    return LaurentPoly(n, {(0,) * n + (1,) * n: 1}) - 1


def presentation(lam: WeightVector, mu: WeightVector) -> Presentation:
    """Assemble the full generators-and-relations presentation for (lam, mu)."""
    kernel = kernel_generators(lam, mu)
    n = lam.n
    variables = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
    ideal = tuple(
        elementary_symmetric(i, "x", n) - elementary_symmetric(i, "y", n)
        for i in range(1, n + 1)
    )
    return Presentation(n, variables, ideal, det_relation(n), kernel)
