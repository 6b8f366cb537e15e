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
walked over the cosets of the y-symmetries it finds in G_{v^-1}
(gkm._coset_support), and one largest lam tail per (v, k), checked once per
witness. G_{v^-1} is symmetric in y_j, y_{j+1} exactly when v(j) > v(j+1),
and only kernel_generators relies on it: _y_runs joins those positions
into runs, and the generators of one v whose gammas differ by those s_j
share one polynomial. kernel_generators builds one term dict per such
coset. It relabels each distinct base key once per gamma (laurent._slot_getter)
into a table, through one pool per call, so its generators share their key
tuples: at rank 5 the 105 base classes hold 776 distinct keys, and the 11,520
generators hold 3,195 distinct polynomials with 455,751 terms (1.09 M counted
per generator) over 9,366 distinct keys.

Soundness is one half of the kernel theorem. cover_monotonicity certifies
the lemma behind the other half, completeness: the lam tails over u^-1 never
decrease along a Bruhat cover, so every half-space is a lower set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count
from operator import itemgetter, lt
from typing import Sequence

from .errors import (
    InvalidInputError,
    LimitExceededError,
    NotRegularError,
    SoundnessFailureError,
)
from .gkm import _coset_support
from .groth import grothendieck
from .laurent import (
    LaurentPoly,
    _is_permute_y,
    _slot_getter,
    elementary_symmetric,
    poly_to_json,
)
from .perm import Permutation, _check_rank, _upper_covers, act_on_weights, all_permutations


#: Ceiling for the weight layer: is_regular's certificate can list up to
#: (n!)^2 (n-1) walls (207,360 at rank 6 for mu = 0), and kernel_generators
#: and presentation go through it.
MAX_WEIGHT_RANK = 6

#: Ceiling for kernel_generators and presentation: the staircase rank-6 kernel
#: has 432,000 generators holding about 357 M expanded terms.
MAX_KERNEL_RANK = 5


#: Ceiling for the decimal digits of the numerator and of the denominator of
#: a weight entry. A tail sum adds at most MAX_WEIGHT_RANK - 1 = 5 entries,
#: so its numerator stays below 5 * 10^4000 and its denominator below
#: 10^4000: every value the CLI prints (entries, tail sums, wall and
#: soundness values) keeps under the interpreter's 4,300-digit limit on
#: converting an int to text.
MAX_WEIGHT_DIGITS = 800

# a weight entry: sign, digits, then /digits or .digits; no exponent, space or "_"
_ENTRY = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _weight_entry(value) -> Fraction:
    """value as a Fraction. Text follows _ENTRY, and its digits are bounded
    before any integer is built; any other value must be an int (not a bool)
    or a Fraction, so that nothing inexact is converted."""
    if not isinstance(value, (str, int, Fraction)) or isinstance(value, bool):
        raise InvalidInputError(f"weight entry {value!r} is not an int, a Fraction or text")
    if isinstance(value, str):
        match = _ENTRY.fullmatch(value)
        if match is None:
            raise InvalidInputError(
                f"cannot parse weight entry {value!r}: use an integer, a/b or a decimal"
            )
        # a decimal's numerator is its whole and fractional digits together
        whole, den, frac = match.groups()
        digits = max(len(whole) + len(frac or ""), len(den or ""))
        if digits > MAX_WEIGHT_DIGITS:
            raise LimitExceededError(
                f"a weight entry with {digits} digits exceeds the digit bound"
                f" MAX_WEIGHT_DIGITS = {MAX_WEIGHT_DIGITS}"
            )
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot read weight entry {value!r}") from exc


def _fraction_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


@dataclass(frozen=True)
class WeightVector:
    """An exact rational vector with zero sum (an su(n) weight). Entries are
    ints, Fractions or text (floats and bools are refused); each entry's
    numerator and denominator have at most MAX_WEIGHT_DIGITS digits."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, (list, tuple)):
            raise InvalidInputError(
                "weight entries must be a list or a tuple; text goes through WeightVector.parse"
            )
        entries = tuple(map(_weight_entry, self.entries))
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise InvalidInputError("weight vector must have at least one entry")
        if max(max(abs(e.numerator), e.denominator) for e in entries) >= 10**MAX_WEIGHT_DIGITS:
            raise LimitExceededError(
                "a weight entry exceeds the digit bound"
                f" MAX_WEIGHT_DIGITS = {MAX_WEIGHT_DIGITS} in its numerator or denominator"
            )
        if sum(entries) != 0:
            raise InvalidInputError(f"weight entries must sum to zero, got {self.format()}")

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        """Parse comma-separated exact rationals such as ``"1/4,1/8,-3/8"`` or
        ``"0.25,-0.25"``: a sign, digits, then optionally ``/digits`` or ``.digits``."""
        return cls(tuple(text.split(",")))

    @classmethod
    def staircase(cls, n: int) -> "WeightVector":
        """The strictly decreasing vector (n-1, n-3, ..., 1-n)."""
        _check_rank(n)
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


def _y_runs(u: Permutation) -> tuple[tuple[int, int], ...]:
    """The runs [a, b) of 0-based y-slots, in increasing order, inside which
    G_u is symmetric: slots j - 1 and j share a run iff u^-1(j) > u^-1(j+1)."""
    inv = u.inverse().images
    ends = [e for e in range(1, u.n) if inv[e - 1] < inv[e]]
    return tuple(zip([0, *ends], [*ends, u.n]))


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
    # generators with equal witnesses share one tuple (at most 2^(n-1) - 1)
    witnesses: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, lam_t in enumerate(lam_tails):
        for j, mu_t in enumerate(mu_tails):
            ks = tuple(compress(cuts, map(lt, lam_t, mu_t)))
            if ks:
                rows.append((i, j, witnesses.setdefault(ks, ks)))
        if rows and rows[-1][0] == i:
            # pi_v of the top class is the plain class of v^{-1}; the
            # operators commute with the y-relabeling by gamma
            bases[i] = grothendieck(perms[i].inverse())
    # a gamma's table holds every distinct base key relabelled by it; the pool
    # keeps one tuple per relabelled key, so generators share their key tuples
    index = dict(zip(dict.fromkeys(k for f in bases.values() for k in f.terms), count()))
    pool: dict[tuple[int, ...], tuple[int, ...]] = {}
    tables = {}
    for j in dict.fromkeys(j for _, j, _ in rows):
        tables[j] = [pool.setdefault(k, k) for k in map(_slot_getter(perms[j]), index)]
    # the generators of one coset share one class; coset keys are memoised per runs
    cosets: dict[tuple, dict[int, tuple[int, ...]]] = {}
    gens = []
    current = None
    for i, j, ks in rows:
        if i != current:
            current, v, base = i, perms[i], bases[i]
            pick = _picker(list(map(index.__getitem__, base.terms)))
            coeffs = list(base.terms.values())
            runs = _y_runs(v.inverse())
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

    A poly object that passed as the class of (v, g) passes for (v, gamma)
    when g^-1 gamma fixes G_{v^-1}, one relabel check per v and g^-1 gamma;
    every other generator gets the full class check.
    """
    bases: dict[Permutation, tuple[LaurentPoly, list, dict, dict]] = {}
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
            base = grothendieck(v.inverse())
            supp = list(_coset_support(base))
            tails = _tail_sums(lam_ints, [p.inverse() for p in supp])
            # per cut, the largest tail, its Fraction and the picks of its
            # points: (gamma * p)(i) = gamma(p(i)), so z is read through p's slots
            tops = []
            for k in range(v.n - 1):
                top = max(t[k] for t in tails)
                worst = [p for p, t in zip(supp, tails) if t[k] == top]
                picks = [_picker([i - 1 for i in p.images]) for p in worst]
                tops.append((top, Fraction(top, d), picks))
            bases[v] = base, tops, {}, {}
        # passed: id(poly) -> (0, *g^-1) for a poly that passed as the class of
        # (v, g) (certs keeps it alive); fixes: g^-1 gamma -> fixes G_{v^-1}
        base, tops, passed, fixes = bases[v]
        ginv = passed.get(id(gen.poly))
        sigma = ginv and tuple(map(ginv.__getitem__, gamma.images))
        if sigma and sigma not in fixes:
            fixes[sigma] = _is_permute_y(perm_of[sigma], base, base)
        if not (sigma and fixes[sigma]):
            if not _is_permute_y(gamma, base, gen.poly):
                raise SoundnessFailureError(f"poly of v={v} gamma={gamma} is not its class")
            passed[id(gen.poly)] = (0, *gamma.inverse().images)
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


def cover_monotonicity(lam: WeightVector) -> tuple[tuple[Permutation, Permutation], ...]:
    """Certify that along every Bruhat cover u < u' of S_n, at every cut k,
    the lam tail sum over u^-1 does not exceed the one over u'^-1; return
    the covers checked, u in lexicographic order, then by positions (a, b).

    This is the completeness half of the kernel theorem: at z = gamma * p
    the lam side of eta_k^gamma is the lam tail over p^-1, so the fixed
    points of every half-space {eta_k^gamma < eta_k^gamma(mu)} form a lower
    set of <=_gamma, for every gamma and mu. With the support theorem,
    decompose's triangular solve then puts every class supported in that
    half-space in the span of the generators of (gamma, k). The covers
    u' = u * t_ab are those of perm._upper_covers. The tails are the integers
    of _scaled; a failure raises SoundnessFailureError naming u, u' and k.
    """
    lam.require_generic()
    perms = list(all_permutations(lam.n))
    position = {p.images: i for i, p in enumerate(perms)}
    d, lam_ints, _ = _scaled(lam, lam)
    tails = _tail_sums(lam_ints, [p.inverse() for p in perms])
    covers = []
    for u, lower in zip(perms, tails):
        for upper in _upper_covers(u.images):
            i = position[upper]
            for k, lo, hi in zip(count(1), lower, tails[i]):
                if lo > hi:
                    raise SoundnessFailureError(
                        f"Bruhat cover {u} < {perms[i]} breaks the k={k} lower set:"
                        f" lam tail {Fraction(lo, d)} over u^-1 exceeds"
                        f" {Fraction(hi, d)} over u'^-1"
                    )
            covers.append((u, perms[i]))
    return tuple(covers)


# -- the assembled presentation --------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators and relations for the K-theory of the weight variety at (lam, mu).

    Relations: the n symmetric differences e_i(x) - e_i(y), the determinant
    relation y_1 ... y_n - 1, and one operator class per kernel generator.
    """

    n: int
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
        return poly_to_json(self.json_tree())


def det_relation(n: int) -> LaurentPoly:
    """y_1 * y_2 * ... * y_n - 1."""
    _check_rank(n)
    return LaurentPoly(n, {(0,) * n + (1,) * n: 1}) - 1


def presentation(lam: WeightVector, mu: WeightVector) -> Presentation:
    """Assemble the full generators-and-relations presentation for (lam, mu)."""
    kernel = kernel_generators(lam, mu)
    n = lam.n
    ideal = tuple(
        elementary_symmetric(i, "x", n) - elementary_symmetric(i, "y", n)
        for i in range(1, n + 1)
    )
    return Presentation(n, ideal, det_relation(n), kernel)
