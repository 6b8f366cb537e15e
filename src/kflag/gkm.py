"""Localization at the torus-fixed points of the flag variety.

A class restricts to the fixed point indexed by z through the substitution
x_i -> y_{z(i)} (the y-variables are untouched). Support membership is
decided modulo the determinant relation y_1 ... y_n = 1. The module also
runs the exhaustive support/interval sweep and decomposes localized
classes in a permuted Grothendieck basis by a triangular solve.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    LimitExceededError,
    NotDivisibleError,
    NotInSpanError,
)
from .groth import grothendieck, permuted_grothendieck
from .laurent import LaurentPoly, canonical_zero_test, exact_div, vanishes_mod_det
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


def _nonzero_at(terms: Mapping[tuple[int, ...], int], n: int, zpos: list[int]) -> bool:
    # not canonical_zero_test(restrict(f, z)) without building the restriction:
    # x_i -> y_{z(i)} adds the x_i exponent into slot zpos[i] of the y part
    src = [0] * n
    for i, p in enumerate(zpos):
        src[p] = i
    slots = [(n + j, src[j]) for j in range(n)]
    return not vanishes_mod_det(
        ([key[y] + key[x] for y, x in slots], c) for key, c in terms.items()
    )


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


def restrict_all(f: LaurentPoly) -> RestrictionClass:
    """Restrict at every fixed point of S_n."""
    return RestrictionClass(f.n, {z: restrict(f, z) for z in all_permutations(f.n)})


def support(f: LaurentPoly) -> SupportSet:
    """Fixed points where the restriction of f is nonzero modulo the determinant relation."""
    n = f.n
    terms = f.terms
    members = []
    for z in all_permutations(n):
        zpos = [v - 1 for v in z.images]
        if _nonzero_at(terms, n, zpos):
            members.append(z)
    return frozenset(members)


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
    supp: Iterable[tuple[int, ...]],
    interval: Iterable[tuple[int, ...]],
    universe: Iterable[tuple[int, ...]],
) -> PairCheck:
    supp = tuple(sorted(supp))
    interval = tuple(sorted(interval))
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


def verify_support_theorem(n: int, jobs: int = 1) -> SweepReport:
    """Exhaustively compare supports with permuted Bruhat intervals over S_n x S_n.

    For every pair (w, gamma) the support of the permuted class of (w, gamma)
    is compared against {v : v <=_gamma w}. The report lists both sets for
    every pair; mismatches carry per-point counterexample certificates.

    The sweep is serial and S_n-equivariant: with u = gamma^{-1}w, the
    support of G_u and the interval [e, u] are computed once per u and
    left-multiplied by gamma, by restrict(permute_y(gamma, f), z) =
    permute_y(gamma, restrict(f, gamma^{-1}z)) and the S_n-invariance of the
    determinant relation. ``jobs`` is accepted and ignored.
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
            supp = [points[i] for i in sorted(lg[i] for i in base_support[u])]
            interval = [points[i] for i in sorted(lg[i] for i in base_interval[u])]
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
        gw = permuted_grothendieck(w, gamma)
        diag = restrict(gw, w)
        try:
            a_w = exact_div(res_w, diag)
        except NotDivisibleError as exc:
            raise NotInSpanError(
                f"residue at {w} is not divisible by the diagonal restriction"
            ) from exc
        coeffs[w] = a_w
        for z in perms:
            rz = restrict(gw, z)
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
        gw = permuted_grothendieck(w, gamma)
        for z in perms:
            rz = restrict(gw, z)
            if not rz.is_zero:
                entries[z] = entries[z] + c * rz
    return RestrictionClass(n, entries)
