"""Independent oracles used by the test suite.

Everything here works on raw tuples and Fractions and deliberately avoids
the library's own Bruhat test and reduced-word builder, and, outside the
operator-word routes, its closed-form divided differences, so the tests
compare two genuinely different routes.
The divided differences here go through the library's exact polynomial
division (kept there for ``gkm.decompose``), which shares no code with
``kflag.ddo``; ``divided_difference_by_terms`` is the closed formula with
every summand built as its own tuple, the route ``kflag.ddo`` took before
it kept fixed summands at their terms' keys. The operator-word routes
apply ``kflag.ddo.pi`` along this module's own bubble-sort reduced word,
not the library's lex-least one, and the permuted classes they define
start from the subset expansion of the top class. Monomial substitution and the variable relabellings rebuild
each key one exponent at a time, without the library's precomputed
getters. Supports, decompositions and recompositions go point by point
through ``gkm.restrict``, without the library's packed-key walk. The
support sweep decides every pair on its own instead of once per base class.
Kernel soundness reads both sides of every inequality from ``eta_value`` at
each support point, found by substitution, instead of one integer maximum
per base class and cut.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from kflag import gkm
from kflag.ddo import pi
from kflag.errors import InvalidInputError, NotDivisibleError, NotInSpanError
from kflag.gkm import restrict
from kflag.groth import grothendieck, permuted_grothendieck
from kflag.kirwan import eta_value, moment_image
from kflag.laurent import LaurentPoly, exact_div, polys_to_json
from kflag.perm import Permutation, all_permutations

# -- tuple permutation helpers (1-based images, independent of kflag.perm) ------


def t_compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(u[j - 1] for j in v)


def t_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def t_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def t_simple(n: int, i: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def t_length(w: tuple[int, ...]) -> int:
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


def t_word_product(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    out = t_identity(n)
    for i in letters:
        out = t_compose(out, t_simple(n, i))
    return out


def some_reduced_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """One reduced word, built by bubble sort on positions (not the lex-least one)."""
    word: list[int] = []
    cur = list(w)
    n = len(cur)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if cur[i] > cur[i + 1]:
                # w = w' * s_i with w' shorter; accumulating right-to-left
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                word.append(i + 1)
                changed = True
    word.reverse()
    return tuple(word)


def all_reduced_words(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every reduced word of w (letters multiply left to right)."""
    n = len(w)
    if w == t_identity(n):
        return [()]
    words = []
    # i is a left descent iff i appears after i+1 in one-line notation
    pos = {val: idx for idx, val in enumerate(w)}
    for i in range(1, n):
        if pos[i] > pos[i + 1]:
            rest = t_compose(t_simple(n, i), w)
            words.extend((i,) + tail for tail in all_reduced_words(rest))
    return words


def subword_bruhat_leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Bruhat comparison by the subword criterion on one fixed reduced word of w."""
    n = len(w)
    word = some_reduced_word(w)
    target_len = t_length(v)
    if target_len > len(word):
        return False
    reachable = {t_identity(n)}
    for letter in word:
        s = t_simple(n, letter)
        reachable |= {t_compose(p, s) for p in reachable}
    return v in reachable


# -- numeric evaluation ------------------------------------------------------------


def eval_poly(
    f: LaurentPoly, xvals: tuple[Fraction, ...], yvals: tuple[Fraction, ...]
) -> Fraction:
    """Evaluate exactly at nonzero rational points."""
    n = f.n
    total = Fraction(0)
    for key, coeff in f.terms.items():
        term = Fraction(coeff)
        for i in range(n):
            if key[i]:
                term *= xvals[i] ** key[i]
        for i in range(n):
            if key[n + i]:
                term *= yvals[i] ** key[n + i]
        total += term
    return total


def random_point(rng: random.Random, n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Random nonzero rational coordinates, distinct enough to dodge accidental zeros."""
    def coords():
        return tuple(
            Fraction(rng.choice([2, 3, 5, 7, 11, 13]) * rng.choice([1, -1]), rng.choice([1, 2, 3]))
            for _ in range(n)
        )

    return coords(), coords()


# -- random polynomials ---------------------------------------------------------------


def random_laurent(
    rng: random.Random,
    n: int,
    max_terms: int = 6,
    max_total_degree: int = 5,
    max_coeff: int = 9,
) -> LaurentPoly:
    """Random sparse Laurent polynomial with bounded exponents and coefficients."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            key = [0] * (2 * n)
            budget = max_total_degree
            for slot in rng.sample(range(2 * n), rng.randint(0, min(3, 2 * n))):
                e = rng.randint(-2, 2)
                if abs(e) <= budget:
                    key[slot] = e
                    budget -= abs(e)
            key = tuple(key)
            break
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(n, {k: c for k, c in terms.items() if c})


# -- variable relabellings, one exponent at a time ----------------------------------


def _sources(sigma: Permutation) -> list[int]:
    # the new variable t + 1 takes the exponent of the old variable sigma^{-1}(t + 1)
    inv = [0] * len(sigma.images)
    for pos, val in enumerate(sigma.images, start=1):
        inv[val - 1] = pos
    return [s - 1 for s in inv]


def permute_x_by_terms(sigma: Permutation, f: LaurentPoly) -> LaurentPoly:
    """Relabel x_i as x_{sigma(i)}, building each key with a generator expression."""
    n = f.n
    srcs = _sources(sigma)
    return LaurentPoly(
        n, {tuple(key[s] for s in srcs) + key[n:]: c for key, c in f.terms.items()}
    )


def permute_y_by_terms(sigma: Permutation, f: LaurentPoly) -> LaurentPoly:
    """Relabel y_i as y_{sigma(i)}, building each key with a generator expression."""
    n = f.n
    srcs = [n + s for s in _sources(sigma)]
    return LaurentPoly(
        n, {key[:n] + tuple(key[s] for s in srcs): c for key, c in f.terms.items()}
    )


# -- monomial substitution ----------------------------------------------------------


def _monomial_key(value: LaurentPoly, n: int) -> tuple[int, ...]:
    if value.n != n:
        raise InvalidInputError(f"rank mismatch in substitution target: {value.n} vs {n}")
    if len(value.terms) != 1:
        raise InvalidInputError("substitution values must be single monomials")
    ((key, coeff),) = value.terms.items()
    if coeff != 1:
        raise InvalidInputError("substitution values must have coefficient 1")
    return key


def substitute(f: LaurentPoly, x_map=None, y_map=None) -> LaurentPoly:
    """Monomial substitution homomorphism; unassigned variables map to themselves."""
    n = f.n
    images: list[tuple[int, ...] | None] = [None] * (2 * n)
    for offset, mapping in ((0, x_map), (n, y_map)):
        for i, g in (mapping or {}).items():
            if not 1 <= i <= n:
                raise InvalidInputError(f"variable index {i} out of range for rank {n}")
            images[offset + i - 1] = _monomial_key(g, n)
    out: dict[tuple[int, ...], int] = {}
    for key, c in f.terms.items():
        vec = [0] * (2 * n)
        for slot, e in enumerate(key):
            img = images[slot]
            if img is None:
                vec[slot] += e
            else:
                for t, ex in enumerate(img):
                    vec[t] += e * ex
        k2 = tuple(vec)
        out[k2] = out.get(k2, 0) + c
    return LaurentPoly(n, out)


# -- divided differences through division, and the top class by brute force ------


def delta_by_division(i: int, f: LaurentPoly) -> LaurentPoly:
    """(f - s_i f) / (x_i - x_{i+1}) through the library's exact long division."""
    numerator = f - permute_x_by_terms(Permutation.simple(f.n, i), f)
    return exact_div(numerator, LaurentPoly.x(f.n, i) - LaurentPoly.x(f.n, i + 1))


def pi_by_division(i: int, f: LaurentPoly) -> LaurentPoly:
    """delta_by_division(i, x_i * f)."""
    return delta_by_division(i, LaurentPoly.x(f.n, i) * f)


def divided_difference_by_terms(i: int, f: LaurentPoly, shift: int) -> LaurentPoly:
    """delta_i(x_i^shift * f) by the closed formula, building every summand.

    The route ``kflag.ddo`` took before it kept the fixed summand of pi_i
    (k = a - 1) at the term's own key: each summand of each term, the fixed
    one included, is built as a fresh tuple and added on its own.
    """
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


def top_by_subsets(n: int) -> LaurentPoly:
    """prod_{i<j} (1 - y_j/x_i) expanded over the subsets S of the pairs (i, j).

    S contributes (-1)^|S| * prod_{(i, j) in S} y_j / x_i.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    terms: dict[tuple[int, ...], int] = {}
    for size in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, size):
            key = [0] * (2 * n)
            for i, j in subset:
                key[i] -= 1
                key[n + j] += 1
            key = tuple(key)
            terms[key] = terms.get(key, 0) + (-1) ** size
    return LaurentPoly(n, terms)


# -- operator words -----------------------------------------------------------------


def apply_pi_word(letters, f: LaurentPoly) -> LaurentPoly:
    """Apply ``kflag.ddo.pi`` along an explicit word, rightmost letter first."""
    for i in reversed(tuple(letters)):
        f = pi(i, f)
    return f


def pi_word(w: Permutation, f: LaurentPoly) -> LaurentPoly:
    """The operator word of w along ``some_reduced_word``, applied to f."""
    if w.n != f.n:
        raise InvalidInputError(f"rank mismatch: {w.n} vs {f.n}")
    return apply_pi_word(some_reduced_word(w.images), f)


def permuted_grothendieck_by_word(w: Permutation, gamma: Permutation) -> LaurentPoly:
    """The defining route: the word of w^{-1}gamma on the gamma-relabelled top class."""
    return pi_word(w.inverse() * gamma, permute_y_by_terms(gamma, top_by_subsets(w.n)))


# -- localization point by point ----------------------------------------------------


def vanishes_mod_det(yterms) -> bool:
    """Whether the sum of c * y^e over (e, c) in yterms is 0 modulo (y_1 * ... * y_n - 1).

    y_n -> (y_1 ... y_{n-1})^{-1} maps y^e to the monomial with exponents
    e_j - e_n; the reduced ring is an integral domain.
    """
    acc: dict[tuple[int, ...], int] = {}
    for yexp, c in yterms:
        last = yexp[-1]
        red = tuple([e - last for e in yexp])
        acc[red] = acc.get(red, 0) + c
    return not any(acc.values())


def _nonzero_at(terms, n: int, zpos: list[int]) -> bool:
    # x_i -> y_{z(i)} adds the x_i exponent into slot zpos[i] of the y part
    src = [0] * n
    for i, p in enumerate(zpos):
        src[p] = i
    slots = [(n + j, src[j]) for j in range(n)]
    return not vanishes_mod_det(
        ([key[y] + key[x] for y, x in slots], c) for key, c in terms.items()
    )


def support_by_substitution(f: LaurentPoly) -> frozenset:
    """The fixed points where f restricts to nonzero modulo the determinant
    relation, substituting term by term at each point."""
    n = f.n
    return frozenset(
        z for z in all_permutations(n) if _nonzero_at(f.terms, n, [v - 1 for v in z.images])
    )


def decompose_by_points(alpha, gamma: Permutation) -> dict:
    """The triangular solve of ``gkm.decompose`` with one ``restrict`` call per
    (basis class, point)."""
    n = alpha.n
    perms = list(all_permutations(n))
    ginv = gamma.inverse()
    order = sorted(perms, key=lambda w: (-(ginv * w).length(), w.images))
    residue = dict(alpha.entries)
    coeffs = {}
    for w in order:
        if residue[w].is_zero:
            coeffs[w] = LaurentPoly.zero(n)
            continue
        gw = permuted_grothendieck(w, gamma)
        try:
            a_w = exact_div(residue[w], restrict(gw, w))
        except NotDivisibleError as exc:
            raise NotInSpanError(f"residue at {w} is not divisible") from exc
        coeffs[w] = a_w
        for z in perms:
            rz = restrict(gw, z)
            if not rz.is_zero:
                residue[z] = residue[z] - a_w * rz
    return coeffs


def recompose_by_points(coeffs: dict, gamma: Permutation, n: int) -> dict:
    """sum_w a_w * (localized class of (w, gamma)) with one ``restrict`` call per
    (basis class, point); a dict from points to entries."""
    perms = list(all_permutations(n))
    entries = {z: LaurentPoly.zero(n) for z in perms}
    for w, c in coeffs.items():
        if c.is_zero:
            continue
        gw = permuted_grothendieck(w, gamma)
        for z in perms:
            entries[z] = entries[z] + c * restrict(gw, z)
    return entries


# -- the support sweep pair by pair ------------------------------------------------


def sweep_by_pairs(n: int) -> gkm.SweepReport:
    """The report of ``gkm.verify_support_theorem(n)``, decided pair by pair.

    Each pair (w, gamma) relabels supp(G_u) and [e, u], u = gamma^{-1}w, by
    gamma, sorts both lists and compares them point by point over S_n in
    lexicographic order. Supports are read through ``gkm.support`` at call
    time, so a test can patch it with the same change it makes to
    ``gkm._class_support``, which the library reads; the intervals come from
    the subword criterion.
    """
    universe = sorted(itertools.permutations(range(1, n + 1)))
    supports = {
        u: {z.images for z in gkm.support(grothendieck(Permutation(u)))} for u in universe
    }
    intervals = {u: [v for v in universe if subword_bruhat_leq(v, u)] for u in universe}
    checks = []
    for w in universe:
        for gamma in universe:
            u = t_compose(t_inverse(gamma), w)
            supp = tuple(sorted(t_compose(gamma, z) for z in supports[u]))
            interval = tuple(sorted(t_compose(gamma, v) for v in intervals[u]))
            nonzero, inside = set(supp), set(interval)
            ces = tuple(
                gkm.Counterexample(z, z in nonzero, z in inside)
                for z in universe
                if (z in nonzero) != (z in inside)
            )
            checks.append(gkm.PairCheck(w, gamma, supp == interval, supp, interval, ces))
    return gkm.SweepReport(n, checks)


# -- kernel soundness point by point ---------------------------------------------


def soundness_by_points(gen, lam, mu) -> list:
    """The (z, k, eta_k^gamma(lam_z), eta_k^gamma(mu)) rows of a kernel
    generator, for each z in its support in lexicographic order and each
    witness k, both values read from ``eta_value`` at the moment image."""
    points = sorted(support_by_substitution(gen.poly), key=lambda p: p.images)
    return [
        (z, k, eta_value(gen.gamma, k, moment_image(lam, z)), eta_value(gen.gamma, k, mu))
        for z in points
        for k in gen.witnesses
    ]


# -- restriction-class files ------------------------------------------------------


def restriction_class_to_json(alpha) -> dict:
    """The class-file JSON of a RestrictionClass that kflag decompose --class
    reads: {"n": N, "entries": [{"z": [...], "poly": [...]}, ...]}, sorted by z."""
    return polys_to_json({
        "n": alpha.n,
        "entries": [
            {"z": list(z.images), "poly": alpha.entries[z]}
            for z in sorted(alpha.entries, key=lambda p: p.images)
        ],
    })
