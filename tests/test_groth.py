import hashlib
import math
import sys
from array import array
from fractions import Fraction

import pytest

from kflag import groth
from kflag.ddo import pi
from kflag.gkm import restrict
from kflag.laurent import LaurentPoly, canonical_zero_test, exact_div, permute_y
from kflag.errors import InvalidInputError, NotDivisibleError
from kflag.perm import Permutation, all_permutations

from oracles import grothendieck_by_pipe_dreams, permuted_grothendieck_by_word, top_by_subsets


def yv(n, i):
    return LaurentPoly.y(n, i)


def top_factor(n, i, j):
    xexp = tuple(-1 if t == i - 1 else 0 for t in range(n))
    return 1 - LaurentPoly.y(n, j) * LaurentPoly.monomial(n, 1, xexp=xexp)


# per rank, the sha256 of every class's top(n) key positions and coefficients
# in insertion order, w in lexicographic order
TABLE_SHA256 = {
    1: "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    2: "2077388e8d621529d30633a48f8cb7546adbe5f8ee305bbe5959c8b63ad8b567",
    3: "86e286db4244e1ece1f289a03c3af503f9aa6a4a2cd0f325c9ac3f5d6421f7ad",
    4: "12764f28f4ad543e5f976b21404e842adb9153c5b216d3d86fc5a2d8d18b64c2",
    5: "fc1d3b87ab0266b11190aca213783daa1d8dc3b1656f88d9ba73df3811f63b3b",
    6: "8e20070fa31000972f830c5288ca9ae0830db65bc6edcd9d6aef5259dacc3d53",
}


class TestTop:
    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2)], ids=repr)
    def test_rank_must_be_an_int(self, n):
        with pytest.raises(InvalidInputError, match="rank must be a positive integer"):
            groth.top(n)

    def test_rank_one_is_empty_product(self):
        assert groth.top(1) == 1

    def test_rank_two_single_factor(self):
        assert groth.top(2) == top_factor(2, 1, 2)

    def test_rank_three_matches_displayed_product(self):
        expected = top_factor(3, 1, 2) * top_factor(3, 1, 3) * top_factor(3, 2, 3)
        assert groth.top(3) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_subset_expansion(self, n):
        # at n = 5: 1,024 subsets of the 10 pairs
        assert groth.top(n).terms == top_by_subsets(n).terms

    @pytest.mark.parametrize(
        "n, size", [(1, 1), (2, 2), (3, 8), (4, 60), (5, 776), (6, 15_944)]
    )
    def test_sign_is_minus_one_to_the_y_degree(self, n, size):
        # why top never cancels a term: each factor's shift raises the y-degree
        # by one and flips the sign, so equal keys meet with equal signs
        def sign_law_holds(f):
            return all(
                c != 0 and (c > 0) == (sum(key[n:]) % 2 == 0) for key, c in f.terms.items()
            )

        partial = LaurentPoly.const(n, 1)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                partial = partial * top_factor(n, i, j)
                assert sign_law_holds(partial)
        assert groth.top(n) == partial and len(partial.terms) == size
        assert sign_law_holds(groth.top(n))


class TestGrothendieck:
    def test_identity_gives_top(self):
        for n in (1, 2, 3):
            assert groth.grothendieck(Permutation.identity(n)) == groth.top(n)

    def test_rank_two_transposition(self):
        # pi_1 (1 - y2/x1) = delta_1(x1 - y2) = 1
        assert groth.grothendieck(Permutation((2, 1))) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_longest_element_is_one(self, n):
        assert groth.grothendieck(Permutation.longest(n)) == 1

    def test_cache_stability(self):
        groth.clear_cache()
        first = {w: groth.grothendieck(w) for w in all_permutations(3)}
        groth.clear_cache()
        second = {w: groth.grothendieck(w) for w in all_permutations(3)}
        assert first == second

    @pytest.mark.parametrize("n, monomials", [(1, 1), (2, 2), (3, 8), (4, 60), (5, 776)])
    def test_cold_table_holds_one_pooled_tuple_per_top_monomial(self, n, monomials):
        groth.clear_cache()
        table = {w: groth.grothendieck(w) for w in all_permutations(n)}
        pool = groth._KEY_POOL
        keys = {id(k): k for f in table.values() for k in f.terms}
        assert len(keys) == len(groth.top(n).terms) == monomials
        assert all(pool.get(k) is k for k in keys.values())
        # each cached step is pi without the pool along the same word
        for w, f in table.items():
            a = next((i for i in range(1, n) if w.images[i - 1] > w.images[i]), None)
            if a is not None:
                plain = pi(a, table[w * Permutation.simple(n, a)])
                assert list(f.terms.items()) == list(plain.terms.items())
        groth.clear_cache()
        assert not pool

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_every_class_is_right_sized_in_its_pinned_order(self, n):
        # a class's term dict takes no more room than a compact copy of it
        # (pi returns dict(out), which repacks a table left oversized by
        # growth and cancellation), and its terms keep their pinned
        # insertion order
        index = {k: i for i, k in enumerate(groth.top(n).terms)}
        pinned = hashlib.sha256()
        for w in all_permutations(n):
            terms = groth.grothendieck(w).terms
            assert sys.getsizeof(terms) == sys.getsizeof(dict(terms)), w
            pinned.update(array("q", map(index.__getitem__, terms)).tobytes())
            pinned.update(array("q", terms.values()).tobytes())
        assert pinned.hexdigest() == TABLE_SHA256[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_every_class_matches_pipe_dreams(self, n):
        dreams = grothendieck_by_pipe_dreams(n)
        assert len(dreams) == math.factorial(n)
        for images, terms in dreams.items():
            assert groth.grothendieck(Permutation(images)).terms == terms, images


class TestPermutedGrothendieck:
    @pytest.mark.parametrize(
        "w, gamma", [((2, 1, 3), (1, 2)), ((1, 2), (2, 3, 1))], ids=["3-vs-2", "2-vs-3"]
    )
    def test_rank_mismatch_refused(self, w, gamma):
        message = f"^rank mismatch: {len(w)} vs {len(gamma)}$"
        with pytest.raises(InvalidInputError, match=message):
            groth.permuted_grothendieck(Permutation(w), Permutation(gamma))

    def test_identity_gamma(self):
        for w in all_permutations(3):
            assert groth.permuted_grothendieck(
                w, Permutation.identity(3)
            ) == groth.grothendieck(w)

    def test_identity_gamma_returns_the_cached_class(self):
        # permute_y returns its argument for the identity, so the plain class
        # is shared, not copied
        identity = Permutation.identity(4)
        for w in all_permutations(4):
            assert groth.permuted_grothendieck(w, identity) is groth.grothendieck(w)

    def test_paper_worked_example(self):
        w = Permutation((1, 3, 2))
        gamma = Permutation((2, 1, 3))
        assert groth.permuted_grothendieck(w, gamma) == top_factor(3, 1, 3)

    def test_w_equals_gamma_gives_relabeled_top(self):
        for gamma in all_permutations(3):
            assert groth.permuted_grothendieck(gamma, gamma) == permute_y(
                gamma, groth.top(3)
            )

    @pytest.mark.parametrize("n", [3, 4])
    def test_defining_word_route_agrees_everywhere(self, n):
        perms = list(all_permutations(n))
        for w in perms:
            for gamma in perms:
                assert groth.permuted_grothendieck(
                    w, gamma
                ) == permuted_grothendieck_by_word(w, gamma)

    @pytest.mark.slow
    def test_operator_words_on_relabeled_top_rank_five(self):
        # for every gamma, the pi-words of u^{-1} on permute_y(gamma, top(5)),
        # memoised along the smallest right descent of u as in grothendieck,
        # against the relabelled plain class of all 14,400 pairs (w, gamma)
        n = 5
        perms = list(all_permutations(n))
        for gamma in perms:
            words = {Permutation.identity(n).images: permute_y(gamma, groth.top(n))}

            def by_word(u):
                cached = words.get(u.images)
                if cached is None:
                    a = next(i for i in range(1, n) if u.images[i - 1] > u.images[i])
                    cached = pi(a, by_word(u * Permutation.simple(n, a)))
                    words[u.images] = cached
                return cached

            for w in perms:
                assert by_word(gamma.inverse() * w) == groth.permuted_grothendieck(w, gamma)

    def test_relabel_identity_against_plain_classes(self):
        # the permuted class is the y-relabeling of the plain class of gamma^{-1} w
        for w in all_permutations(3):
            for gamma in all_permutations(3):
                assert groth.permuted_grothendieck(w, gamma) == permute_y(
                    gamma, groth.grothendieck(gamma.inverse() * w)
                )


def _is_product_of_unit_binomials(f, n):
    """Check f == product of factors (1 - y_b/y_a), by depth-first peeling."""
    if f == 1:
        return True
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            yexp = [0] * n
            yexp[a - 1] -= 1
            yexp[b - 1] += 1
            factor = 1 - LaurentPoly.monomial(n, 1, yexp=tuple(yexp))
            try:
                quotient = exact_div(f, factor)
            except NotDivisibleError:
                continue
            if _is_product_of_unit_binomials(quotient, n):
                return True
    return False


class TestDiagonalStructure:
    def test_restriction_at_gamma_factors_and_is_nonzero(self):
        n = 3
        for w in all_permutations(n):
            for gamma in all_permutations(n):
                value = restrict(groth.permuted_grothendieck(w, gamma), gamma)
                assert not canonical_zero_test(value)
                assert _is_product_of_unit_binomials(value, n)
