import itertools
import random
from fractions import Fraction

import pytest

from kflag import perm
from kflag.errors import InvalidInputError, LimitExceededError
from kflag.perm import (
    Permutation,
    act_on_weights,
    all_permutations,
    bruhat_leq,
    canonical_reduced_word,
    compose,
    permuted_bruhat_leq,
)

from oracles import all_reduced_words, subword_bruhat_leq, t_word_product


def P(*images):
    return Permutation(tuple(images))


class TestConstruction:
    def test_rejects_non_bijections(self):
        for bad in [(1, 1), (0, 1), (2, 3), ()]:
            with pytest.raises(InvalidInputError):
                Permutation(bad)

    @pytest.mark.parametrize(
        "images",
        [(True, 2), (2, True), (2.0, 1.0), (1, 2.0), (Fraction(2), 1), (True,)],
        ids=["bool-first", "bool-second", "floats", "one-float", "fraction", "bool-rank-one"],
    )
    def test_rejects_images_that_are_not_ints(self, images):
        # each compares equal to a permutation of 1..n
        assert sorted(images) == list(range(1, len(images) + 1))
        with pytest.raises(InvalidInputError, match="not a permutation"):
            Permutation(images)

    @pytest.mark.parametrize("n", [True, False, 2.0, Fraction(3)], ids=repr)
    def test_rank_must_be_an_int(self, n):
        for build in (Permutation.identity, Permutation.longest, all_permutations):
            with pytest.raises(InvalidInputError, match="rank must be a positive integer"):
                build(n)
        with pytest.raises(InvalidInputError, match="rank must be a positive integer"):
            Permutation.simple(n, 1)

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_simple_index_out_of_range_refused(self, i):
        message = f"^simple reflection index {i} out of range for rank 3$"
        with pytest.raises(InvalidInputError, match=message):
            Permutation.simple(3, i)

    def test_from_one_line(self):
        assert Permutation.from_one_line("2,3,1") == P(2, 3, 1)
        with pytest.raises(InvalidInputError):
            Permutation.from_one_line("2;3;1")

    def test_call_is_one_based(self):
        w = P(2, 3, 1)
        assert [w(i) for i in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(InvalidInputError):
            w(0)


class TestCompose:
    def test_involution_squared(self):
        s = P(2, 1, 3)
        assert compose(s, s) == Permutation.identity(3)

    def test_identity_law(self):
        w = P(3, 1, 2)
        assert compose(Permutation.identity(3), w) == w
        assert compose(w, Permutation.identity(3)) == w

    def test_hand_table(self):
        # u(v(i)) with u = v = [2,3,1]: v(1)=2 -> u(2)=3, v(2)=3 -> u(3)=1, v(3)=1 -> u(1)=2
        assert compose(P(2, 3, 1), P(2, 3, 1)) == P(3, 1, 2)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            compose(P(1, 2), P(1, 2, 3))


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(4).inverse() == Permutation.identity(4)

    def test_transposition_is_involution(self):
        assert P(2, 1, 3).inverse() == P(2, 1, 3)

    def test_hand_table(self):
        assert P(2, 3, 1).inverse() == P(3, 1, 2)

    def test_roundtrip_all_s4(self):
        for w in all_permutations(4):
            assert w * w.inverse() == Permutation.identity(4)


class TestLength:
    def test_identity(self):
        assert Permutation.identity(5).length() == 0

    def test_simple(self):
        assert P(2, 1, 3).length() == 1

    def test_longest(self):
        for n in range(1, 6):
            assert Permutation.longest(n).length() == n * (n - 1) // 2


class TestCanonicalReducedWord:
    def test_identity_empty(self):
        assert canonical_reduced_word(Permutation.identity(3)) == ()

    def test_simple(self):
        assert canonical_reduced_word(P(2, 1, 3)) == (1,)

    def test_longest_s3(self):
        # both reduced words are (1,2,1) and (2,1,2); lex-min is (1,2,1)
        assert canonical_reduced_word(P(3, 2, 1)) == (1, 2, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_multiplies_back_and_has_minimal_length(self, n):
        for w in all_permutations(n):
            word = canonical_reduced_word(w)
            assert len(word) == w.length()
            assert t_word_product(n, word) == w.images

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_is_lex_smallest(self, n):
        for w in all_permutations(n):
            words = all_reduced_words(w.images)
            assert canonical_reduced_word(w) == min(words)


class TestBruhat:
    def test_identity_is_minimum(self):
        for w in all_permutations(3):
            assert bruhat_leq(Permutation.identity(3), w)

    def test_examples(self):
        assert bruhat_leq(P(2, 1, 3), P(3, 2, 1))
        assert not bruhat_leq(P(2, 3, 1), P(3, 1, 2))
        assert not bruhat_leq(P(3, 1, 2), P(2, 3, 1))

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            bruhat_leq(P(1, 2), P(1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_subword_oracle(self, n):
        perms = list(all_permutations(n))
        for v in perms:
            for w in perms:
                assert bruhat_leq(v, w) == subword_bruhat_leq(v.images, w.images)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partial_order_axioms(self, n):
        perms = list(all_permutations(n))
        for v in perms:
            assert bruhat_leq(v, v)
        for v in perms:
            for w in perms:
                if bruhat_leq(v, w) and bruhat_leq(w, v):
                    assert v == w
                if bruhat_leq(v, w):
                    assert v.length() <= w.length()
                    if v.length() == w.length():
                        assert v == w
        for u in perms:
            for v in perms:
                if not bruhat_leq(u, v):
                    continue
                for w in perms:
                    if bruhat_leq(v, w):
                        assert bruhat_leq(u, w)


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_upper_covers_are_the_elements_one_length_above(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            covers = list(perm._upper_covers(u.images))
            assert sorted(covers) == [
                w.images for w in perms if w.length() == u.length() + 1 and bruhat_leq(u, w)
            ]
            # by positions (a, b): the two positions that each cover swaps
            moved = [tuple(i for i in range(n) if w[i] != u.images[i]) for w in covers]
            assert moved == sorted(moved)


class TestPermutedBruhat:
    def test_identity_gamma_reduces_to_bruhat(self):
        perms = list(all_permutations(3))
        e = Permutation.identity(3)
        for v in perms:
            for w in perms:
                assert permuted_bruhat_leq(v, w, e) == bruhat_leq(v, w)

    def test_paper_interval(self):
        # {v : v <=_(12) (23)} in cycle notation is {id, (12), (23), (123)}
        gamma = P(2, 1, 3)
        w = P(1, 3, 2)
        interval = {
            v.images for v in all_permutations(3) if permuted_bruhat_leq(v, w, gamma)
        }
        assert interval == {(1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1)}

    def test_reflexive(self):
        gamma = P(3, 1, 2)
        for v in all_permutations(3):
            assert permuted_bruhat_leq(v, v, gamma)

    def test_is_bruhat_of_the_relabelled_pair_rank_four(self):
        perms = list(all_permutations(4))
        triples = 0
        for gamma in perms:
            ginv = gamma.inverse()
            for v in perms:
                for w in perms:
                    assert permuted_bruhat_leq(v, w, gamma) == bruhat_leq(ginv * v, ginv * w)
                    triples += 1
        assert triples == 13_824

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            permuted_bruhat_leq(P(1, 2), P(2, 1), P(1, 2, 3))


class TestEnumerate:
    def test_small_ranks(self):
        assert [p.images for p in all_permutations(1)] == [(1,)]
        assert [p.images for p in all_permutations(2)] == [(1, 2), (2, 1)]
        s3 = [p.images for p in all_permutations(3)]
        assert len(s3) == 6
        assert s3 == sorted(s3)
        assert s3[0] == (1, 2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lex_order(self, n):
        assert [p.images for p in all_permutations(n)] == sorted(
            itertools.permutations(range(1, n + 1))
        )

    def test_every_call_iterates_the_same_objects(self):
        for n in (1, 3, 5):
            first, second = list(all_permutations(n)), list(all_permutations(n))
            assert len(first) == len(second)
            assert all(a is b for a, b in zip(first, second))

    def test_bound(self):
        with pytest.raises(LimitExceededError):
            all_permutations(9)
        with pytest.raises(InvalidInputError):
            all_permutations(0)
        with pytest.raises(InvalidInputError):
            all_permutations(-1)
        assert perm.MAX_ENUMERATION_RANK == 8


class TestWeightAction:
    def test_identity(self):
        lam = (1, 0, -1)
        assert act_on_weights(Permutation.identity(3), lam) == lam

    def test_simple_example(self):
        assert act_on_weights(P(2, 1, 3), (1, 0, -1)) == (0, 1, -1)

    def test_roundtrip(self):
        rng = random.Random(7)
        for w in all_permutations(4):
            lam = tuple(rng.randint(-9, 9) for _ in range(4))
            assert act_on_weights(w, act_on_weights(w.inverse(), lam)) == lam

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_left_action(self, n):
        lam = tuple(range(10, 10 + n))
        for g in all_permutations(n):
            for d in all_permutations(n):
                assert act_on_weights(g * d, lam) == act_on_weights(
                    g, act_on_weights(d, lam)
                )

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            act_on_weights(P(2, 1), (1, 0, -1))
