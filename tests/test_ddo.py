import random

import pytest

from kflag import groth
from kflag.ddo import delta, pi
from kflag.errors import InvalidInputError
from kflag.laurent import LaurentPoly, permute_x
from kflag.perm import Permutation, all_permutations

from oracles import (
    all_reduced_words,
    apply_pi_word,
    delta_by_division,
    eval_poly,
    pi_by_division,
    pi_word,
    random_laurent,
    random_point,
)


def xv(n, i):
    return LaurentPoly.x(n, i)


def yv(n, i):
    return LaurentPoly.y(n, i)


def top_factor(n, i, j):
    """1 - y_j / x_i"""
    xexp = tuple(-1 if t == i - 1 else 0 for t in range(n))
    return 1 - yv(n, j) * LaurentPoly.monomial(n, 1, xexp=xexp)


def corpus(seed, count, ranks=(2, 3, 4, 5)):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        n = rng.choice(ranks)
        polys.append((n, random_laurent(rng, n)))
    return polys


class TestDelta:
    def test_kills_symmetric_input(self):
        assert delta(1, xv(2, 1) * xv(2, 2)).is_zero

    def test_linear_input(self):
        assert delta(1, xv(2, 1)) == 1

    def test_square(self):
        assert delta(1, xv(2, 1) * xv(2, 1)) == xv(2, 1) + xv(2, 2)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            delta(2, xv(2, 1))
        with pytest.raises(InvalidInputError):
            delta(0, xv(2, 1))

    def test_output_symmetric_in_adjacent_pair(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.choice((2, 3))
            f = random_laurent(rng, n)
            i = rng.randint(1, n - 1)
            out = delta(i, f)
            assert permute_x(Permutation.simple(n, i), out) == out

    def test_matches_numeric_difference_quotient(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.choice((2, 3))
            f = random_laurent(rng, n)
            i = rng.randint(1, n - 1)
            out = delta(i, f)
            xs, ys = random_point(rng, n)
            while xs[i - 1] == xs[i]:
                xs, ys = random_point(rng, n)
            swapped = list(xs)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            expected = (eval_poly(f, xs, ys) - eval_poly(f, tuple(swapped), ys)) / (
                xs[i - 1] - xs[i]
            )
            assert eval_poly(out, xs, ys) == expected


class TestPi:
    def test_constant(self):
        assert pi(1, LaurentPoly.one(2)) == 1

    def test_paper_intermediate_step(self):
        # applying the first (inner) operator to the y-swapped top product
        # (1 - y3/x1)(1 - y1/x1)(1 - y3/x2) leaves (1 - y3/x1)(1 - y3/x2),
        # and the second operator leaves (1 - y3/x1)
        f = top_factor(3, 1, 3) * top_factor(3, 1, 1) * top_factor(3, 2, 3)
        step1 = pi(1, f)
        assert step1 == top_factor(3, 1, 3) * top_factor(3, 2, 3)
        step2 = pi(2, step1)
        assert step2 == top_factor(3, 1, 3)

    def test_symmetric_factor_slides_out(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.choice((2, 3))
            i = rng.randint(1, n - 1)
            p = random_laurent(rng, n)
            q = random_laurent(rng, n)
            q_sym = q + permute_x(Permutation.simple(n, i), q)
            assert pi(i, p * q_sym) == pi(i, p) * q_sym


class TestOperatorLaws:
    CORPUS = corpus(53, 100)

    def test_delta_squares_to_zero(self):
        for n, f in self.CORPUS:
            for i in range(1, n):
                assert delta(i, delta(i, f)).is_zero

    def test_pi_idempotent(self):
        for n, f in self.CORPUS:
            for i in range(1, n):
                once = pi(i, f)
                assert pi(i, once) == once

    def test_braid_relations(self):
        for n, f in self.CORPUS:
            for i in range(1, n - 1):
                assert delta(i, delta(i + 1, delta(i, f))) == delta(
                    i + 1, delta(i, delta(i + 1, f))
                )
                assert pi(i, pi(i + 1, pi(i, f))) == pi(i + 1, pi(i, pi(i + 1, f)))

    def test_far_commutation(self):
        for n, f in self.CORPUS:
            if n < 4:
                continue
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert delta(i, delta(j, f)) == delta(j, delta(i, f))
                    assert pi(i, pi(j, f)) == pi(j, pi(i, f))


class TestClosedFormAgainstDivision:
    """The closed-form operators equal the old route through exact division,
    term dict for term dict."""

    @staticmethod
    def assert_same(i, f, check_delta=True):
        assert pi(i, f).terms == pi_by_division(i, f).terms
        if check_delta:
            assert delta(i, f).terms == delta_by_division(i, f).terms

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_class_every_index(self, n):
        for w in all_permutations(n):
            f = groth.grothendieck(w)
            for i in range(1, n):
                self.assert_same(i, f)

    def test_random_laurent_corpus(self):
        # negative exponents included
        assert any(min(key) < 0 for _, f in TestOperatorLaws.CORPUS for key in f.terms)
        for n, f in TestOperatorLaws.CORPUS:
            for i in range(1, n):
                self.assert_same(i, f)

    @pytest.mark.slow
    def test_rank_six_slice(self):
        # every 120th class of S_6, the top class among them; pi only, since
        # division at rank 6 is slow and delta is covered exhaustively above
        for w in list(all_permutations(6))[::120]:
            f = groth.grothendieck(w)
            for i in range(1, 6):
                self.assert_same(i, f, check_delta=False)


class TestPiWord:
    def test_identity_word(self):
        rng = random.Random(59)
        f = random_laurent(rng, 3)
        assert pi_word(Permutation.identity(3), f) == f

    def test_rank_one(self):
        f = LaurentPoly.const(1, 5)
        assert pi_word(Permutation.identity(1), f) == f

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            pi_word(Permutation.identity(2), LaurentPoly.one(3))

    def test_longest_s3_both_words_agree(self):
        rng = random.Random(61)
        for _ in range(20):
            f = random_laurent(rng, 3)
            assert apply_pi_word((1, 2, 1), f) == apply_pi_word((2, 1, 2), f)

    @pytest.mark.parametrize("n", [3, 4])
    def test_all_reduced_words_agree(self, n):
        rng = random.Random(67)
        polys = [random_laurent(rng, n) for _ in range(10)]
        for w in all_permutations(n):
            words = all_reduced_words(w.images)
            for f in polys:
                expected = pi_word(w, f)
                for word in words:
                    assert apply_pi_word(word, f) == expected

    def test_paper_worked_example_word(self):
        # operator word (2, 1) applied to the y-swapped top product
        f = top_factor(3, 1, 3) * top_factor(3, 1, 1) * top_factor(3, 2, 3)
        assert apply_pi_word((2, 1), f) == top_factor(3, 1, 3)
