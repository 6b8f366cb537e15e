import hashlib
import random
import time

import pytest

from kflag import groth, laurent
from kflag.ddo import delta, pi
from kflag.errors import InvalidInputError, LimitExceededError
from kflag.laurent import MAX_TERMS, LaurentPoly
from kflag.perm import Permutation, all_permutations

from oracles import (
    all_reduced_words,
    apply_pi_word,
    delta_by_division,
    divided_difference_by_terms,
    eval_poly,
    permute_x_by_terms,
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
        # past the key: delta checks i before it lowers the x_i exponents
        with pytest.raises(InvalidInputError):
            delta(7, xv(2, 1))

    def test_output_symmetric_in_adjacent_pair(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.choice((2, 3))
            f = random_laurent(rng, n)
            i = rng.randint(1, n - 1)
            out = delta(i, f)
            assert permute_x_by_terms(Permutation.simple(n, i), out) == out

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
            q_sym = q + permute_x_by_terms(Permutation.simple(n, i), q)
            assert pi(i, p * q_sym) == pi(i, p) * q_sym


# under pi_1, x1^2 keeps itself; x1^3 x2^-1 reaches x1^2 with -1 and
# cancels it, and x1^4 x2^-2 reaches it again with +1
KEEP, CANCEL, REVIVE = (
    LaurentPoly.monomial(3, c, x, (0, 1, -1))
    for c, x in ((1, (2, 0, 0)), (-1, (3, -1, 0)), (1, (4, -2, 0)))
)
REVIVE_CORPUS = [
    (3, g)
    for f in (KEEP + CANCEL, KEEP + CANCEL + REVIVE, REVIVE + CANCEL + KEEP)
    for g in (f, permute_x_by_terms(Permutation.longest(3), f))
]


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
    """The closed-form operators equal the old routes through exact division
    and through building every summand, term dict for term dict."""

    @staticmethod
    def assert_same(i, f, check_delta=True):
        out = pi(i, f).terms
        assert out == pi_by_division(i, f).terms
        assert out == divided_difference_by_terms(i, f, 1).terms
        if check_delta:
            out = delta(i, f).terms
            assert out == delta_by_division(i, f).terms
            assert out == divided_difference_by_terms(i, f, 0).terms

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_class_every_index(self, n):
        # every cached step G_w = pi_a(G_{w s_a}) of the table is among these
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

    def test_cancelled_fixed_summands(self):
        y = (0, 1, -1)
        assert pi(1, KEEP + CANCEL) == -LaurentPoly.monomial(
            3, 1, (-1, 3, 0), y
        ) - LaurentPoly.monomial(3, 1, (3, -1, 0), y)
        for n, g in REVIVE_CORPUS:
            for i in range(1, n):
                self.assert_same(i, g)

    @pytest.mark.slow
    def test_rank_six_slice(self):
        # every 120th class of S_6, the top class among them; pi only, since
        # division at rank 6 is slow and delta is covered exhaustively above
        for w in list(all_permutations(6))[::120]:
            f = groth.grothendieck(w)
            for i in range(1, 6):
                self.assert_same(i, f, check_delta=False)


class TestFixedSummand:
    """pi_i keeps each term with alpha_i >= alpha_{i+1} at its own key tuple."""

    def test_rank_five_children_share_fixed_keys(self):
        # every key k of the parent with k[a-1] >= k[a] that survives in the
        # child is stored as the parent's own tuple, also when other summands
        # cancel it to zero and later ones bring it back: the class cache's
        # key pool hands back the parent's tuple
        fixed = shared = 0
        for w in all_permutations(5):
            images = w.images
            a = next((i for i in range(1, 5) if images[i - 1] > images[i]), None)
            if a is None:
                continue
            # the cached step G_w = pi_a(G_{w s_a})
            parent = groth.grothendieck(w * Permutation.simple(5, a))
            child = groth.grothendieck(w)
            stored = {ck: ck for ck in child.terms}
            for k in parent.terms:
                if k[a - 1] >= k[a] and k in stored:
                    fixed += 1
                    shared += stored[k] is k
        assert (fixed, shared) == (5145, 5145)


class TestOutputOrder:
    """pi and delta write their terms in a pinned order. The class cache's
    order pins (test_groth) cover only the cached steps; these cover
    negative exponents and fixed summands that cancel and come back. Each
    digest is the sha256 of list(out.terms.items()) over every call."""

    CALLS = [(i, f) for n, f in TestOperatorLaws.CORPUS + REVIVE_CORPUS for i in range(1, n)]
    PI_SHA256 = "1dbe727c8d0324c4708c8553ec05ba578f3bdd99c0fe59abef0db9548dcc4ecb"
    DELTA_SHA256 = "83c15515d0ccaec99abe40fb497e2df349f0de9aa50c6b7c3615c9025ef13412"

    @staticmethod
    def digest(outputs):
        h = hashlib.sha256()
        for out in outputs:
            h.update(repr(list(out.terms.items())).encode())
        return h.hexdigest()

    def test_pi(self):
        assert self.digest(pi(i, f) for i, f in self.CALLS) == self.PI_SHA256

    def test_pi_with_a_fresh_pool(self):
        outputs, revived = [], 0
        for i, f in self.CALLS:
            pool = {}
            out = pi(i, f, pool)
            stored = {k: k for k in f.terms}
            # every key the call adds is the pool's object; a fixed summand
            # that cancelled and came back is added too
            for k in out.terms:
                if stored.get(k) is not k:
                    assert pool[k] is k
                    revived += k in stored and k[i - 1] >= k[i]
            outputs.append(out)
        assert revived
        assert self.digest(outputs) == self.PI_SHA256

    def test_delta(self):
        assert self.digest(delta(i, f) for i, f in self.CALLS) == self.DELTA_SHA256


class TestTermBound:
    """pi and delta refuse exactly when the closed formula would write more than
    MAX_TERMS summands, sum |alpha_i + s - alpha_{i+1}| with s = 1 for pi and
    s = 0 for delta, and refuse before they expand the term that passes it."""

    @staticmethod
    def written(i, f, shift):
        return sum(abs(key[i - 1] + shift - key[i]) for key in f.terms)

    @pytest.mark.parametrize("op", [pi, delta], ids=["pi", "delta"])
    def test_huge_power_refused_at_once(self, op):
        f = LaurentPoly.monomial(2, 1, (10**9, 0))
        start = time.perf_counter()
        with pytest.raises(LimitExceededError, match=f"term bound MAX_TERMS = {MAX_TERMS}$"):
            op(1, f)
        assert time.perf_counter() - start < 1

    def test_terms_pass_the_bound_only_together(self, monkeypatch):
        # each x1^2 * y1^j writes 3 summands under pi_1, the four write 12
        n = 2
        f = sum(LaurentPoly.monomial(n, 1, (2, 0), (j, 0)) for j in range(4))
        # the oracle divides with exact_div, which reads the bound too
        expected = pi_by_division(1, f).terms
        monkeypatch.setattr(laurent, "MAX_TERMS", 11)
        bound = "at least 12 terms, over the term bound MAX_TERMS = 11$"
        with pytest.raises(LimitExceededError, match=bound):
            pi(1, f)
        monkeypatch.setattr(laurent, "MAX_TERMS", 12)
        assert pi(1, f).terms == expected

    def test_fixed_summands_alone_pass_the_bound(self, monkeypatch):
        # x1^k * x2^k is its own image under pi_1: only fixed summands
        n = 2
        f = sum(LaurentPoly.monomial(n, 1, (k, k)) for k in range(4))
        monkeypatch.setattr(laurent, "MAX_TERMS", 3)
        with pytest.raises(LimitExceededError, match="at least 4 terms"):
            pi(1, f)
        monkeypatch.setattr(laurent, "MAX_TERMS", 4)
        assert pi(1, f) == f

    def test_refuses_exactly_past_the_count(self, monkeypatch):
        for n, f in TestOperatorLaws.CORPUS:
            for i in range(1, n):
                for op, shift in ((pi, 1), (delta, 0)):
                    count = self.written(i, f, shift)
                    monkeypatch.setattr(laurent, "MAX_TERMS", count)
                    out = op(i, f).terms
                    assert out == divided_difference_by_terms(i, f, shift).terms
                    monkeypatch.setattr(laurent, "MAX_TERMS", count - 1)
                    with pytest.raises(LimitExceededError):
                        op(i, f)


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
