import io
import json
import pickle
import random
import re
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import laurent
from kflag.errors import InvalidInputError, LimitExceededError, NotDivisibleError
from kflag.laurent import (
    MAX_TERMS,
    LaurentPoly,
    _is_permute_y,
    canonical_zero_test,
    elementary_symmetric,
    exact_div,
    permute_y,
    poly_from_json,
    poly_to_json,
    render_poly,
    write_json,
)
from kflag.gkm import restrict_all
from kflag.groth import grothendieck, top
from kflag.kirwan import WallHit, WeightVector, is_regular
from kflag.perm import Permutation, all_permutations

from oracles import (
    eval_poly,
    permute_y_by_terms,
    polys_to_json,
    random_laurent,
    random_point,
    restriction_class_to_json,
    substitute,
)


def xv(n, i):
    return LaurentPoly.x(n, i)


def yv(n, i):
    return LaurentPoly.y(n, i)


class TestBasics:
    def test_zero_coefficients_are_stripped(self):
        f = LaurentPoly(2, {(0, 0, 0, 0): 0, (1, 0, 0, 0): 2})
        assert len(f.terms) == 1

    def test_add_cancels(self):
        f = xv(2, 1) + (-xv(2, 1))
        assert f.is_zero
        assert f == 0

    def test_laurent_inverse(self):
        f = yv(2, 1) * LaurentPoly.monomial(2, 1, yexp=(-1, 0))
        assert f == 1

    def test_distributivity_example(self):
        one_minus = 1 - yv(2, 2) * LaurentPoly.monomial(2, 1, xexp=(-1, 0))
        assert one_minus * xv(2, 1) == xv(2, 1) - yv(2, 2)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            xv(2, 1) + xv(3, 1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: permute_y(Permutation((2, 1)), xv(3, 1)),
            lambda: exact_div(xv(2, 1), xv(3, 1)),
        ],
        ids=["permute_y", "exact_div"],
    )
    def test_rank_mismatch_of_relabelling_and_division(self, build):
        with pytest.raises(InvalidInputError, match="^rank mismatch: 2 vs 3$"):
            build()

    @pytest.mark.parametrize(
        "apply, message",
        [
            (lambda f: f + 1.5, "+: 'LaurentPoly' and 'float'"),
            (lambda f: f - 1.5, "-: 'LaurentPoly' and 'float'"),
            (lambda f: "a" - f, "-: 'str' and 'LaurentPoly'"),
            (lambda f: f * None, "*: 'LaurentPoly' and 'NoneType'"),
        ],
        ids=["add", "sub", "rsub", "mul"],
    )
    def test_operands_that_are_not_polynomials_refused(self, apply, message):
        message = re.escape(f"unsupported operand type(s) for {message}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            apply(xv(2, 1))

    def test_a_non_polynomial_is_unequal(self):
        f = xv(2, 1)
        assert (f == "a") is False and (f != "a") is True

    @pytest.mark.parametrize(
        "f, text",
        [
            (LaurentPoly.zero(2), "LaurentPoly(2, '0')"),
            (xv(2, 1) - yv(2, 2), "LaurentPoly(2, 'x1 - y2')"),
        ],
        ids=["zero", "binomial"],
    )
    def test_repr(self, f, text):
        assert repr(f) == text

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: xv(2, 0), "x index 0 out of range for rank 2", id="x-below"),
            pytest.param(lambda: xv(2, 3), "x index 3 out of range for rank 2", id="x-above"),
            pytest.param(lambda: yv(2, 3), "y index 3 out of range for rank 2", id="y-above"),
            pytest.param(lambda: LaurentPoly.monomial(2, 1, xexp=(1,)),
                         "exponent vectors must have length n", id="monomial-x-length"),
            pytest.param(lambda: LaurentPoly.monomial(2, 1, yexp=(0, 0, 1)),
                         "exponent vectors must have length n", id="monomial-y-length"),
        ],
    )
    def test_generators_out_of_range_refused(self, build, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            build()

    def test_boolean_exponents_refused(self):
        # poly_to_json would write them as true/false, which poly_from_json refuses
        with pytest.raises(InvalidInputError):
            LaurentPoly(1, {(True, 0): 1})

    @pytest.mark.parametrize("terms", [[((0, 0, 0, 0), 1)], "ab"], ids=["pairs", "text"])
    def test_terms_must_be_a_mapping(self, terms):
        with pytest.raises(InvalidInputError, match="^terms must be a mapping, not "):
            LaurentPoly(2, terms)

    @pytest.mark.parametrize("key", [frozenset({0, 1}), range(2)], ids=["set", "range"])
    def test_exponent_keys_must_be_tuples(self, key):
        # only a tuple is an exponent key: a set has no order to read slots from
        with pytest.raises(InvalidInputError, match=r"is not a tuple$"):
            LaurentPoly(1, {key: 1})

    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2)], ids=repr)
    def test_rank_must_be_an_int(self, n):
        builds = [
            lambda: LaurentPoly(n, {(1, 0): 1}),
            lambda: LaurentPoly.zero(n),
            lambda: LaurentPoly.one(n),
            lambda: LaurentPoly.x(n, 1),
            lambda: LaurentPoly.y(n, 1),
            lambda: LaurentPoly.monomial(n, 1),
            lambda: elementary_symmetric(1, "x", n),
        ]
        for build in builds:
            with pytest.raises(InvalidInputError, match="rank must be a positive integer"):
                build()

    def test_boolean_coefficients_refused(self):
        # poly_to_json would write "True", which poly_from_json refuses
        for flag in (True, False):
            with pytest.raises(InvalidInputError):
                LaurentPoly(1, {(0, 0): flag})

    def test_big_coefficients_stay_exact(self):
        big = 10**30
        f = big * xv(2, 1)
        g = f * f - f
        assert g.terms[(2, 0, 0, 0)] == big * big
        assert g.terms[(1, 0, 0, 0)] == -big

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 3)
            f = random_laurent(rng, n)
            g = random_laurent(rng, n)
            h = random_laurent(rng, n)
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_numeric_evaluation_agrees(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 3)
            f = random_laurent(rng, n)
            g = random_laurent(rng, n)
            xs, ys = random_point(rng, n)
            assert eval_poly(f * g, xs, ys) == eval_poly(f, xs, ys) * eval_poly(g, xs, ys)
            assert eval_poly(f + g, xs, ys) == eval_poly(f, xs, ys) + eval_poly(g, xs, ys)


class TestProductBound:
    """A product refuses when len(a) * len(b), an upper bound on its size,
    passes MAX_TERMS, before it multiplies anything."""

    @staticmethod
    def powers(count, shift=0):
        return LaurentPoly._raw(1, {(k, shift): 1 for k in range(count)})

    def test_oversized_product_refused_at_once(self):
        f, g = self.powers(1001), self.powers(1000, 1)
        start = time.perf_counter()
        for a, b in ((f, g), (g, f)):
            with pytest.raises(
                LimitExceededError,
                match=rf"1001 by 1000 terms would write 1001000 summands, an upper bound"
                rf" on its size, over the term bound MAX_TERMS = {MAX_TERMS}$",
            ):
                a * b
        assert time.perf_counter() - start < 1

    def test_product_at_the_bound_passes(self, monkeypatch):
        f, g = self.powers(3), self.powers(4, 1)
        monkeypatch.setattr(laurent, "MAX_TERMS", 11)
        with pytest.raises(LimitExceededError, match="4 by 3 terms"):
            f * g
        monkeypatch.setattr(laurent, "MAX_TERMS", 12)
        # x^0..x^2 times y x^0..x^3: the sums collide, 6 distinct terms
        assert f * g == LaurentPoly._raw(1, {(k, 1): min(k + 1, 3, 6 - k) for k in range(6)})


class TestPermute:
    def test_permute_y_roundtrip(self):
        rng = random.Random(5)
        g = Permutation((3, 1, 2))
        for _ in range(10):
            f = random_laurent(rng, 3)
            assert permute_y(g, permute_y(g.inverse(), f)) == f

    def test_permute_is_ring_homomorphism(self):
        rng = random.Random(17)
        g = Permutation((2, 3, 1))
        for _ in range(10):
            f1 = random_laurent(rng, 3)
            f2 = random_laurent(rng, 3)
            assert permute_y(g, f1 * f2) == permute_y(g, f1) * permute_y(g, f2)
            assert permute_y(g, f1 + f2) == permute_y(g, f1) + permute_y(g, f2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_term_by_term_route(self, n):
        rng = random.Random(40 + n)
        polys = [random_laurent(rng, n, max_terms=8) for _ in range(4)]
        for sigma in all_permutations(n):
            for f in polys:
                assert permute_y(sigma, f).terms == permute_y_by_terms(sigma, f).terms

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relabel_check_accepts_every_relabelling(self, n):
        rng = random.Random(70 + n)
        polys = [top(n)] + [random_laurent(rng, n, max_terms=8) for _ in range(3)]
        for sigma in all_permutations(n):
            for f in polys:
                assert _is_permute_y(sigma, f, permute_y_by_terms(sigma, f))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relabel_check_rejects_other_polynomials(self, n):
        f = top(n)
        for sigma in all_permutations(n):
            g = permute_y_by_terms(sigma, f).terms
            key = max(g)
            changed = {**g, key: g[key] + 1}
            dropped = {k: c for k, c in g.items() if k != key}
            extra = {**g, (0,) * n + (1,) * n: 1}
            for terms in (changed, dropped, extra):
                assert not _is_permute_y(sigma, f, LaurentPoly(n, terms))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relabel_check_sees_which_swaps_fix_the_class(self, n):
        # permute_y(sigma * s_j, f) == permute_y(sigma, f) exactly when s_j fixes f
        for u in all_permutations(n):
            f = grothendieck(u)
            for j in range(1, n):
                s = Permutation.simple(n, j)
                fixes = permute_y_by_terms(s, f).terms == f.terms
                for sigma in all_permutations(n):
                    g = permute_y_by_terms(sigma, f)
                    assert _is_permute_y(sigma * s, f, g) == fixes

    def test_relabelled_top_class_rank_five(self):
        f = top(5)
        for gamma in all_permutations(5):
            assert permute_y(gamma, f).terms == permute_y_by_terms(gamma, f).terms

    def test_paper_style_y_swap_of_top_product(self):
        # swapping y1, y2 in (1 - y2/x1)(1 - y3/x1)(1 - y3/x2)
        # gives (1 - y1/x1)(1 - y3/x1)(1 - y3/x2)
        def factor(n, i, j):
            return 1 - yv(n, j) * LaurentPoly.monomial(n, 1, xexp=tuple(-1 if t == i - 1 else 0 for t in range(n)))

        original = factor(3, 1, 2) * factor(3, 1, 3) * factor(3, 2, 3)
        expected = factor(3, 1, 1) * factor(3, 1, 3) * factor(3, 2, 3)
        assert permute_y(Permutation((2, 1, 3)), original) == expected


class TestSubstitute:
    def test_monomial_image(self):
        f = xv(3, 1) * yv(3, 1)
        out = substitute(f, x_map={1: yv(3, 3)})
        assert out == yv(3, 3) * yv(3, 1)

    def test_empty_assignment_is_identity(self):
        rng = random.Random(3)
        for _ in range(5):
            f = random_laurent(rng, 2)
            assert substitute(f) == f

    def test_forced_cancellation(self):
        f = 1 - yv(3, 3) * LaurentPoly.monomial(3, 1, xexp=(-1, 0, 0))
        assert substitute(f, x_map={1: yv(3, 3)}).is_zero

    def test_rejects_non_monomial_values(self):
        with pytest.raises(InvalidInputError):
            substitute(xv(2, 1), x_map={1: xv(2, 1) + 1})
        with pytest.raises(InvalidInputError):
            substitute(xv(2, 1), x_map={1: 2 * xv(2, 1)})

    def test_composition_with_disjoint_targets(self):
        rng = random.Random(23)
        for _ in range(10):
            f = random_laurent(rng, 3)
            a = {1: yv(3, 2)}
            b = {2: yv(3, 3)}
            combined = substitute(f, x_map={**a, **b})
            assert substitute(substitute(f, x_map=a), x_map=b) == combined


class TestExactDiv:
    def test_difference_of_squares(self):
        x1, x2 = xv(2, 1), xv(2, 2)
        assert exact_div(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2

    def test_roundtrip_random(self):
        rng = random.Random(29)
        done = 0
        while done < 30:
            n = rng.randint(1, 3)
            f = random_laurent(rng, n)
            g = random_laurent(rng, n)
            if g.is_zero:
                continue
            assert exact_div(f * g, g) == f
            done += 1

    def test_not_divisible(self):
        x1, x2 = xv(2, 1), xv(2, 2)
        with pytest.raises(NotDivisibleError):
            exact_div(x1, x1 - x2)

    def test_coefficient_obstruction(self):
        with pytest.raises(NotDivisibleError):
            exact_div(3 * xv(2, 1), 2 * xv(2, 1))

    def test_zero_divisor_rejected(self):
        with pytest.raises(InvalidInputError):
            exact_div(xv(2, 1), LaurentPoly.zero(2))

    def test_laurent_shift_quotient(self):
        # (x1^-1 - x2 * x1^-2) / (x1 - x2) = x1^-2
        f = LaurentPoly.monomial(2, 1, xexp=(-1, 0)) - xv(2, 2) * LaurentPoly.monomial(2, 1, xexp=(-2, 0))
        q = exact_div(f, xv(2, 1) - xv(2, 2))
        assert q == LaurentPoly.monomial(2, 1, xexp=(-2, 0))


class TestQuotientBound:
    """exact_div refuses a quotient q once len(q) * len(g), the summands of
    the check product q * g, passes MAX_TERMS."""

    @pytest.mark.parametrize("power, g", [(10, (1, -1)), (21, (1, 1, 1))], ids=["x-1", "x2+x+1"])
    def test_quotient_at_the_bound_passes(self, monkeypatch, power, g):
        # x1^power - 1 by x1 - 1 (10 quotient terms) and by x1^2 + x1 + 1 (14)
        g = LaurentPoly(2, {(len(g) - 1 - k, 0, 0, 0): c for k, c in enumerate(g)})
        f = LaurentPoly.monomial(2, 1, (power, 0)) - 1
        q = exact_div(f, g)
        bound = len(q.terms) * len(g.terms)
        assert bound in (20, 42)
        monkeypatch.setattr(laurent, "MAX_TERMS", bound)
        assert exact_div(f, g) == q
        monkeypatch.setattr(laurent, "MAX_TERMS", bound - 1)
        with pytest.raises(LimitExceededError, match=rf"term bound MAX_TERMS = {bound - 1}$"):
            exact_div(f, g)

    def test_huge_quotient_refused(self):
        # x1^(10^9) - 1 by x1 - 1 would hold 10^9 terms; an unbounded
        # division is stopped by the alarm after 5 s, before it fills memory
        f = LaurentPoly.monomial(2, 1, (10**9, 0)) - 1

        def stop(signum, frame):
            raise TimeoutError("exact_div ran for 5 s without refusing")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            with pytest.raises(
                LimitExceededError,
                match=rf"over 500000 terms: its product with the 2-term divisor would pass"
                rf" the term bound MAX_TERMS = {MAX_TERMS}$",
            ):
                exact_div(f, xv(2, 1) - 1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestCanonicalZeroTest:
    def test_determinant_relation_is_zero(self):
        for n in range(1, 5):
            det = LaurentPoly(n, {(0,) * n + (1,) * n: 1}) - 1
            assert canonical_zero_test(det)

    def test_zero_poly(self):
        assert canonical_zero_test(LaurentPoly.zero(3))

    def test_nonzero_binomial(self):
        # 1 - y3/y1 with y3 -> (y1 y2)^{-1} becomes 1 - y1^{-2} y2^{-1}, nonzero
        f = 1 - yv(3, 3) * LaurentPoly.monomial(3, 1, yexp=(-1, 0, 0))
        assert not canonical_zero_test(f)

    def test_x_variables_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_zero_test(xv(2, 1))

    def test_multiples_of_relation_vanish(self):
        rng = random.Random(31)
        n = 3
        det = LaurentPoly(n, {(0,) * n + (1,) * n: 1}) - 1
        for _ in range(15):
            g = random_laurent(rng, n)
            # project g to its y-only part
            gy = LaurentPoly(n, {k: c for k, c in g.terms.items() if not any(k[:n])})
            assert canonical_zero_test(det * gy)


class TestElementarySymmetric:
    def test_e1_x(self):
        assert elementary_symmetric(1, "x", 3) == xv(3, 1) + xv(3, 2) + xv(3, 3)

    def test_e3_y(self):
        assert elementary_symmetric(3, "y", 3) == yv(3, 1) * yv(3, 2) * yv(3, 3)

    def test_e2_x(self):
        x1, x2, x3 = (xv(3, i) for i in (1, 2, 3))
        assert elementary_symmetric(2, "x", 3) == x1 * x2 + x1 * x3 + x2 * x3

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            elementary_symmetric(4, "x", 3)
        with pytest.raises(InvalidInputError):
            elementary_symmetric(1, "z", 3)

    def test_oversized_is_refused_before_any_term(self):
        # C(24, 12) = 2,704,156 terms
        start = time.perf_counter()
        with pytest.raises(
            LimitExceededError,
            match=rf"^e_12 in 24 variables has 2704156 terms, over the term bound"
            rf" MAX_TERMS = {MAX_TERMS}$",
        ):
            elementary_symmetric(12, "x", 24)
        assert time.perf_counter() - start < 0.1

    def test_the_bound_counts_the_binomial(self, monkeypatch):
        # C(10, 5) = 252 terms
        monkeypatch.setattr(laurent, "MAX_TERMS", 252)
        assert len(elementary_symmetric(5, "y", 10).terms) == 252
        monkeypatch.setattr(laurent, "MAX_TERMS", 251)
        with pytest.raises(LimitExceededError, match="has 252 terms"):
            elementary_symmetric(5, "y", 10)

    def test_below_the_bound_still_builds(self):
        # C(20, 10) = 184,756 terms, each a product of 10 distinct x-variables
        f = elementary_symmetric(10, "x", 20)
        assert len(f.terms) == 184_756 and set(f.terms.values()) == {1}
        assert sum(map(sum, f.terms)) == 10 * 184_756


class TestSerialization:
    def test_json_roundtrip(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_laurent(rng, rng.randint(1, 3))
            if f.is_zero:
                continue
            data = json.loads(json.dumps(poly_to_json(f)))
            assert poly_from_json(data) == f
            assert pickle.loads(pickle.dumps(f)) == f

    def test_json_is_sorted_descending(self):
        f = 1 - yv(2, 2) * LaurentPoly.monomial(2, 1, xexp=(-1, 0))
        data = poly_to_json(f)
        keys = [tuple(t["x"]) + tuple(t["y"]) for t in data]
        assert keys == sorted(keys, reverse=True)

    def test_json_rejects_malformed(self):
        with pytest.raises(InvalidInputError):
            poly_from_json([])
        with pytest.raises(InvalidInputError):
            poly_from_json([{"coeff": "0", "x": [0], "y": [0]}])
        with pytest.raises(InvalidInputError):
            poly_from_json(
                [
                    {"coeff": "1", "x": [0], "y": [0]},
                    {"coeff": "2", "x": [0], "y": [0]},
                ]
            )

    def test_term_list_past_the_bound_refused_before_any_term(self, monkeypatch):
        monkeypatch.setattr(laurent, "MAX_TERMS", 3)
        terms = [{"coeff": "1", "x": [k], "y": [0]} for k in range(3)]
        assert poly_from_json(terms) == 1 + xv(1, 1) + xv(1, 1) * xv(1, 1)
        # items that are not terms at all: the length is refused first
        with pytest.raises(LimitExceededError, match="^4 terms, over the term bound MAX_TERMS = 3$"):
            poly_from_json([None] * 4)

    def test_big_coefficients_as_strings(self):
        f = (10**25) * xv(1, 1)
        assert poly_to_json(f)[0]["coeff"] == str(10**25)


def written(tree) -> str:
    out = io.StringIO()
    write_json(tree, out)
    return out.getvalue()


def dumped(tree) -> str:
    # the oracle: the stdlib encoder on term lists built as dicts
    return json.dumps(polys_to_json(tree), indent=2)


@st.composite
def poly_trees(draw):
    """A polynomial wrapped in 0-4 levels of lists and dicts, next to its
    negative and a copy one level deeper, so the memo meets the same keys at
    several depths within one call."""
    n = draw(st.integers(1, 5))
    keys = st.tuples(*[st.integers(-4, 4)] * (2 * n))
    coeffs = st.integers(-(2**70), 2**70).filter(bool)
    f = LaurentPoly(n, draw(st.dictionaries(keys, coeffs, max_size=6)))
    tree = [f, -f, {"again": [f]}, list(range(draw(st.integers(0, 3))))]
    for _ in range(draw(st.integers(0, 4))):
        tree = draw(st.sampled_from([[tree], {"tree": tree, "n": n}, (tree, [])]))
    return tree


def as_iterators(tree):
    """tree with every list replaced by a lazy iterator over its items."""
    if isinstance(tree, list):
        return map(as_iterators, tree)
    if isinstance(tree, dict):
        return {key: as_iterators(value) for key, value in tree.items()}
    return tree


class TestWriteJson:
    @pytest.mark.parametrize(
        "tree",
        [
            LaurentPoly.zero(3),
            [LaurentPoly.zero(1), {"zero": LaurentPoly.zero(2)}],
            xv(1, 1) - 7 * yv(1, 1) + 1,
            1 - yv(3, 3) * LaurentPoly.monomial(3, 1, xexp=(-1, 0, -2)),
            {"big": 2**64 * xv(2, 2) - (2**80 + 1) * yv(2, 1), "small": -3 * xv(2, 1)},
            [[], {}, [[]], {"a": {}}, ()],
            {"s": "t\u00e9\"x\"\n", "t": True, "f": False, "none": None,
             "ints": [1, -2, 2**70], "mixed": [1, True, None], "tuple": (3, 4)},
        ],
        ids=["zero", "zero-nested", "rank-1", "negative-exponents",
             "beyond-2^64", "empty-containers", "plain-values"],
    )
    def test_matches_json_dumps(self, tree):
        assert written(tree) == dumped(tree)
        assert written(as_iterators(tree)) == dumped(tree)

    def test_iterator_is_written_as_it_goes(self):
        out = io.StringIO()
        written_before = []

        def items():
            for i in range(1000):
                written_before.append(out.tell())
                yield {"i": i, "poly": i * xv(1, 1)}

        write_json(items(), out)
        expected = [{"i": i, "poly": i * xv(1, 1)} for i in range(1000)]
        assert out.getvalue() == dumped(expected)
        # batches went out while later items were still to come
        assert 0 < written_before[-1] < len(out.getvalue())

    def test_top_class_at_several_depths(self):
        f = top(4)
        tree = {"n": 4, "polys": [f, [f, {"f": f}], -f], "f": f}
        assert written(tree) == dumped(tree)

    def test_regularity_certificate_with_walls(self):
        # the tree of kflag regular --json, its walls streamed as a map
        lam, mu = WeightVector.parse("2/3,1/7,-17/21"), WeightVector.parse("2/3,-1/3,-1/3")
        cert = is_regular(lam, mu)
        assert cert.walls
        obj = {"regular": cert.regular, "walls": [w.to_json_obj() for w in cert.walls]}
        tree = {"regular": cert.regular, "walls": map(WallHit.to_json_obj, cert.walls)}
        assert written(tree) == json.dumps(obj, indent=2)

    def test_restriction_class(self):
        alpha = restrict_all(top(3))
        obj = restriction_class_to_json(alpha)
        assert written(obj) == json.dumps(obj, indent=2)
        tree = {"n": 3, "entries": [{"z": list(z.images), "poly": alpha.entries[z]}
                                    for z in sorted(alpha.entries, key=lambda p: p.images)]}
        assert written(tree) == json.dumps(obj, indent=2)

    def test_refuses_what_json_cannot_hold(self):
        with pytest.raises(TypeError):
            written({1: "a"})
        with pytest.raises(TypeError):
            written([1.5])

    @settings(derandomize=True, deadline=None, database=None)
    @given(poly_trees())
    def test_random_trees_match_json_dumps(self, tree):
        assert written(tree) == dumped(tree)
        assert written(as_iterators(tree)) == dumped(tree)

    @settings(derandomize=True, deadline=None, database=None)
    @given(poly_trees())
    def test_poly_to_json_reads_back_the_tree(self, tree):
        # poly_to_json takes a leaf or a whole tree, iterators included
        assert poly_to_json(tree) == polys_to_json(tree)
        assert poly_to_json(as_iterators(tree)) == polys_to_json(tree)

    def test_poly_to_json_of_a_leaf(self):
        f = 3**200 * xv(2, 2) - 10**30 * LaurentPoly.monomial(2, 1, (-1, 0), (0, -2))
        assert poly_to_json(f) == polys_to_json(f) == [
            {"coeff": str(3**200), "x": [0, 1], "y": [0, 0]},
            {"coeff": str(-(10**30)), "x": [-1, 0], "y": [0, -2]},
        ]


class TestRendering:
    def test_zero(self):
        assert render_poly(LaurentPoly.zero(2)) == "0"

    def test_constant(self):
        assert render_poly(LaurentPoly.const(2, -7)) == "-7"

    def test_signs_and_order(self):
        f = 1 - yv(3, 3) * LaurentPoly.monomial(3, 1, xexp=(-1, 0, 0))
        assert render_poly(f) == "1 - y3*x1^-1"

    def test_coefficient_and_exponents(self):
        f = 2 * xv(2, 1) * xv(2, 1) * yv(2, 2) - 3
        assert render_poly(f) == "2*x1^2*y2 - 3"

    def test_shared_memo_holds_each_monomial_once(self):
        f = top(3) - 4 * yv(3, 1) * xv(3, 2)
        memo = {}
        assert render_poly(f, memo) == render_poly(f)
        assert set(memo) == set(f.terms)
        # a later call takes every monomial from the memo
        marks = [f"<{i}>" for i in range(len(memo))]
        rendered = render_poly(f, dict(zip(memo, marks)))
        assert all(mark in rendered for mark in marks)
