"""Hypothesis property tests of the divided difference operators.

Random Laurent polynomials at ranks 2-5; derandomized, so every run draws
the same examples.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kflag.ddo import delta, pi
from kflag.laurent import LaurentPoly

from oracles import eval_poly

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def laurent_and_index(draw):
    n = draw(st.integers(2, 5))
    keys = st.tuples(*[st.integers(-3, 3)] * (2 * n))
    coeffs = st.integers(-9, 9).filter(bool)
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=8))
    return LaurentPoly(n, terms), draw(st.integers(1, n - 1))


nonzero_rationals = st.builds(
    Fraction, st.integers(-13, 13).filter(bool), st.integers(1, 5)
)


@st.composite
def point(draw, n, i):
    """Nonzero rational x and y coordinates with x_i != x_{i+1}."""
    xs = draw(st.lists(nonzero_rationals, min_size=n, max_size=n))
    xs[i] = draw(nonzero_rationals.filter(lambda v: v != xs[i - 1]))
    ys = draw(st.lists(nonzero_rationals, min_size=n, max_size=n))
    return tuple(xs), tuple(ys)


def swapped(xs, i):
    out = list(xs)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


@PROPERTY
@given(st.data())
def test_delta_and_pi_match_numeric_difference_quotients(data):
    f, i = data.draw(laurent_and_index())
    xs, ys = data.draw(point(f.n, i))
    sx = swapped(xs, i)
    gap = xs[i - 1] - xs[i]
    here, there = eval_poly(f, xs, ys), eval_poly(f, sx, ys)
    assert eval_poly(delta(i, f), xs, ys) == (here - there) / gap
    assert eval_poly(pi(i, f), xs, ys) == (xs[i - 1] * here - sx[i - 1] * there) / gap


@PROPERTY
@given(laurent_and_index())
def test_pi_idempotent_and_delta_squares_to_zero(case):
    f, i = case
    once = pi(i, f)
    assert pi(i, once) == once
    assert delta(i, delta(i, f)).is_zero
