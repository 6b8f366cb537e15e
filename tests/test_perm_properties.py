"""Hypothesis property tests of the permutation layer.

Random permutations at ranks 1-8 (Bruhat order at ranks 1-6, where the
subword oracle stays small); derandomized, so every run draws the same
examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kflag.perm import Permutation, bruhat_leq, compose

from oracles import subword_bruhat_leq

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def permutation(draw, ranks=(1, 8)):
    n = draw(st.integers(*ranks))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def permutation_and_index(draw):
    w = draw(permutation((2, 8)))
    return w, draw(st.integers(1, w.n - 1))


@st.composite
def two_permutations(draw):
    n = draw(st.integers(1, 6))
    v, w = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    return Permutation(v), Permutation(w)


@PROPERTY
@given(permutation())
def test_inverse_inverts_under_compose(w):
    e = Permutation.identity(w.n)
    assert compose(w, w.inverse()) == e
    assert compose(w.inverse(), w) == e


@PROPERTY
@given(permutation_and_index())
def test_length_under_a_simple_reflection(args):
    w, i = args
    step = 1 if w(i) < w(i + 1) else -1
    assert (w * Permutation.simple(w.n, i)).length() == w.length() + step


@PROPERTY
@given(two_permutations())
def test_bruhat_leq_agrees_with_subwords(pair):
    v, w = pair
    assert bruhat_leq(v, w) == subword_bruhat_leq(v.images, w.images)
    assert bruhat_leq(v, v)
