"""Acceptance suite: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); all
comparisons are exact, and the stated wall-clock budgets are asserted.
"""

import contextlib
import random
import time
from fractions import Fraction
from itertools import permutations as raw_permutations
from pathlib import Path

import pytest

from kflag import groth, kirwan
from kflag.cli import main as cli_main
from kflag.ddo import delta, pi
from kflag.gkm import PairCheck, decompose, recompose, restrict, verify_support_theorem
from kflag.laurent import LaurentPoly, write_json
from kflag.perm import Permutation, all_permutations, permuted_bruhat_leq

from oracles import (
    Sha256Sink,
    all_reduced_words,
    apply_pi_word,
    permute_x_by_terms,
    pi_word,
    random_laurent,
)

TESTDATA = Path(__file__).parent / "testdata"


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def top_factor(n, i, j):
    xexp = tuple(-1 if t == i - 1 else 0 for t in range(n))
    return 1 - LaurentPoly.y(n, j) * LaurentPoly.monomial(n, 1, xexp=xexp)


def test_criterion_1_worked_example_bit_exact():
    with criterion(1, "permuted class of ((23),(12)) equals 1 - y3*x1^-1, < 10 ms"):
        groth.clear_cache()
        groth.top(2)  # warm interpreter paths at a different rank
        w, gamma = Permutation((1, 3, 2)), Permutation((2, 1, 3))
        t0 = time.perf_counter()
        value = groth.permuted_grothendieck(w, gamma)
        elapsed = time.perf_counter() - t0
        assert value == top_factor(3, 1, 3)
        assert value.terms == {(-1, 0, 0, 0, 0, 1): -1, (0, 0, 0, 0, 0, 0): 1}
        assert elapsed < 0.010


def test_criterion_2_top_class_expansion():
    with criterion(2, "top class at rank 3 equals the displayed three-factor product"):
        t0 = time.perf_counter()
        value = groth.top(3)
        elapsed = time.perf_counter() - t0
        expected = top_factor(3, 1, 2) * top_factor(3, 1, 3) * top_factor(3, 2, 3)
        assert value == expected
        assert elapsed < 0.010


def test_criterion_3_restriction_pattern():
    with criterion(3, "six-point restriction pattern of the worked example"):
        g = groth.permuted_grothendieck(Permutation((1, 3, 2)), Permutation((2, 1, 3)))
        t0 = time.perf_counter()
        values = {z.images: restrict(g, z) for z in all_permutations(3)}
        elapsed = time.perf_counter() - t0
        zero_at = {(3, 2, 1), (3, 1, 2)}
        for images, value in values.items():
            if images in zero_at:
                assert value.is_zero
            else:
                assert not value.is_zero
        assert elapsed < 0.010


def test_criterion_4_exhaustive_sweep_n3_n4():
    with criterion(4, "support sweep: 36 pairs < 1 s and 576 pairs < 60 s, all pass"):
        t0 = time.perf_counter()
        report3 = verify_support_theorem(3)
        t3 = time.perf_counter() - t0
        assert len(report3.checks) == 36
        assert report3.all_passed
        assert t3 < 1.0

        t0 = time.perf_counter()
        report4 = verify_support_theorem(4)
        t4 = time.perf_counter() - t0
        assert len(report4.checks) == 576
        assert report4.all_passed
        assert t4 < 60.0


@pytest.mark.slow
def test_criterion_4_exhaustive_sweep_n5(rank5_sweep):
    with criterion(4, "support sweep: 14400 pairs < 30 min, all pass"):
        report, elapsed = rank5_sweep
        assert len(report.checks) == 14400
        assert report.all_passed
        assert elapsed < 1800.0


def test_criterion_5_operator_laws():
    with criterion(5, "operator laws on 100 random polynomials, exact"):
        rng = random.Random(2024)
        cases = 0
        while cases < 100:
            n = rng.choice((2, 3, 4))
            f = random_laurent(rng, n, max_terms=6, max_total_degree=5, max_coeff=9)
            for i in range(1, n):
                assert delta(i, delta(i, f)).is_zero
                once = pi(i, f)
                assert pi(i, once) == once
                q = random_laurent(rng, n, max_terms=3)
                q_sym = q + permute_x_by_terms(Permutation.simple(n, i), q)
                assert pi(i, f * q_sym) == pi(i, f) * q_sym
            for i in range(1, n - 1):
                assert delta(i, delta(i + 1, delta(i, f))) == delta(
                    i + 1, delta(i, delta(i + 1, f))
                )
                assert pi(i, pi(i + 1, pi(i, f))) == pi(i + 1, pi(i, pi(i + 1, f)))
            if n >= 4:
                assert delta(1, delta(3, f)) == delta(3, delta(1, f))
                assert pi(1, pi(3, f)) == pi(3, pi(1, f))
            cases += 1


def test_criterion_6_reduced_word_independence():
    with criterion(6, "operator words agree across all reduced words over S_4"):
        rng = random.Random(4096)
        polys = [random_laurent(rng, 4, max_terms=4, max_total_degree=4) for _ in range(10)]
        for w in all_permutations(4):
            words = all_reduced_words(w.images)
            assert words
            for f in polys:
                reference = pi_word(w, f)
                for word in words:
                    assert apply_pi_word(word, f) == reference


def test_criterion_7_decompose_roundtrip():
    with criterion(7, "decompose inverts recompose on 50 random coefficient maps"):
        rng = random.Random(777)
        n = 3
        perms = list(all_permutations(n))
        for _ in range(50):
            gamma = rng.choice(perms)
            chosen = rng.sample(perms, rng.randint(1, 6))
            coeff_map = {}
            for w in chosen:
                yexp = tuple(rng.randint(-1, 1) for _ in range(n))
                coeff_map[w] = LaurentPoly.monomial(
                    n, rng.choice([1, -1, 2, 3, -2]), yexp=yexp
                )
            alpha = recompose(coeff_map, gamma, n)
            recovered = decompose(alpha, gamma)
            for w in perms:
                assert recovered[w] == coeff_map.get(w, LaurentPoly.zero(n))


def test_criterion_8_rank_two_weight_variety():
    with criterion(8, "rank-2 end-to-end kernel with soundness, < 100 ms"):
        lam = kirwan.WeightVector.parse("1/2,-1/2")
        mu = kirwan.WeightVector.parse("0,0")
        t0 = time.perf_counter()
        assert kirwan.is_regular(lam, mu).regular
        gens = kirwan.kernel_generators(lam, mu)
        for gen in gens:
            kirwan.half_space_soundness(gen, lam, mu)
        elapsed = time.perf_counter() - t0
        assert [(g.v.images, g.gamma.images) for g in gens] == [
            ((1, 2), (1, 2)),
            ((1, 2), (2, 1)),
        ]
        x1inv = LaurentPoly.monomial(2, 1, xexp=(-1, 0))
        assert gens[0].poly == 1 - LaurentPoly.y(2, 2) * x1inv
        assert gens[1].poly == 1 - LaurentPoly.y(2, 1) * x1inv
        assert elapsed < 0.100


def _brute_force_rank3_kernel():
    lam = (Fraction(1), Fraction(0), Fraction(-1))
    mu = (Fraction(1, 4), Fraction(1, 8), Fraction(-3, 8))
    n = 3
    qualifying = {}
    for v in raw_permutations(range(1, n + 1)):
        for g in raw_permutations(range(1, n + 1)):
            ks = []
            for k in (1, 2):
                lam_tail = sum(lam[v[i] - 1] for i in range(k, n))
                mu_tail = sum(mu[g[i] - 1] for i in range(k, n))
                assert lam_tail != mu_tail  # regularity, checked en passant
                if lam_tail < mu_tail:
                    ks.append(k)
            if ks:
                qualifying[(v, g)] = tuple(ks)
    return qualifying


def test_criterion_9_rank_three_golden(capsys):
    with criterion(9, "rank-3 golden kernel: brute force, soundness, byte equality, < 10 s"):
        t0 = time.perf_counter()
        lam = kirwan.WeightVector.parse("1,0,-1")
        mu = kirwan.WeightVector.parse("1/4,1/8,-3/8")
        assert kirwan.is_regular(lam, mu).regular

        # independently scripted enumeration of all 6*6*2 = 72 triples
        expected = _brute_force_rank3_kernel()
        gens = kirwan.kernel_generators(lam, mu)
        assert {(g.v.images, g.gamma.images): g.witnesses for g in gens} == expected

        for gen in gens:
            kirwan.half_space_soundness(gen, lam, mu)

        code = cli_main(["kernel", "--lambda", "1,0,-1", "--mu", "1/4,1/8,-3/8", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        golden = (TESTDATA / "kernel_n3_golden.json").read_text()
        assert out == golden
        assert time.perf_counter() - t0 < 10.0

        code = cli_main(["presentation", "--lambda", "1,0,-1", "--mu", "1/4,1/8,-3/8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (TESTDATA / "presentation_n3_golden.json").read_text()


def test_criterion_10_monotonicity():
    with criterion(10, "tail functionals respect the permuted order for ranks 2..4"):
        for n in (2, 3, 4):
            lam = kirwan.WeightVector.staircase(n)
            perms = list(all_permutations(n))
            for gamma in perms:
                for k in range(1, n):
                    values = {
                        w: kirwan.eta_value(gamma, k, kirwan.moment_image(lam, w))
                        for w in perms
                    }
                    for v in perms:
                        for w in perms:
                            if permuted_bruhat_leq(v, w, gamma):
                                assert values[v] <= values[w]


def test_criterion_11_determinism(capsys):
    with criterion(11, "byte-identical outputs on repeated runs"):

        def runs(argv, times):
            outputs = []
            for _ in range(times):
                code = cli_main(argv)
                outputs.append(capsys.readouterr().out)
                assert code == 0
            assert len(set(outputs)) == 1
            return outputs[0]

        runs(["verify", "--n", "3", "--json"], 3)
        runs(["verify", "--n", "4", "--json"], 2)
        kernel = runs(["kernel", "--lambda", "1,0,-1", "--mu", "1/4,1/8,-3/8", "--json"], 2)
        assert kernel == (TESTDATA / "kernel_n3_golden.json").read_text()


@pytest.mark.slow
def test_criterion_11_determinism_rank5(rank5_verify_json_sha256):
    with criterion(11, "rank-5 sweep bytes are the same on a repeated call"):
        # a second sweep, written as verify --n 5 --json writes it, against
        # the command's stdout for the session's first sweep
        sink = Sha256Sink()
        write_json(map(PairCheck.to_json_obj, verify_support_theorem(5).checks), sink)
        sink.write("\n")
        assert sink.digest.hexdigest() == rank5_verify_json_sha256
